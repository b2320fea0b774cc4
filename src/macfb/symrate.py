"""Symmetric-rate solvers: the largest R with (R, R) in each region.

Each region's symmetric rate is the largest ``bounds._symmetric`` of its
family's caps.  Symmetry and the structure of each family reduce that to a
path t -> caps(t) on which the symmetric rate is unimodal, and
:func:`_symmetric_max` finds its peak by golden section:

- cut-set: the flip- and swap-symmetric joints (a, 1/2 - a, 1/2 - a, a);
- Cover-Leung: the diagonal u1 = u2;
- dependence balance: the balance path of :func:`_balance_path`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from ._search import _golden_max
from .channel import JointInputDistribution
from .infofn import f2, phi, phi_inv

__all__ = [
    "SymmetricRateSolution",
    "solve_db_symmetric",
    "solve_cl_symmetric",
    "solve_cutset_symmetric",
    "cutset_symmetric_argmax",
]


@dataclass(frozen=True)
class SymmetricRateSolution:
    """Optimal symmetric rate at the point (u1*, u2*) of P's lower face.

    u* and the witness input are functions of (u1*, u2*), so they are
    derived, not stored.
    """

    rate: float
    u1_star: float
    u2_star: float

    @property
    def u_star(self) -> float:
        """u* = f2(2 u1*, 2 u2*), on P's lower face."""
        return f2(2.0 * self.u1_star, 2.0 * self.u2_star)

    @property
    def witness(self) -> JointInputDistribution:
        """The binary uniform-T input at (u1*, u2*), which attains the caps there."""
        return bounds.cover_leung_witness(self.u1_star, self.u2_star)


def _symmetric_max(caps_of, hi: float) -> tuple[float, float]:
    """The t in [0, hi] of the largest symmetric rate of the caps ``caps_of(t)``, and that rate.

    ``caps_of`` maps an array of t to the arrays (r1, r2, total); the rate
    must be unimodal in t.
    """
    t, rate = _golden_max(lambda t: bounds._symmetric(*caps_of(t)), np.zeros(1), np.full(1, hi))
    return float(t[0]), float(rate[0])


def _balance_path(s):
    """The triples (u1, u2, u) of the dependence-balance path, for s in [0, 1/2].

    u1 = s/2, phi(2 u2) = (1 - phi(s)) / (3 - 2 phi(s)) on the increasing
    branch of phi, and u = f2(2 u1, 2 u2), on P's lower face.  Along it the
    dbpc1 r2 cap h(phi(2 u2))/2 equals half the sum cap h((1 - u)/2) and
    falls, while the r1 cap h(phi(s)) rises, so the symmetric rate peaks
    where all three meet: the paper's balance point.
    """
    p1 = phi(s)
    u1 = s / 2.0
    u2 = phi_inv((1.0 - p1) / (3.0 - 2.0 * p1)) / 2.0
    return u1, u2, f2(2.0 * u1, 2.0 * u2)


def solve_db_symmetric() -> SymmetricRateSolution:
    """Balance point of the dependence-balance symmetric-rate bound.

    The peak of the dbpc1 symmetric rate along :func:`_balance_path`, with
    the binary uniform-T witness that attains all three caps.
    """
    s, rate = _symmetric_max(lambda s: bounds._CAPS["dbpc1"](*_balance_path(s)), 0.5)
    u1, u2, _ = _balance_path(s)
    return SymmetricRateSolution(rate, u1, u2)


def solve_cl_symmetric() -> SymmetricRateSolution:
    """Cover-Leung symmetric rate.

    By symmetry the optimum has u1 = u2 = u, where the per-user cap
    h(phi(2u))/2 (increasing) crosses the halved sum cap h((1-2u)/2)/2
    (decreasing); no point of a 201 x 201 grid over [0, 1/4]^2 beats the
    symmetric optimum by more than 1e-6.
    """
    u, rate = _symmetric_max(lambda u: bounds._CAPS["cover-leung"](u, u), 0.25)
    return SymmetricRateSolution(rate, u, u)


def solve_cutset_symmetric() -> float:
    """Cut-set symmetric rate: max-min over all 4-atom input joints."""
    return cutset_symmetric_argmax()[0]


def cutset_symmetric_argmax() -> tuple[float, np.ndarray]:
    """Cut-set symmetric rate together with the optimizing input joint.

    min(c1, c2, c3 / 2) is concave in the joint and kept by the flip
    (x1, x2) -> (1 - x1, 1 - x2) and by the swap X1 <-> X2, so averaging an
    optimal joint over both gives an optimal joint (a, b, b, a).  Golden
    section searches a in [0, 1/2].
    """
    a, value = _symmetric_max(lambda a: bounds._cutset_caps(a, 0.5), 0.5)
    return value, bounds._cutset_joint(np.array([a]), 0.5)[0]
