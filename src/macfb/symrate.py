"""Symmetric-rate solvers: the largest R with (R, R) in each region.

The dependence-balance and Cover-Leung problems reduce to scalar fixed-point
equations solved by bisection.  The cut-set problem is a concave max-min over
the 4-atom input joints; its symmetries reduce it to a one-parameter family,
searched by golden section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from ._search import _golden_max
from .bounds import _binary_t_witness, _cutset_joint, _cutset_symmetric_values
from .channel import JointInputDistribution
from .infofn import binary_entropy, f2, phi, phi_inv

__all__ = [
    "BracketError",
    "SymmetricRateSolution",
    "solve_db_symmetric",
    "solve_cl_symmetric",
    "solve_cutset_symmetric",
    "cutset_symmetric_argmax",
]


class BracketError(RuntimeError):
    """Bisection bracket does not change sign."""


@dataclass(frozen=True)
class SymmetricRateSolution:
    """Optimal symmetric rate with its (u1*, u2*, u*) and witness input."""

    rate: float
    u1_star: float
    u2_star: float
    u_star: float
    witness: JointInputDistribution

    def __post_init__(self):
        if abs(self.u_star - f2(2.0 * self.u1_star, 2.0 * self.u2_star)) > 1e-9:
            raise ValueError("u_star must equal f2(2 u1*, 2 u2*)")


_XTOL = 1e-12
_MAX_ITER = 200


def _bisect(fn, lo: float, hi: float) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or (hi - lo) / 2.0 <= _XTOL:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _db_gap(s: float) -> float:
    """h(phi(s)) - h((1 - phi(s)) / (3 - 2 phi(s))) / 2; increasing through zero."""
    p = phi(s)
    return binary_entropy(p) - 0.5 * binary_entropy((1.0 - p) / (3.0 - 2.0 * p))


def solve_db_symmetric() -> SymmetricRateSolution:
    """Balance point of the dependence-balance symmetric-rate bound.

    Finds the unique s in [0, 1/2] with h(phi(s)) = h((1-phi(s))/(3-2phi(s)))/2,
    sets u1* = s/2, recovers u2* through the increasing branch of phi, and
    returns the binary uniform-T witness that attains all three caps.
    """
    s = _bisect(_db_gap, 0.0, 0.5)
    u1 = s / 2.0
    p1 = phi(s)
    p2 = (1.0 - p1) / (3.0 - 2.0 * p1)
    u2 = phi_inv(p2) / 2.0
    rate = bounds._h_phi(u1)
    return SymmetricRateSolution(
        rate=rate,
        u1_star=u1,
        u2_star=u2,
        u_star=f2(2.0 * u1, 2.0 * u2),
        witness=_binary_t_witness(u1, u2),
    )


def solve_cl_symmetric() -> SymmetricRateSolution:
    """Cover-Leung symmetric rate.

    By symmetry the optimum has u1 = u2 = u, where the per-user cap
    h(phi(2u))/2 (increasing) crosses the halved sum cap h((1-2u)/2)/2
    (decreasing); a 201 x 201 grid over [0, 1/4]^2 confirms the symmetric
    restriction is optimal to within 1e-6.
    """
    # on the diagonal f2(2u, 2u) = 2u
    u = _bisect(lambda u: bounds._h_phi(u) - bounds._h_mid(2.0 * u), 0.0, 0.25)
    rate = 0.5 * bounds._h_phi(u)
    r1, r2, total = bounds._cl_caps(*bounds._box_grid(201))
    # the largest symmetric rate of each pentagon
    grid_max = float(np.minimum(np.minimum(r1, r2), 0.5 * total).max())
    if grid_max > rate + 1e-6:
        raise RuntimeError(f"asymmetric grid point beats the symmetric optimum: {grid_max} > {rate}")
    return SymmetricRateSolution(
        rate=rate,
        u1_star=u,
        u2_star=u,
        u_star=f2(2.0 * u, 2.0 * u),
        witness=_binary_t_witness(u, u),
    )


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
    a, value = _golden_max(
        lambda a, rows: _cutset_symmetric_values(_cutset_joint(a, 0.5)), np.zeros(1), np.full(1, 0.5)
    )
    return float(value[0]), _cutset_joint(a, 0.5)[0]
