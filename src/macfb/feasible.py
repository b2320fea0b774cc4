"""The (u1, u2, u) summary statistics and their feasible set.

Every closed-form bound in this package is a function of the triple

    u1 = sum_t p_t q1t (1 - q1t)
    u2 = sum_t p_t q2t (1 - q2t)
    u  = sum_t p_t (q1t + q2t - 2 q1t q2t)

of a conditionally independent input distribution.  The feasible set P is the
box-and-band region f2(2u1, 2u2) <= u <= 1 - (u1 + u2) with u1, u2 in [0, 1/4];
it may be a strict superset of the realizable triples, which is sound because
the bounds are maximized over it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import JointInputDistribution
from .infofn import CLAMP_TOL, f2

__all__ = [
    "UTriple",
    "InvalidTripleError",
    "u_triples",
    "u_triple_of",
    "in_P",
    "in_P_rows",
    "lower_face_u2",
    "lower_face_u2_sq",
    "lower_face_projections",
    "project_to_lower_face",
    "sample_triple_rows",
]

class InvalidTripleError(ValueError):
    """Triple lies outside the feasible set P."""


class UTriple(NamedTuple):
    u1: float
    u2: float
    u: float


def u_triples(p: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u1, u2, u) of each row of ``p``, ``q1``, ``q2``, which hold p_t, q1t and q2t over their last axis.

    The t terms are added one column at a time, in t order, without building
    (n, |T|) products.  For fewer than 8 terms that is the order, and so the
    bits, of ``np.sum`` over the last axis (numpy sums 8 or more pairwise).
    """

    def column(t):
        pt, a, b = p[..., t], q1[..., t], q2[..., t]
        return pt * a * (1.0 - a), pt * b * (1.0 - b), pt * (a + b - 2.0 * a * b)

    u1, u2, u = column(0)
    for t in range(1, p.shape[-1]):
        d1, d2, d = column(t)
        u1 += d1
        u2 += d2
        u += d
    return u1, u2, u


def u_triple_of(d: JointInputDistribution) -> UTriple:
    """Summary statistics (u1, u2, u) of a conditionally independent input."""
    return UTriple(*(float(x) for x in u_triples(d.p_t, d.q1, d.q2)))


def in_P_rows(u1, u2, u) -> np.ndarray:
    """Membership in the feasible set P of each row of the arrays (u1, u2, u), with ``CLAMP_TOL`` slack on each face."""
    tol = CLAMP_TOL
    box = (-tol <= u1) & (u1 <= 0.25 + tol) & (-tol <= u2) & (u2 <= 0.25 + tol)
    # NaN fails the box; a row outside it takes its lower face at 0.  The
    # clip puts both coordinates in f2's domain, so no second check is needed.
    lo = f2.unchecked(*(2.0 * np.clip(np.where(box, x, 0.0), 0.0, 0.25) for x in (u1, u2)))
    return box & (lo - tol <= u) & (u <= 1.0 - (u1 + u2) + tol)


def in_P(t: UTriple) -> bool:
    """Membership in the feasible set P, with ``CLAMP_TOL`` slack on each face."""
    return bool(in_P_rows(*t))


def lower_face_u2(u1, u):
    """The u2 in [0, 1/4] with f2(2 u1, 2 u2) = u: (1 - (1 - 2u)^2 / (1 - 4 u1)) / 4, for u <= 1/2.

    At u1 = 1/4 (and beyond it, within tolerance) the only face point is
    u = 1/2, where the formula's 0/0 resolves to 1/4, so u2 = 1/4 there.
    """
    return lower_face_u2_sq(u1, (1.0 - 2.0 * u) ** 2)


def lower_face_u2_sq(u1, sq):
    """:func:`lower_face_u2` at the u with (1 - 2u)^2 = ``sq``, for a caller that holds ``sq`` at many u1."""
    den = np.asarray(1.0 - 4.0 * u1, dtype=float)
    ratio = np.divide(sq, den, out=np.zeros_like(den), where=den > 0.0)
    return np.clip(0.25 * (1.0 - ratio), 0.0, 0.25)


def lower_face_projections(u1, u2, u) -> tuple[np.ndarray, np.ndarray]:
    """Map each row of the arrays (u1, u2, u), all in P, to a pair on the face u = f2(2 u1bar, 2 u2bar).

    For u <= 1/2 the first coordinate is kept and u2bar = :func:`lower_face_u2`,
    which dominates u2.  For u > 1/2 no pair reaches u, and (1/4, 1/4) (where
    f2 = 1/2) dominates instead.
    """
    inside = in_P_rows(u1, u2, u)
    if not inside.all():
        i = np.argmin(inside)
        raise InvalidTripleError(f"{UTriple(float(u1[i]), float(u2[i]), float(u[i]))} is not in P")
    high = u > 0.5
    return np.where(high, 0.25, u1), np.where(high, 0.25, np.minimum(np.maximum(lower_face_u2(u1, u), u2), 0.25))


def project_to_lower_face(t: UTriple) -> tuple[float, float]:
    """:func:`lower_face_projections` of one feasible triple."""
    u1, u2 = lower_face_projections(*(np.array([x], dtype=float) for x in t))
    return float(u1[0]), float(u2[0])


def sample_triple_rows(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``n`` triples uniformly inside P (u1, u2 uniform, u uniform in its band), as arrays (u1, u2, u)."""
    u1 = rng.uniform(0.0, 0.25, size=n)
    u2 = rng.uniform(0.0, 0.25, size=n)
    lo = f2(2.0 * u1, 2.0 * u2)
    hi = 1.0 - (u1 + u2)
    u = lo + rng.uniform(0.0, 1.0, size=n) * (hi - lo)
    return u1, u2, u
