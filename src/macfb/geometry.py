"""Rate-region geometry: Pareto frontiers, support values, curve gaps, and support polygons.

A convex region is fixed by its support values: :func:`support_value` reads
them off a boundary curve, and :func:`_support_polygon` builds the curve back
from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .infofn import CLAMP_TOL

__all__ = [
    "RatePair", "BoundaryCurve", "EmptyInputError", "SWEEP_LAMBDAS",
    "pareto_filter", "support_value", "support_values", "curve_gap",
]

#: default sweep directions (1-degree resolution over the quarter turn)
SWEEP_LAMBDAS = np.linspace(0.0, 1.0, 181)


class EmptyInputError(ValueError):
    """Pareto filtering needs at least one point."""


class RatePair(NamedTuple):
    r1: float
    r2: float


@dataclass(frozen=True)
class BoundaryCurve:
    """Pareto-ordered boundary samples of a rate region.

    ``points`` is an (n, 2) array with strictly increasing r1, non-increasing
    r2 and no componentwise-dominated point; the region it represents is the
    set of rate pairs dominated by some point of the curve.
    """

    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0 or pts.shape[1] != 2:
            raise EmptyInputError("boundary curve needs at least one (r1, r2) point")
        if np.any(~np.isfinite(pts)) or np.any(pts < -CLAMP_TOL):
            raise ValueError("rate pairs must be finite and nonnegative")
        if np.any(np.diff(pts[:, 0]) <= 0) or np.any(np.diff(pts[:, 1]) >= 0):
            raise ValueError("points must be sorted with increasing r1 and decreasing r2")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def rate_pairs(self) -> list[RatePair]:
        return [RatePair(float(a), float(b)) for a, b in self.points]


def _lexsort_mask(pts: np.ndarray) -> np.ndarray:
    """Boolean mask of componentwise non-dominated rows of an (n, 2) array."""
    order = np.lexsort((-pts[:, 1], -pts[:, 0]))  # r1 desc, then r2 desc
    r2 = pts[order, 1]
    best_before = np.concatenate(([-np.inf], np.maximum.accumulate(r2)[:-1]))
    mask = np.zeros(len(pts), dtype=bool)
    mask[order] = r2 > best_before
    return mask


def pareto_filter(points: Iterable | np.ndarray, label: str = "") -> BoundaryCurve:
    """Retain exactly the componentwise non-dominated points, sorted by r1."""
    pts = np.atleast_2d(np.asarray(list(points) if not isinstance(points, np.ndarray) else points, dtype=float))
    if pts.size == 0:
        raise EmptyInputError("cannot Pareto-filter an empty point set")
    kept = pts[_lexsort_mask(pts)]
    kept = kept[np.argsort(kept[:, 0])]
    return BoundaryCurve(points=kept, label=label)


#: directions x curve points in one block of :func:`support_values`, which bounds its temporaries
_SUPPORT_BLOCK = 1 << 20


def support_value(curve: BoundaryCurve, lam: float) -> float:
    """max over the curve of lam * r1 + (1 - lam) * r2: :func:`support_values` at one direction."""
    return float(support_values(curve, [lam])[0])


def support_values(curve: BoundaryCurve, lams) -> np.ndarray:
    """max over the curve of lam * r1 + (1 - lam) * r2, for each lam of ``lams`` in [0, 1].

    The maximum of a linear functional over the piecewise-linear frontier is
    attained at a vertex, so segment interpolants never add anything.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1:
        raise ValueError("lambdas must be a 1-D sequence")
    if not np.all((lams >= 0.0) & (lams <= 1.0)):
        raise ValueError("lambda must lie in [0, 1]")
    r1, r2 = curve.points.T
    out = np.empty(len(lams))
    step = max(1, _SUPPORT_BLOCK // len(r1))
    for start in range(0, len(lams), step):
        lam = lams[start : start + step, None]
        out[start : start + step] = (lam * r1 + (1.0 - lam) * r2).max(axis=1)
    return out


def curve_gap(outer: BoundaryCurve, inner: BoundaryCurve) -> tuple[float, float, float]:
    """Support-value differences outer - inner over the sweep directions.

    Returns (min_gap, max_gap, at_lambda) where ``at_lambda`` is the sweep
    direction attaining ``min_gap`` (the containment-critical direction);
    min_gap >= -1e-9 certifies that ``inner`` lies inside ``outer`` at the
    swept directions.
    """
    gaps = support_values(outer, SWEEP_LAMBDAS) - support_values(inner, SWEEP_LAMBDAS)
    i_min = int(np.argmin(gaps))
    return float(gaps[i_min]), float(gaps.max()), float(SWEEP_LAMBDAS[i_min])


def _concave_upper_hull(pts: np.ndarray) -> np.ndarray:
    """Upper concave envelope of points sorted by their first coordinate.

    Of Pareto-sorted rate pairs, it is the time-sharing hull.
    """
    hull: list[np.ndarray] = []
    for p in pts:
        while len(hull) >= 2:
            o, q = hull[-2], hull[-1]
            cross = (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0])
            if cross >= 0.0:  # q below or on chord o-p: not a hull vertex
                hull.pop()
            else:
                break
        hull.append(p)
    return np.asarray(hull)


#: consecutive polygon vertices closer than this are one vertex split by rounding
_VERTEX_TOL = 1e-13


def _support_polygon(m: np.ndarray, label: str) -> BoundaryCurve:
    """The polygon {r >= 0 : lam r1 + (1 - lam) r2 <= m in every direction of ``SWEEP_LAMBDAS``}.

    A line is redundant exactly when its
    point (lam, m) lies on or above the lower convex hull of the points of
    the others, so the kept lines are the vertices of that hull, and each
    vertex of the polygon is where two consecutive kept lines meet.  The
    lines at lam = 0 and 1 bound r2 and r1, so the first and last vertex lie
    on them.  Rounding can make collinear points (lam, m) look strictly
    convex and so keep lines through one vertex of the true polygon; their
    meeting points then lie within rounding of each other.  A run of
    vertices each within ``_VERTEX_TOL`` of the last is merged into its
    componentwise maximum: that drops the lines between them and, since the
    merged vertex dominates the run, lowers no support.  The Pareto filter
    drops any vertex that rounding puts out of order.
    """
    lam, neg_m = _concave_upper_hull(np.column_stack([SWEEP_LAMBDAS, -m])).T
    l1, l2, m1, m2 = lam[:-1], lam[1:], -neg_m[:-1], -neg_m[1:]
    det = l1 - l2
    r1 = (m1 * (1.0 - l2) - m2 * (1.0 - l1)) / det
    r2 = (l1 * m2 - l2 * m1) / det
    vertices = [np.array([r1[0], r2[0]])]
    for v in np.column_stack([r1[1:], r2[1:]]):
        if np.hypot(*(v - vertices[-1])) < _VERTEX_TOL:
            vertices[-1] = np.maximum(vertices[-1], v)
        else:
            vertices.append(v)
    return pareto_filter(np.array(vertices), label=label)
