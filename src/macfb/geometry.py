"""Rate-region geometry: Pareto frontiers, support values, curve gaps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

__all__ = ["RatePair", "BoundaryCurve", "EmptyInputError", "pareto_filter", "support_value", "support_values", "curve_gap"]


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
        if np.any(~np.isfinite(pts)) or np.any(pts < -1e-12):
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


def support_value(curve: BoundaryCurve, lam: float) -> float:
    """max over the curve of lam * r1 + (1 - lam) * r2.

    The maximum of a linear functional over the piecewise-linear frontier is
    attained at a vertex, so segment interpolants never add anything.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    vals = lam * curve.points[:, 0] + (1.0 - lam) * curve.points[:, 1]
    return float(vals.max())


def support_values(curve: BoundaryCurve, lams) -> np.ndarray:
    """:func:`support_value` of ``curve`` in each direction of ``lams``, in one pass.

    On a Pareto-sorted curve the maximizing vertex moves right as lambda
    grows, so the directions are solved by divide and conquer: the median
    direction scans its vertex range, and the directions below and above it
    scan only the vertices left and right of its maximizer.  In floating
    point that move holds only up to rounding: a vertex that wins a smaller
    direction comes within four rounding errors of ``lam * r1 + (1 - lam) *
    r2`` (each at most 2 eps times the largest coordinate) of the maximum of
    the median direction.  So the split keeps every vertex within ``tol`` of
    that maximum, eight times this bound, and each value is the very float
    :func:`support_value` returns.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1:
        raise ValueError("lambdas must be a 1-D sequence")
    if not np.all((lams >= 0.0) & (lams <= 1.0)):
        raise ValueError("lambda must lie in [0, 1]")
    r1, r2 = curve.points[:, 0], curve.points[:, 1]
    tol = 64.0 * np.finfo(float).eps * np.abs(curve.points).max()
    order = np.argsort(lams, kind="stable")
    out = np.empty(len(lams))

    def solve(a: int, b: int, lo: int, hi: int) -> None:
        # directions order[a:b] have their maximizers among vertices lo..hi
        if a >= b:
            return
        k = (a + b) // 2
        lam = lams[order[k]]
        vals = lam * r1[lo : hi + 1] + (1.0 - lam) * r2[lo : hi + 1]
        best = vals.max()
        out[order[k]] = best
        near = np.flatnonzero(vals >= best - tol)
        solve(a, k, lo, lo + near[-1])
        solve(k + 1, b, lo + near[0], hi)

    solve(0, len(lams), 0, len(r1) - 1)
    return out


def curve_gap(
    outer: BoundaryCurve,
    inner: BoundaryCurve,
    n_lambdas: int = 181,
) -> tuple[float, float, float]:
    """Support-value differences outer - inner over lam in {0, 1/(n-1), ..., 1}.

    Returns (min_gap, max_gap, at_lambda) where ``at_lambda`` is the sweep
    direction attaining ``min_gap`` (the containment-critical direction);
    min_gap >= -1e-9 certifies that ``inner`` lies inside ``outer`` at the
    swept directions.
    """
    lams = np.linspace(0.0, 1.0, n_lambdas)
    gaps = support_values(outer, lams) - support_values(inner, lams)
    i_min = int(np.argmin(gaps))
    return float(gaps[i_min]), float(gaps.max()), float(lams[i_min])
