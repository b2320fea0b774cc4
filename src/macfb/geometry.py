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


#: inputs of more rows than this skip the bin prefilter: the large final
#: filters keep most of their rows, so it would only add memory there
_PREFILTER_MAX_ROWS = 200_000
#: average rows per r1-bin of the prefilter
_PREFILTER_BIN_ROWS = 16


def _prefilter(pts: np.ndarray) -> np.ndarray:
    """Indices of the rows of a finite (n, 2) array that no bin to their right dominates.

    Rows are binned by r1 into equal-width bins.  The bin index never
    decreases with r1, so every row of a bin strictly to the right has a
    strictly larger r1, and a row whose r2 is at most the largest r2 of such
    a bin is dominated.  Dropping those rows leaves the lexsort mask of the
    others unchanged: each dropped row has a kept row that sorts before it
    with an r2 at least as large.
    """
    r1, r2 = pts[:, 0], pts[:, 1]
    lo = r1.min()
    span = r1.max() - lo
    n_bins = len(pts) // _PREFILTER_BIN_ROWS
    if span == 0.0 or n_bins < 2:
        return np.arange(len(pts))
    bins = ((r1 - lo) * ((n_bins - 1) / span)).astype(np.intp)
    top = np.full(n_bins, -np.inf)
    np.maximum.at(top, bins, r2)
    # best r2 over the bins strictly to the right of each bin
    beyond = np.append(np.maximum.accumulate(top[::-1])[-2::-1], -np.inf)
    return np.flatnonzero(r2 > beyond[bins])


def _pareto_mask(pts: np.ndarray) -> np.ndarray:
    """Boolean mask of componentwise non-dominated rows of an (n, 2) array.

    Equal to :func:`_lexsort_mask`; inputs of at most ``_PREFILTER_MAX_ROWS``
    finite rows are first thinned by :func:`_prefilter`.
    """
    if len(pts) > _PREFILTER_MAX_ROWS or not np.isfinite(pts).all():
        return _lexsort_mask(pts)
    keep = _prefilter(pts)
    mask = np.zeros(len(pts), dtype=bool)
    mask[keep] = _lexsort_mask(pts[keep])
    return mask


def pareto_filter(points: Iterable | np.ndarray, label: str = "") -> BoundaryCurve:
    """Retain exactly the componentwise non-dominated points, sorted by r1."""
    pts = np.atleast_2d(np.asarray(list(points) if not isinstance(points, np.ndarray) else points, dtype=float))
    if pts.size == 0:
        raise EmptyInputError("cannot Pareto-filter an empty point set")
    kept = pts[_pareto_mask(pts)]
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
