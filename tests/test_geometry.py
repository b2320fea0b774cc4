import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from macfb import bounds, geometry
from macfb.bounds import RateConstraintSet, Region, RegionSpec, region_boundary
from macfb.geometry import (
    BoundaryCurve,
    EmptyInputError,
    RatePair,
    curve_gap,
    pareto_filter,
    support_value,
    support_values,
)
from macfb.infofn import f2

NOFB = RateConstraintSet(1.0, 1.0, 1.5)


class TestParetoFilter:
    def test_mutually_nondominated(self):
        curve = pareto_filter([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)])
        assert len(curve) == 3

    def test_dominated_point_removed(self):
        curve = pareto_filter([(1.0, 1.0), (0.5, 0.5)])
        assert curve.points.tolist() == [[1.0, 1.0]]

    def test_pentagon_corners(self):
        curve = pareto_filter(NOFB.corners())
        assert curve.points.tolist() == [[0.5, 1.0], [1.0, 0.5]]

    def test_idempotent(self, rng):
        pts = rng.uniform(0.0, 1.0, (500, 2))
        once = pareto_filter(pts)
        twice = pareto_filter(once.points)
        assert np.array_equal(once.points, twice.points)

    def test_order_independent(self, rng):
        pts = rng.uniform(0.0, 1.0, (500, 2))
        a = pareto_filter(pts)
        b = pareto_filter(pts[rng.permutation(len(pts))])
        assert np.array_equal(a.points, b.points)

    def test_duplicates_collapse(self):
        curve = pareto_filter([(0.5, 0.5), (0.5, 0.5), (0.2, 0.9)])
        assert curve.points.tolist() == [[0.2, 0.9], [0.5, 0.5]]

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            pareto_filter([])

    def test_output_is_pareto_ordered(self, rng):
        pts = rng.uniform(0.0, 1.0, (2000, 2))
        curve = pareto_filter(pts)
        assert np.all(np.diff(curve.points[:, 0]) > 0)
        assert np.all(np.diff(curve.points[:, 1]) < 0)


def _assert_mask_exact(pts):
    np.testing.assert_array_equal(geometry._pareto_mask(pts), geometry._lexsort_mask(pts))


def _db_slices(grid_n):
    """Corner points of each w-slice of the dbpc1 sweep, as the sweep builds them."""
    g = np.linspace(0.0, 0.25, grid_n)
    u1, u2 = (x.ravel() for x in np.meshgrid(g, g, indexing="ij"))
    lo = f2(2.0 * u1, 2.0 * u2)
    fixed = bounds._db_fixed_caps(u1, u2, False)
    for w in np.linspace(0.0, 1.0, grid_n):
        yield bounds._corner_points(*bounds._db_caps(fixed, lo + w * (1.0 - (u1 + u2) - lo), False))


class TestParetoPrefilter:
    """The bin prefilter must leave the lexsort mask exactly as it is."""

    # few distinct coordinates, so duplicate points and tied r1 or r2 are common
    coords = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0])

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=400))
    def test_ties_and_duplicates(self, pts):
        _assert_mask_exact(np.array(pts, dtype=float))

    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1))
    def test_random_sets_with_repeats(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = np.round(rng.uniform(0.0, 1.0, (n, 2)), int(rng.integers(1, 4)))
        pts = np.concatenate([pts, pts[rng.integers(0, n, n // 3)]])
        _assert_mask_exact(pts)

    def test_single_point_and_zero_span(self, rng):
        _assert_mask_exact(np.array([[0.3, 0.7]]))
        for n in (2, 100, 5000):
            pts = np.column_stack([np.full(n, 0.4), rng.uniform(0.0, 1.0, n)])
            _assert_mask_exact(pts)
            assert geometry._pareto_mask(pts).sum() == 1

    def test_sizes_around_the_cutoffs(self, rng):
        cut = geometry._PREFILTER_MAX_ROWS
        small = 2 * geometry._PREFILTER_BIN_ROWS
        for n in (small - 1, small, small + 1, cut - 1, cut, cut + 1):
            pts = rng.uniform(0.0, 1.0, (n, 2))
            pts[:, 1] -= pts[:, 0] ** 2  # a frontier with many points near it
            _assert_mask_exact(pts)

    def test_non_finite_points(self, rng):
        pts = rng.uniform(0.0, 1.0, (1000, 2))
        for bad in ([np.inf, 0.5], [0.5, np.inf], [-np.inf, 0.5], [np.nan, 0.5], [0.5, np.nan]):
            _assert_mask_exact(np.concatenate([pts, [bad]]))

    def test_dbpc_sweep_corners(self):
        dropped = 0
        for pts in _db_slices(21):
            _assert_mask_exact(pts)
            dropped += len(pts) - len(geometry._prefilter(pts))
        assert dropped > 0


class TestBoundaryCurve:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BoundaryCurve(points=np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_rejects_dominated(self):
        with pytest.raises(ValueError):
            BoundaryCurve(points=np.array([[0.5, 0.5], [1.0, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BoundaryCurve(points=np.array([[-0.5, 1.0], [0.5, 0.5]]))

    def test_rate_pairs(self):
        curve = BoundaryCurve(points=np.array([[0.5, 1.0], [1.0, 0.5]]))
        assert curve.rate_pairs() == [RatePair(0.5, 1.0), RatePair(1.0, 0.5)]


class TestSupportValue:
    def test_nofb_pentagon_diagonal(self):
        assert support_value(pareto_filter(NOFB.corners()), 0.5) == 0.75

    def test_axis_directions(self):
        curve = pareto_filter(NOFB.corners())
        assert support_value(curve, 1.0) == 1.0
        assert support_value(curve, 0.0) == 1.0

    def test_lambda_domain(self):
        curve = pareto_filter(NOFB.corners())
        with pytest.raises(ValueError):
            support_value(curve, 1.5)

    def test_monotone_under_dominance(self, rng):
        inner = pareto_filter(rng.uniform(0.0, 0.5, (200, 2)))
        outer = pareto_filter(np.concatenate([inner.points * 1.1, inner.points]))
        for lam in np.linspace(0.0, 1.0, 11):
            assert support_value(outer, lam) >= support_value(inner, lam) - 1e-12

    def test_convex_in_lambda(self):
        # max of affine functions of lambda: midpoint value never exceeds the mean
        curve = pareto_filter(NOFB.corners())
        lams = np.linspace(0.0, 1.0, 41)
        vals = [support_value(curve, l) for l in lams]
        for i in range(1, len(lams) - 1):
            assert vals[i] <= (vals[i - 1] + vals[i + 1]) / 2 + 1e-12


def _assert_supports_exact(curve, lams):
    expected = np.array([support_value(curve, lam) for lam in lams])
    np.testing.assert_array_equal(support_values(curve, lams), expected)


class TestSupportValues:
    """The one-pass supports must be the very floats of the per-direction scan."""

    @given(st.integers(1, 2000), st.integers(0, 2**32 - 1))
    def test_random_pareto_curves(self, n, seed):
        rng = np.random.default_rng(seed)
        curve = pareto_filter(rng.uniform(0.0, 1.0, (n, 2)) ** rng.uniform(0.2, 3.0))
        lams = np.concatenate([rng.uniform(0.0, 1.0, 50), [0.0, 1.0, 0.5, 0.0]])
        _assert_supports_exact(curve, rng.permutation(lams))

    def test_dense_concave_curves(self):
        # near-ties between neighbouring vertices in every direction
        t = np.linspace(0.0, np.pi / 2, 100_001)
        for scale in (1.0, 0.37, 1e-3):
            curve = BoundaryCurve(points=scale * np.column_stack([np.sin(t), np.cos(t)]))
            _assert_supports_exact(curve, np.linspace(0.0, 1.0, 181))
            _assert_supports_exact(curve, np.linspace(0.0, 1.0, 301)[::-1])

    def test_dbpc_curves(self):
        for curve in bounds._dbpc_curves(21):
            _assert_supports_exact(curve, bounds.SWEEP_LAMBDAS)

    def test_one_point_curve(self):
        curve = BoundaryCurve(points=np.array([[0.3, 0.6]]))
        _assert_supports_exact(curve, [0.0, 1.0, 0.25, 0.25, 0.9])

    def test_empty_and_out_of_range_lambdas(self):
        curve = pareto_filter(NOFB.corners())
        assert support_values(curve, []).shape == (0,)
        for bad in ([1.5], [0.2, -0.1], [np.nan]):
            with pytest.raises(ValueError):
                support_values(curve, bad)


class TestCurveGap:
    def test_self_gap_zero(self):
        curve = pareto_filter(NOFB.corners())
        lo, hi, at = curve_gap(curve, curve)
        assert lo == 0.0 and hi == 0.0

    def test_feedback_region_contains_no_feedback_pentagon(self):
        fb = region_boundary(RegionSpec(Region.ERASURE_FB, 51))
        nofb = region_boundary(RegionSpec(Region.ERASURE_NOFB, 2))
        lo, hi, at = curve_gap(fb, nofb)
        assert lo >= -1e-9
        assert hi > 0.01  # feedback strictly enlarges the region

    def test_at_lambda_is_argmin(self):
        outer = pareto_filter([(1.0, 0.5), (0.5, 1.0)])
        inner = pareto_filter([(1.0, 0.4), (0.4, 1.0)])
        lo, hi, at = curve_gap(outer, inner)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert at in (0.0, 1.0)
