import ast
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from macfb import _search, bounds, geometry
from macfb.bounds import (
    SWEEP_LAMBDAS,
    RateConstraintSet,
    Region,
    RegionSpec,
    cover_leung_constraints,
    cover_leung_witness,
    db_pc1_constraints,
    db_pc2_constraints,
    erasure_fb_constraints,
    erasure_fb_constraints_at_triple,
    erasure_fb_witness,
    erasure_nofb_constraints,
    region_boundary,
)
from macfb._budget import BudgetExceededError
from macfb.channel import Channel, info_quantities
from macfb.feasible import InvalidTripleError, UTriple, lower_face_u2, sample_triple_rows, u_triple_of
from macfb import _kernels, oracle
from macfb.geometry import pareto_filter, support_value, support_values
from macfb.infofn import DomainError, binary_entropy, f2, mu_fn, phi

LOG2_3 = math.log2(3.0)
H_QUARTER = 2.0 - 0.75 * LOG2_3  # h(1/4)
BALANCE = UTriple(0.086063, 0.218333, 0.355899)


class TestRateConstraintSet:
    def test_corners_contains_support(self):
        caps = RateConstraintSet(1.0, 1.0, 1.5)
        assert set(caps.corners()) == {(1.0, 0.0), (0.0, 1.0), (1.0, 0.5), (0.5, 1.0)}
        assert caps.contains(0.7, 0.7)
        assert not caps.contains(0.8, 0.8)
        assert caps.support(0.5) == 0.75

    @pytest.mark.parametrize("lam", [1.5, -0.5, math.nan])
    def test_support_rejects_lambda_outside_the_unit_interval(self, lam):
        # at 1.5 the corner formulas gave 1.25, but 1.5 R1 - 0.5 R2 peaks at 1.5, at (1, 0)
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\]"):
            RateConstraintSet(1.0, 1.0, 1.5).support(lam)

    def test_box_only_when_sum_is_slack(self):
        caps = RateConstraintSet(0.3, 0.4, 5.0)
        assert (0.3, 0.4) in set(caps.corners())
        assert caps.support(0.5) == pytest.approx(0.35)

    def test_absent_caps(self):
        caps = RateConstraintSet(None, 1.0, None)
        assert caps.contains(100.0, 1.0)
        with pytest.raises(ValueError):
            caps.corners()

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            RateConstraintSet(-0.5, 1.0, 1.0)

    def test_dominates(self):
        big = RateConstraintSet(1.0, 1.0, 1.5)
        small = RateConstraintSet(0.5, 0.5, 1.0)
        assert big.dominates(small)
        assert not small.dominates(big)
        assert big.dominates(RateConstraintSet(1.0, None, 1.5)) is False


class TestDbPcConstraints:
    def test_box_corner_triple(self):
        caps = db_pc1_constraints(UTriple(0.25, 0.25, 0.5))
        assert caps.r1_max == pytest.approx(0.5, abs=1e-12)
        assert caps.r2_max == pytest.approx(0.5, abs=1e-12)
        assert caps.sum_max == pytest.approx(H_QUARTER, abs=1e-12)

    def test_degenerate_triple(self):
        caps = db_pc1_constraints(UTriple(0.0, 0.0, 0.0))
        assert caps.r1_max == 0.0
        assert caps.r2_max == 0.0
        assert caps.sum_max == pytest.approx(1.0, abs=1e-12)

    def test_balance_point(self):
        caps = db_pc1_constraints(BALANCE)
        assert caps.r1_max == pytest.approx(0.45330, abs=1e-4)
        assert caps.r2_max == pytest.approx(0.45330, abs=1e-4)
        assert caps.sum_max == pytest.approx(2 * 0.45330, abs=1e-4)

    def test_mirror_symmetry(self, rng):
        for t in map(UTriple, *sample_triple_rows(100, rng)):
            a = db_pc1_constraints(t)
            b = db_pc2_constraints(UTriple(t.u2, t.u1, t.u))
            assert a.r1_max == pytest.approx(b.r2_max, abs=1e-14)
            assert a.r2_max == pytest.approx(b.r1_max, abs=1e-14)
            assert a.sum_max == pytest.approx(b.sum_max, abs=1e-14)

    def test_outside_P_rejected(self):
        with pytest.raises(InvalidTripleError):
            db_pc1_constraints(UTriple(0.25, 0.25, 0.4))
        with pytest.raises(InvalidTripleError):
            db_pc2_constraints(UTriple(0.3, 0.0, 0.5))


class TestCoverLeung:
    def test_degenerate(self):
        caps = cover_leung_constraints(0.0, 0.0)
        assert (caps.r1_max, caps.r2_max, caps.sum_max) == (0.0, 0.0, 1.0)

    def test_box_corner(self):
        caps = cover_leung_constraints(0.25, 0.25)
        assert caps.r1_max == pytest.approx(0.5, abs=1e-12)
        assert caps.r2_max == pytest.approx(0.5, abs=1e-12)
        assert caps.sum_max == pytest.approx(H_QUARTER, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            cover_leung_constraints(0.3, 0.1)

    def test_witness_summary_statistics(self, rng):
        for u1, u2 in rng.uniform(0.0, 0.25, (100, 2)):
            t = u_triple_of(cover_leung_witness(u1, u2))
            assert t.u1 == pytest.approx(u1, abs=1e-12)
            assert t.u2 == pytest.approx(u2, abs=1e-12)
            assert t.u == pytest.approx(f2(2 * u1, 2 * u2), abs=1e-12)

    def test_witness_structure(self):
        d = cover_leung_witness(0.1, 0.2)
        assert np.allclose(d.p_t, [0.5, 0.5])
        assert d.q1[0] == pytest.approx(1 - d.q1[1], abs=1e-15)


class TestErasure:
    def test_box_corner_gives_no_feedback_pentagon(self):
        caps = erasure_fb_constraints(0.25, 0.25)
        assert (caps.r1_max, caps.r2_max) == (pytest.approx(1.0), pytest.approx(1.0))
        assert caps.sum_max == pytest.approx(1.5, abs=1e-12)

    def test_degenerate(self):
        caps = erasure_fb_constraints(0.0, 0.0)
        assert (caps.r1_max, caps.r2_max, caps.sum_max) == (0.0, 0.0, 1.0)

    def test_peak_sum_cap(self):
        # f2(2u, 2u) = 2u, so u = 1/6 puts the sum cap at its peak log2(3)
        caps = erasure_fb_constraints(1 / 6, 1 / 6)
        assert caps.sum_max == pytest.approx(LOG2_3, abs=1e-12)

    def test_triple_form_matches_pair_form_on_lower_face(self, rng):
        for u1, u2 in rng.uniform(0.0, 0.25, (50, 2)):
            t = UTriple(u1, u2, f2(2 * u1, 2 * u2))
            a = erasure_fb_constraints_at_triple(t)
            b = erasure_fb_constraints(u1, u2)
            assert a.r1_max == b.r1_max and a.r2_max == b.r2_max
            assert a.sum_max == pytest.approx(b.sum_max, abs=1e-12)

    def test_no_feedback_pentagon(self):
        caps = erasure_nofb_constraints()
        assert (caps.r1_max, caps.r2_max, caps.sum_max) == (1.0, 1.0, 1.5)

    def test_witness_matches_cover_leung_construction(self):
        assert erasure_fb_witness is cover_leung_witness

    @pytest.mark.parametrize("bad", [0.3, -0.1, float("nan")])
    def test_witness_rejects_a_pair_outside_S(self, bad):
        for witness in (cover_leung_witness, erasure_fb_witness):
            with pytest.raises(DomainError, match="^u1 "):
                witness(bad, 0.1)
            with pytest.raises(DomainError, match="^u2 "):
                witness(0.1, bad)

    def test_witness_rows_are_the_scalar_witnesses(self, rng):
        pairs = np.concatenate([[[0.0, 0.0], [0.25, 0.25], [0.25, 0.0]], rng.uniform(0.0, 0.25, (997, 2))])
        rows = bounds._binary_t_witness_rows(*pairs.T)
        assert all(a.shape == (1000, 2) for a in rows)
        for i, (u1, u2) in enumerate(pairs):
            d = bounds.cover_leung_witness(u1, u2)
            for name, a in zip(("p_t", "q1", "q2"), rows):
                np.testing.assert_array_equal(a[i], getattr(d, name), strict=True)


class TestSoundness:
    def test_true_pentagons_inside_closed_form(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 3))
            d_p = rng.dirichlet(np.ones(k))
            from macfb.channel import JointInputDistribution

            d = JointInputDistribution(d_p, rng.uniform(size=k), rng.uniform(size=k))
            t = u_triple_of(d)
            qn = info_quantities(Channel.NOISY_ADDITIVE, d)
            qe = info_quantities(Channel.ERASURE, d)
            caps1 = db_pc1_constraints(t)
            assert min(qn.i_x1_y_given_x2, qn.h_x1_given_t) <= caps1.r1_max + 1e-10
            assert 0.5 * qn.h_x2_given_t <= caps1.r2_max + 1e-10
            assert qn.i_x1x2_y <= caps1.sum_max + 1e-10
            capse = erasure_fb_constraints_at_triple(t)
            assert qe.h_y <= capse.sum_max + 1e-10


class TestRegionBoundaries:
    def test_erasure_nofb_curve(self):
        curve = region_boundary(RegionSpec(Region.ERASURE_NOFB, 2))
        assert curve.points.tolist() == [[0.5, 1.0], [1.0, 0.5]]

    def test_grid_n_validation(self):
        with pytest.raises(ValueError):
            RegionSpec(Region.CUTSET, 1)
        # an integer, checked here, not first by np.linspace or a comparison inside a solve
        for grid_n in (20.5, "21", True):
            with pytest.raises(ValueError, match=re.escape(f"grid_n must be an integer of at least 2, got {grid_n!r}")):
                RegionSpec(Region.COVER_LEUNG, grid_n)

    def test_which_must_be_a_region(self):
        # a region's name is not a Region: region_boundary would call it unknown
        with pytest.raises(ValueError, match="which must be a Region, got 'cutset'"):
            RegionSpec("cutset")

    def test_a_numpy_integer_grid_n(self):
        curve = region_boundary(RegionSpec(Region.COVER_LEUNG, np.int64(21)))
        np.testing.assert_array_equal(curve.points, region_boundary(RegionSpec(Region.COVER_LEUNG, 21)).points)

    def test_cutset_axis_support(self, cutset_curve):
        # with one input known, the other carries at most half a bit
        assert support_value(cutset_curve, 1.0) == pytest.approx(0.5, abs=1e-9)
        assert support_value(cutset_curve, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_cutset_symmetric_support(self, cutset_curve):
        assert support_value(cutset_curve, 0.5) == pytest.approx(0.45915, abs=1e-4)

    def test_dbpc_mirror_regions(self):
        c1 = region_boundary(RegionSpec(Region.DBPC1, 41))
        c2 = region_boundary(RegionSpec(Region.DBPC2, 41))
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert support_value(c1, lam) == pytest.approx(support_value(c2, 1 - lam), abs=1e-12)

    def test_dbpc2_is_mirrored_dbpc1(self):
        c1 = region_boundary(RegionSpec(Region.DBPC1))
        c2 = region_boundary(RegionSpec(Region.DBPC2))
        np.testing.assert_array_equal(c2.points, c1.points[::-1, ::-1])
        assert (c1.label, c2.label) == ("dbpc1", "dbpc2")

    def test_cover_leung_curve_is_hulled(self, cl_curve):
        pts = cl_curve.points
        # concavity of the frontier: each interior point on or above its chord
        for i in range(1, len(pts) - 1):
            x0, y0 = pts[i - 1]
            x1, y1 = pts[i]
            x2, y2 = pts[i + 1]
            chord = y0 + (y2 - y0) * (x1 - x0) / (x2 - x0)
            assert y1 >= chord - 1e-9

    def test_dbpc_symmetric_support_matches_balance_point(self, dbpc_curve):
        assert support_value(dbpc_curve, 0.5) == pytest.approx(0.45330, abs=1e-4)

    def test_erasure_fb_small_grid_sane(self):
        curve = region_boundary(RegionSpec(Region.ERASURE_FB, 51))
        assert support_value(curve, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert support_value(curve, 0.5) == pytest.approx(0.791132, abs=1e-3)

    def test_sweep_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setenv("MACFB_BUDGET", "23")
        assert len(region_boundary(RegionSpec(Region.ERASURE_FB, 23)).points) > 0
        with pytest.raises(BudgetExceededError, match="curve of 24 evaluations exceeds budget 23"):
            region_boundary(RegionSpec(Region.ERASURE_FB, 24))

    @pytest.mark.parametrize("grid_n", [21, 201])
    @pytest.mark.parametrize("which", ["cover-leung", "erasure-fb"])
    def test_inner_curve_reaches_its_grid(self, which, grid_n):
        # the region contains the best corner of the family's own
        # grid_n x grid_n grid in every direction, between the 181 too
        stage_of, x_hi, _ = bounds._FAMILIES[which]
        g = np.linspace(0.0, x_hi, grid_n)
        u1, u2 = (v.ravel() for v in np.meshgrid(g, g))
        lams = np.linspace(0.0, 1.0, 3601)
        curve = region_boundary(RegionSpec(Region(which), grid_n))
        assert (support_values(curve, lams) - _grid_supports(*stage_of(u1)(u2), lams)).min() >= -1e-12

    @pytest.mark.parametrize("grid_n", [21, 201])
    @pytest.mark.parametrize("which", ["cover-leung", "erasure-fb"])
    def test_inner_region_is_symmetric(self, which, grid_n):
        # both families are symmetric under swapping the users, and so is
        # the region: its support in direction lam is that in 1 - lam, up to
        # rounding
        lams = np.linspace(0.0, 1.0, 3601)
        support = support_values(region_boundary(RegionSpec(Region(which), grid_n)), lams)
        np.testing.assert_allclose(support, support[::-1], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("grid_n", [21, 201])
    @pytest.mark.parametrize("which", ["cover-leung", "erasure-fb"])
    def test_inner_curve_holds_the_golden_section_solve(self, which, grid_n):
        # on a flat optimum the outer search fixes u1 only to about 1e-7, so a
        # solve whose inner search differs in its last bits stops elsewhere:
        # golden section inside put the solved u1 up to 1.03e-7 away.  At
        # lam = 0 and 1 one weight is 0 and the optimum is not unique, so u1
        # is compared only between them.  The region holds the corners and
        # their mirror within 1e-12 in every direction, and is no lower at
        # the sweep directions
        stage_of, x_hi, _ = bounds._FAMILIES[which]
        x, y, f = _solve_caps(stage_of, x_hi, SWEEP_LAMBDAS)
        inside = (SWEEP_LAMBDAS > 0.0) & (SWEEP_LAMBDAS < 1.0)
        assert np.abs(x - bounds._solution(which)[0])[inside].max() <= bounds._FLANK
        corners = bounds._corner_points(*stage_of(x)(y))
        golden = pareto_filter(np.concatenate([corners, corners[:, ::-1]]))
        curve = region_boundary(RegionSpec(Region(which), grid_n))
        lams = np.linspace(0.0, 1.0, 3601)
        drop = support_values(curve, lams) - support_values(golden, lams)
        assert drop.min() >= -1e-12, drop.min()
        assert np.all(support_values(curve, SWEEP_LAMBDAS) >= f)


# Support of every region at grid 21, at every 10th of the 181 sweep
# directions.  Most values are those of the per-direction scalar Nelder-Mead
# refinement (scipy.optimize.minimize) that this package used before; the
# nested golden-section solve lies at most 3.3e-13 below them anywhere.  The
# dbpc1 values at k = 10 and 20, dbpc2 at k = 160 and 170 and dbpc at all four
# are the solve's own: the old refinement stopped short of them by up to
# 9.0e-5.  The solve does not depend on grid_n, so grid 21 runs all of it.
FROZEN_SUPPORTS_21 = {
    "cutset": [
        0.5000000000000009, 0.48987825490598724, 0.4806089919196736,
        0.47243895125469076, 0.465724616478313, 0.46100507770570054,
        0.4591479170272451, 0.4591479170272451, 0.459147917027245,
        0.459147917027245, 0.459147917027245, 0.4591479170272451,
        0.4591479170272451, 0.46100507770570065, 0.4657246164783129,
        0.47243895125469065, 0.4806089919196735, 0.48987825490598713,
        0.5000000000000009,
    ],
    "dbpc1": [
        0.5, 0.489800754400129, 0.48026806562509894,
        0.47158779238935794, 0.46402744608890556, 0.45799100814486043,
        0.45413003657070733, 0.45355925175033396, 0.45464813719405756,
        0.45573702263778115, 0.4568259080815048, 0.4579147935252284,
        0.459003678968952, 0.4610050777057002, 0.46572461647831265,
        0.47243895125469026, 0.4806089919196731, 0.48987825490598663,
        0.5,
    ],
    "dbpc2": [
        0.5, 0.4898782549059866, 0.48060899191967305,
        0.4724389512546902, 0.46572461647831265, 0.4610050777057002,
        0.459003678968952, 0.45791479352522846, 0.4568259080815048,
        0.45573702263778115, 0.4546481371940575, 0.45355925175033396,
        0.45413003657070733, 0.45799100814486043, 0.46402744608890556,
        0.4715877923893579, 0.48026806562509894, 0.48980075440012905,
        0.5,
    ],
    "dbpc": [
        0.5, 0.48980075440012966, 0.48026806562509944,
        0.47158779238935983, 0.46402744608890656, 0.4579910081448597,
        0.4541300365707084, 0.4533027829181226, 0.45330278291812254,
        0.45330278291812254, 0.45330278291812254, 0.45330278291812254,
        0.45413003657070716, 0.4579910081448597, 0.46402744608890567,
        0.47158779238935716, 0.48026806562509966, 0.4898007544001298,
        0.5,
    ],
    "cover-leung": [
        0.5, 0.48968657268068605, 0.47976768197012853,
        0.4703412502709555, 0.4615401848233912, 0.45354819451970885,
        0.44662220471869957, 0.44111799864534396, 0.4374939474579699,
        0.4362146699282341, 0.4374939474579699, 0.4411179986453439,
        0.4466222047186996, 0.45354819451970885, 0.4615401848233912,
        0.4703412502709555, 0.4797676819701285, 0.48968657268068605,
        0.5,
    ],
    "erasure-fb": [
        1.0, 0.9723966837279777, 0.9451972385165095,
        0.9185067113856885, 0.8924735402251941, 0.8673173644332712,
        0.8433849240693531, 0.8212813599762651, 0.8022777840917683,
        0.7911324902345477, 0.8022777840917683, 0.8212813599762651,
        0.8433849240693531, 0.8673173644332712, 0.8924735402251941,
        0.9185067113856891, 0.945197238517476, 0.9723966837279776,
        1.0,
    ],
    "erasure-nofb": [
        1.0, 0.9722222222222222, 0.9444444444444444,
        0.9166666666666666, 0.888888888888889, 0.8611111111111112,
        0.8333333333333333, 0.8055555555555556, 0.7777777777777778,
        0.75, 0.7777777777777778, 0.8055555555555556,
        0.8333333333333334, 0.8611111111111112, 0.8888888888888888,
        0.9166666666666667, 0.9444444444444444, 0.9722222222222223,
        1.0,
    ],
}


# test id -> solver family
BATCH_FAMILIES = {"cutset": "cutset", "dbpc": "dbpc1", "cover-leung": "cover-leung", "erasure-fb": "erasure-fb"}

#: the user-symmetric families, whose r1 cap does not saturate, solved along Gamma
CROSSING_FAMILIES = ["cover-leung", "erasure-fb"]

#: the upper end of each family's y: u2 in [0, 1/4], or the cut-set joint's y in [0, 1]
Y_HI = {"cutset": 1.0, "dbpc1": 0.25, "cover-leung": 0.25, "erasure-fb": 0.25}


def _solve_caps(stage_of, x_hi, lams, y_hi=0.25):
    """The solve, by golden section at both levels, of staged caps ``stage_of`` in the directions ``lams``.

    Each outer call runs one inner golden section over y = y_hi t, t in [0, 1], whose maximizer
    travels with the value.
    """
    n = len(lams)

    def best_y(x):
        caps, lam = stage_of(x.ravel()), np.tile(lams, len(x))  # x holds the problems' points in turn
        t, f = _search._golden_max(
            lambda t: bounds._support_of_caps(caps(y_hi * t), lam, 1.0 - lam), np.zeros(x.size), np.ones(x.size)
        )
        return np.stack([f, y_hi * t]).reshape(2, *x.shape)

    x, (f, y) = _search._golden_max(best_y, np.zeros(n), np.full(n, x_hi))
    return x, y, f


def _solve(family, rows):
    """Solve the sweep directions ``rows`` of a family on their own."""
    return bounds._solve_family(family, SWEEP_LAMBDAS[rows])


def _plain_golden_max(fun, lo, hi, tol=_search._TOL):
    """Golden section one step per call: the reference the lookahead search must reproduce bitwise.

    Like the search, it carries the rows of a stacked output of ``fun`` after the first (the objective).
    Each call evaluates one point of every problem, as a one-row ``(1, n)`` array; a problem whose
    bracket is done repeats its point ``c``, which it has visited.
    """
    gold = _search._GOLD
    every = np.arange(len(lo))
    flat = np.ndim(fun(lo[None])) == 2

    def at(x):
        return np.atleast_2d(fun(x[None])[..., 0, :]).copy()

    a, b = lo.copy(), hi.copy()
    c = b - gold * (b - a)
    d = a + gold * (b - a)
    vc, vd = at(c), at(d)
    act = np.flatnonzero(b - a > tol)
    while act.size:
        left = vc[0, act] >= vd[0, act]
        l, r = act[left], act[~left]
        b[l], d[l], vd[:, l] = d[l], c[l], vc[:, l]
        c[l] = b[l] - gold * (b[l] - a[l])
        a[r], c[r], vc[:, r] = c[r], d[r], vd[:, r]
        d[r] = a[r] + gold * (b[r] - a[r])
        x = c.copy()
        x[r] = d[r]
        v = at(x)
        vc[:, l], vd[:, r] = v[:, l], v[:, r]
        act = act[b[act] - a[act] > tol]
    xs = np.stack([c, d, lo, hi])
    vs = np.stack([vc, vd, at(lo), at(hi)])
    k = np.argmax(vs[:, 0], axis=0)
    best = vs[k, :, every].T
    return xs[k, every], best[0] if flat else best


def _grid_supports(a, b, c, lams=SWEEP_LAMBDAS):
    """Best pentagon support over grid caps (a, b, c) in each direction of ``lams``."""
    x_max, y_max = np.minimum(a, c), np.minimum(b, c)
    y_at_x = np.maximum(np.minimum(b, c - x_max), 0.0)
    x_at_y = np.maximum(np.minimum(a, c - y_max), 0.0)
    r1, r2 = np.concatenate([x_max, x_at_y]), np.concatenate([y_at_x, y_max])
    # a corner that an earlier one (larger r1, then larger r2) dominates is
    # never the only best, and rounding keeps that order, so drop it
    order = np.lexsort((-r2, -r1))
    r1, r2 = r1[order], r2[order]
    front = r2 > np.maximum.accumulate(np.concatenate([[-np.inf], r2[:-1]]))
    r1, r2 = r1[front], r2[front]
    return np.array([np.max(lam * r1 + (1.0 - lam) * r2) for lam in lams])


def _box(n, hi):
    g = np.linspace(0.0, hi, n)
    return (x.ravel() for x in np.meshgrid(g, g, indexing="ij"))


def _dbpc1_grid_caps():
    """dbpc1 caps on a 41^3 grid over P in (u1, u2, u)."""
    u1, u2 = _box(41, 0.25)
    w = np.linspace(0.0, 1.0, 41)[:, None]
    lo = f2(2.0 * u1, 2.0 * u2)
    u = (lo + w * (1.0 - (u1 + u2) - lo)).ravel()
    return _old_db_caps(np.tile(u1, 41), np.tile(u2, 41), u)


def _cutset_grid_caps():
    """Cut-set caps on the 31-lattice of full 4-atom joints."""
    stats = _kernels.cutset_stats(np.concatenate(list(oracle._simplex_lattice(4, 31))))
    return stats[:, 0], stats[:, 1], stats[:, 2]


def _cover_leung_grid_caps():
    """Cover-Leung caps on a 101^2 grid of the (u1, u2) box."""
    u1, u2 = _box(101, 0.25)
    return (
        0.5 * binary_entropy(phi(2.0 * u1)),
        0.5 * binary_entropy(phi(2.0 * u2)),
        binary_entropy((1.0 - f2(2.0 * u1, 2.0 * u2)) / 2.0),
    )


def _erasure_grid_caps():
    """Pair-form erasure feedback caps on a 101^2 grid of the (u1, u2) box."""
    u1, u2 = _box(101, 0.25)
    return binary_entropy(phi(2.0 * u1)), binary_entropy(phi(2.0 * u2)), mu_fn(f2(2.0 * u1, 2.0 * u2))


GRID_CAPS = {
    "dbpc1": _dbpc1_grid_caps,
    "cutset": _cutset_grid_caps,
    "cover-leung": _cover_leung_grid_caps,
    "erasure-fb": _erasure_grid_caps,
}


def _toy_parabolas(lo=-1.0, hi=2.0):
    """Concave parabolas on one bracket [lo, hi], peaking inside it, on both ends and beyond both ends."""
    # each peak as a fraction of the bracket; with several inside, one step
    # more or less than plain golden section moves some problem's result
    at = np.array([0.1, 0.5, 0.9, 1 / 3, 1 / 7, 0.6, 0.0, 1.0, -0.25, 1.25])
    lo, hi = np.full(at.size, lo), np.full(at.size, hi)
    peak = lo + (hi - lo) * at

    def fun(x):
        return -((x - peak) ** 2)

    return lo, hi, fun, peak


def _assert_is_plain_golden_section(lo, hi, fun):
    """``_search._golden_max`` gives the bits of :func:`_plain_golden_max` at ``_TOL`` and visits every point it visits."""

    def recorded(seen):
        def f(x):
            # (problem, point) pairs: problem j is column j of x
            seen.update((j, v) for row in x.tolist() for j, v in enumerate(row))
            return fun(x)

        return f

    looked, plain = set(), set()
    got = _search._golden_max(recorded(looked), lo, hi)
    want = _plain_golden_max(recorded(plain), lo, hi, _search._TOL)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    # every point plain golden section visits, bit for bit
    assert plain <= looked, sorted(plain - looked)[:5]


def _assert_import_does_not_load(module: str):
    code = f"import macfb, sys; assert {module!r} not in sys.modules, '{module} imported'"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


class TestRefinement:
    def test_import_does_not_load_scipy(self):
        _assert_import_does_not_load("scipy")

    def test_import_does_not_load_multiprocessing(self):
        # only an oracle sweep of _SHARD_MIN_ROWS rows or more imports it
        _assert_import_does_not_load("multiprocessing")

    def test_search_imports_nothing_from_macfb(self):
        # the solver knows nothing of caps, regions or the rest of the package
        tree = ast.parse(Path(_search.__file__).read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        imported += [
            "." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        ]
        assert imported, "no imports found"
        assert not [m for m in imported if m.startswith(".") or m.split(".")[0] == "macfb"], imported

    @pytest.mark.parametrize("region", sorted(FROZEN_SUPPORTS_21))
    def test_supports_match_frozen_values(self, region):
        curve = region_boundary(RegionSpec(Region(region), 21))
        got = np.array([support_value(curve, lam) for lam in SWEEP_LAMBDAS[::10]])
        frozen = np.array(FROZEN_SUPPORTS_21[region])
        # same tolerances as the benchmark gate: no drop, no gross rise
        assert np.all(got >= frozen - 1e-12), (got - frozen).min()
        assert np.all(got <= frozen + 1e-3), (got - frozen).max()

    def test_dbpc1_reaches_witness(self):
        # a triple on P's lower face with u2 just below 1/4, where the old
        # refinement stopped 8.9e-5 short
        lam = 10 / 180
        t = UTriple(0.0551, 0.2498, f2(0.1102, 0.4996))
        assert db_pc1_constraints(t).support(lam) == pytest.approx(0.48980041, abs=1e-8)
        assert support_value(region_boundary(RegionSpec(Region.DBPC1, 21)), lam) >= 0.48980041

    @pytest.mark.parametrize("family", sorted(GRID_CAPS))
    def test_solution_beats_independent_grid(self, family):
        got = bounds._solution(family)[2]
        best = _grid_supports(*GRID_CAPS[family]())
        assert np.all(got >= best - 1e-12), (got - best).min()

    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    def test_batch_reversed_is_bitwise_identical(self, name):
        family = BATCH_FAMILIES[name]
        rows = np.arange(len(SWEEP_LAMBDAS))[::-1]
        for got, full in zip(_solve(family, rows), bounds._solution(family)):
            np.testing.assert_array_equal(got, full[rows])

    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    def test_batch_subset_is_bitwise_identical(self, name):
        family = BATCH_FAMILIES[name]
        solution = bounds._solution(family)
        for rows in ([180, 0, 90, 10, 37, 170, 5], [10]):
            for got, full in zip(_solve(family, np.array(rows)), solution):
                np.testing.assert_array_equal(got, full[rows])

    def test_toy_optimum_on_box_face(self):
        lo, hi, fun, peak = _toy_parabolas()
        x, f = _search._golden_max(fun, lo, hi)
        best = np.clip(peak, lo, hi)
        at_end = (best == lo) | (best == hi)
        np.testing.assert_array_equal(x[at_end], best[at_end])
        np.testing.assert_array_equal(f[at_end], fun(best)[at_end])
        np.testing.assert_allclose(x, best, atol=1e-7)
        np.testing.assert_allclose(f, fun(best), atol=1e-14)

    def test_empty_batch(self):
        # no problems: the search ends at once with no maximizers
        x, f = _search._golden_max(lambda x: -x, np.zeros(0), np.ones(0))
        assert x.shape == f.shape == (0,)

    def test_lookahead_matches_plain_golden_section(self, monkeypatch):
        _assert_is_plain_golden_section(*_toy_parabolas()[:3])
        # a bracket at most _TOL wide takes no step
        for lo, hi in ((0.2, 0.2), (0.0, 1e-11)):
            _assert_is_plain_golden_section(*_toy_parabolas(lo, hi)[:3])
        # a looser tolerance takes fewer steps
        monkeypatch.setattr(_search, "_TOL", 1e-3)
        _assert_is_plain_golden_section(*_toy_parabolas()[:3])

    @pytest.mark.parametrize("width", [1.0, 0.5, 0.25])
    def test_schedule_is_the_plain_stopping_rule(self, width):
        # the brackets the package searches, [0, 1] inner and [0, 1/2] or
        # [0, 1/4] outer: the steps fixed by the width are the steps after
        # which plain golden section's bracket first is at most _TOL
        _assert_is_plain_golden_section(*_toy_parabolas(0.0, width)[:3])

    def test_brackets_of_one_search_have_one_width(self):
        with pytest.raises(ValueError, match="one width"):
            _search._golden_max(lambda x: -x, np.zeros(2), np.array([1.0, 0.5]))

    def test_solution_matches_plain_golden_section(self, monkeypatch):
        # the families whose every golden section is checked: cutset over s
        # alone, in one search, and dbpc1 in two, over u1 along Gamma and
        # over u along arc A
        for family, golden_searches in (("cutset", 1), ("dbpc1", 2)):
            searches = 0

            def plain(fun, lo, hi):
                nonlocal searches
                searches += 1
                return _plain_golden_max(fun, lo, hi)

            monkeypatch.setattr(_search, "_golden_max", plain)
            want = bounds._solve_family(family, SWEEP_LAMBDAS)
            monkeypatch.undo()
            assert searches == golden_searches, searches
            for got, w in zip(bounds._solution(family), want):
                np.testing.assert_array_equal(got, w)

    @pytest.mark.parametrize("family", sorted(bounds._FAMILIES))
    def test_solve_carries_the_inner_maximizer(self, family):
        # y and the value travel with x through the outer search; Gamma's
        # root re-taken at the returned x gives the same bits.  The cut-set
        # inner maximizer is y = 1/2 (bounds._cutset_caps), and the value is
        # the support there
        stage_of = bounds._FAMILIES[family][0]
        x, y, f = bounds._solution(family)
        n = len(x)
        if family == "dbpc1":
            # a direction keeps its point on Gamma, the root of h(phi(2 u1)) +
            # b - c, or on arc A, where r1 is saturated at h(u)/2 and the sum
            # cap is active.  Gamma held the 85 directions below 0.472 and
            # lam = 1, arc A the other 95
            y_again, caps = bounds._on_gamma(stage_of, x, bounds._h_phi)
            f_again = bounds._support_of_caps(caps, SWEEP_LAMBDAS, 1.0 - SWEEP_LAMBDAS)
            on_gamma = (y_again == y) & (f_again == f)
            a, b, c = stage_of(x)(y)
            on_arc = (bounds._h_phi(x) >= binary_entropy(f2(2.0 * x, 2.0 * y)) / 2.0) & (a + b >= c - 1e-11)
            assert np.all(on_gamma | on_arc)
            assert on_gamma[SWEEP_LAMBDAS < 0.383].all()
            assert on_arc[(SWEEP_LAMBDAS >= 0.5) & (SWEEP_LAMBDAS < 1.0)].all()
            return
        if family == "cutset":
            np.testing.assert_array_equal(y, np.full(n, 0.5))
            support = bounds._support_of_caps(stage_of(x)(0.5), SWEEP_LAMBDAS, 1.0 - SWEEP_LAMBDAS)
            np.testing.assert_array_equal(f.view(np.uint64), support.view(np.uint64))
            return
        # a direction below 1/2 was solved with the users swapped, in the weights (1 - lam, lam)
        swapped = bounds._swapped(SWEEP_LAMBDAS)
        x, y = np.where(swapped, y, x), np.where(swapped, x, y)
        y_again, caps = bounds._on_gamma(stage_of, x)
        lam, rest = SWEEP_LAMBDAS, 1.0 - SWEEP_LAMBDAS
        support = bounds._support_of_caps(caps, np.where(swapped, rest, lam), np.where(swapped, lam, rest))
        np.testing.assert_array_equal(y, y_again)
        np.testing.assert_array_equal(f, support)

    @pytest.mark.parametrize("family", CROSSING_FAMILIES)
    def test_solved_corners_are_points_of_the_face(self, family):
        # Gamma is written once (bounds._on_gamma): at each solved u1, before
        # the swap back, it gives the solved y bit for bit, so every solved
        # corner is a point of the inner region's face set, the corners at
        # Gamma's points and their mirror
        stage_of = bounds._FAMILIES[family][0]
        x, y, _ = bounds._solution(family)
        swapped = bounds._swapped(SWEEP_LAMBDAS)
        u1, y_solved = np.where(swapped, y, x), np.where(swapped, x, y)
        y_again, caps = bounds._on_gamma(stage_of, u1)
        np.testing.assert_array_equal(y_again.view(np.uint64), y_solved.view(np.uint64))
        face = bounds._corner_points(*caps)
        face = {tuple(p) for p in np.concatenate([face, face[:, ::-1]]).tolist()}
        assert {tuple(p) for p in bounds._solved_points(family).tolist()} <= face

    @pytest.mark.parametrize("family", ["dbpc1", *CROSSING_FAMILIES])
    def test_solve_beats_a_scan_of_gamma(self, family):
        # the golden section over u1 along Gamma takes each direction's
        # support there to be unimodal, which nothing proves (for dbpc1 it is
        # not); the solve still reaches the best of 2,001 points of Gamma in
        # every direction, in the weights it solves (the smallest margin was 0.0)
        stage_of, x_hi, _ = bounds._FAMILIES[family]
        r1 = bounds._h_phi if family == "dbpc1" else None
        _, caps = bounds._on_gamma(stage_of, np.linspace(0.0, x_hi, 2001), r1)
        lams = SWEEP_LAMBDAS if family == "dbpc1" else np.maximum(SWEEP_LAMBDAS, 1.0 - SWEEP_LAMBDAS)
        best = _grid_supports(*caps, lams)
        f = bounds._solution(family)[2]
        assert np.all(f >= best - 1e-12), (f - best).min()

    @pytest.mark.parametrize("family", sorted(bounds._FAMILIES))
    def test_solution_is_the_support_at_its_point(self, family):
        # every family's (x, y) is the solved point itself, the crossing
        # families' directions below 1/2 included: the support there is the
        # solved support, bit for bit
        stage_of = bounds._FAMILIES[family][0]
        x, y, f = bounds._solution(family)
        support = bounds._support_of_caps(stage_of(x)(y), SWEEP_LAMBDAS, 1.0 - SWEEP_LAMBDAS)
        np.testing.assert_array_equal(support.view(np.uint64), f.view(np.uint64))

    # plain golden section at both levels made 3,135-3,249 calls, and with
    # the lookahead 756 (27 outer calls of 28 inner calls each).  Cutset
    # makes 27 calls over s alone.  Along Gamma each of the 26 outer calls
    # runs the root finder over u2 and takes the caps at its root: 259 calls
    # for cover-leung and erasure-fb, and 307 for dbpc1, whose vertex V takes
    # 81 more (9 stages; u travels with its root) and arc A one, at its points
    CALLS = {"cutset": 27, "dbpc1": 389, "cover-leung": 259, "erasure-fb": 259}
    STAGES = {"cutset": 27, "dbpc1": 36, "cover-leung": 26, "erasure-fb": 26}

    @pytest.mark.parametrize("family", sorted(bounds._FAMILIES))
    def test_solve_call_count(self, family, monkeypatch):
        stage_of, x_hi, solve = bounds._FAMILIES[family]
        stages = calls = 0

        def counted(x):
            nonlocal stages
            stages += 1
            caps = stage_of(x)

            def at(y):
                nonlocal calls
                calls += 1
                return caps(y)

            return at

        monkeypatch.setitem(bounds._FAMILIES, family, (counted, x_hi, solve))
        solution = bounds._solve_family(family, SWEEP_LAMBDAS)
        # the terms of x alone are taken once per outer call
        assert calls == self.CALLS[family], calls
        assert stages == self.STAGES[family], stages
        for got, full in zip(solution, bounds._solution(family)):
            np.testing.assert_array_equal(got, full)


def _toy_crossings(rows=slice(None)):
    """min(rising line, falling line) on [0, 1], with the crossing inside, on each end and beyond them.

    Problem j peaks at ``root[j]`` clipped to [0, 1], and its difference is
    ``slope (y - root)``, rising; ``rows`` picks the problems.
    """
    root = np.array([0.3, 0.0, 1.0, -0.5, 1.5, 0.7, 1 / 3, 0.999])[rows]
    slope = np.array([1.0, 2.0, 3.0, 1.0, 1.0, 1e-3, 7.0, 0.5])[rows]

    def fun(y):
        rising, falling = y, y - slope * (y - root)
        return np.stack([np.minimum(rising, falling), rising - falling])

    return fun, root


class TestCrossingMax:
    """The batched root finder of :func:`macfb._search._crossing_max`."""

    def test_toy_crossings(self):
        fun, root = _toy_crossings()
        n = len(root)
        y, (f, _) = _search._crossing_max(fun, np.zeros(n), np.ones(n))
        best = np.clip(root, 0.0, 1.0)
        # an optimum on an end is returned exactly, with its value there
        at_end = (best == 0.0) | (best == 1.0)
        np.testing.assert_array_equal(y[at_end], best[at_end])
        np.testing.assert_array_equal(f, fun(y[None])[0, 0])
        assert np.all(np.abs(y - best) <= 1e-12), np.abs(y - best).max()

    def test_optimum_on_an_end_is_exact(self):
        # a difference >= 0 at 0 puts the optimum at 0, one <= 0 at 1 at 1,
        # a difference of exactly 0 on the end included, after the one call
        # that evaluates both ends
        shift = np.array([0.0, 0.25, -1.0, -1.25])
        calls = 0

        def fun(y):
            nonlocal calls
            calls += 1
            d = y + shift
            return np.stack([-np.abs(d), d])

        y, (f, _) = _search._crossing_max(fun, np.zeros(4), np.ones(4))
        np.testing.assert_array_equal(y, [0.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(f, [0.0, -0.25, 0.0, -0.25])
        assert calls == 1, calls

    def test_batch_reversed_and_subset_are_bitwise_identical(self):
        fun, root = _toy_crossings()
        n = len(root)
        full = _search._crossing_max(fun, np.zeros(n), np.ones(n))
        for rows in (np.arange(n)[::-1], np.array([5, 0, 6]), np.array([3])):
            got = _search._crossing_max(_toy_crossings(rows)[0], np.zeros(len(rows)), np.ones(len(rows)))
            for g, w in zip(got, full):
                np.testing.assert_array_equal(g, w[..., rows])

    def test_stopped_problems_raise_no_warning(self):
        # a constant difference stops its problem on an end at once, with the
        # same difference at both ends, so the regula falsi point of its closed
        # bracket is 0/0, while the third problem searches on; the fourth's
        # subnormal differences overflow that point
        def fun(y):
            ones = np.ones(len(y))
            d = np.stack([ones, -ones, y[:, 2] - 0.3, np.where(y[:, 3] < 0.7, -1e-320, 1e-320)], axis=1)
            return np.stack([-np.abs(d), d])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = _search._crossing_max(fun, np.zeros(4), np.ones(4))
        np.testing.assert_array_equal(y[:2], [0.0, 1.0])
        assert abs(y[2] - 0.3) <= 1e-15 and 0.0 <= y[3] <= 1.0

    def test_empty_batch(self):
        y, out = _search._crossing_max(lambda y: np.stack([y, y]), np.zeros(0), np.ones(0))
        assert y.shape == (0,) and out.shape == (2, 0)

    def test_returns_every_row_at_its_answer(self):
        # rows after the objective and the difference travel with them: at
        # each answer, on an end or inside, fun's whole output comes back bit
        # for bit, as fun gives it there
        fun, root = _toy_crossings()
        n = len(root)
        y, out = _search._crossing_max(lambda y: np.concatenate([fun(y), np.sin(y)[None]]), np.zeros(n), np.ones(n))
        assert out.shape == (3, n)
        np.testing.assert_array_equal(out[:2].view(np.uint64), fun(y[None])[:, 0].view(np.uint64))
        np.testing.assert_array_equal(out[2].view(np.uint64), np.sin(y).view(np.uint64))

    def test_each_step_stays_in_the_bracket(self):
        # differences with a kink and a flat stretch, and with jumps, the last
        # of which puts every regula falsi point on the end a, so only
        # bisection moves it: every evaluated point lies in its bracket, the
        # calls stay bounded (this batch took 195) and each answer reaches its root
        calls = 0
        lo = np.array([0.0, 0.0, 0.0, 0.0, 0.5])
        root = np.array([0.2, 0.6, 0.95, 0.61803, 0.7])
        low = np.array([0.0, 0.0, 0.0, -1.0, -1.0])  # the difference left of a jump
        high = np.array([0.0, 0.0, 0.0, 1e-3, 1e300])  # and right of it

        def fun(y):
            nonlocal calls
            calls += 1
            assert calls <= 300 and ((y >= lo) & (y <= 1.0)).all(), calls
            kinked = np.where(y < root, 1e-6 * (y - root), 50.0 * (y - root))
            d = np.where(high > 0.0, np.where(y < root, low, high), kinked)
            return np.stack([np.where(y < root, y, 2.0 * root - y), d])

        y, _ = _search._crossing_max(fun, lo, np.ones(len(lo)))
        # |difference| <= 1e-15 on the flat side is 1e-9 from the root
        assert np.all(np.abs(y - root) <= np.where(high > 0.0, 1e-12, 1e-9)), np.abs(y - root)


#: the solved dbpc1 support may exceed its arc bound max_u G by this many ulps of the bound (it
#: did by at most 0.5)
ARC_BOUND_ULPS = 4


def _arc_bound(lams):
    """max over u in [0, 1/2] of G(u) = (2 lam - 1) h(u)/2 + (1 - lam) h((1 - u)/2), for each lam >= 1/2.

    G is concave, and its slope has the sign of (2 lam - 1) h'(u) - (1 - lam)
    log2((1 + u)/(1 - u)), with h'(u) = log2((1 - u)/u); 80 bisection steps
    on that sign put u within rounding of the maximizer, and the ends are
    taken too.
    """
    lam = lams[:, None]
    lo, hi = np.zeros_like(lam), np.full_like(lam, 0.5)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        rising = (2.0 * lam - 1.0) * np.log2((1.0 - mid) / mid) > (1.0 - lam) * np.log2((1.0 + mid) / (1.0 - mid))
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    u = np.concatenate([lo, hi, np.zeros_like(lo), np.full_like(lo, 0.5)], axis=1)
    return ((2.0 * lam - 1.0) * binary_entropy(u) / 2.0 + (1.0 - lam) * binary_entropy((1.0 - u) / 2.0)).max(axis=1)


def _vertex_bisection():
    """u_v, the u of the vertex V, by bisection: the u whose saturation point on the face meets the sum cap.

    At u the face point that saturates r1 has h(phi(2 u1)) = h(u)/2 (an inner
    bisection over u1 in [0, u (1 - u)]), and u2 = lower_face_u2(u1, u).
    There r1 + r2 - sum = h(u)/2 + h(phi(2 u2))/2 - h((1 - u)/2) rises in u,
    negative at 0.2 and positive at 1/2.
    """

    def excess(u):
        lo, hi = 0.0, u * (1.0 - u)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if binary_entropy(phi(2.0 * mid)) < binary_entropy(u) / 2.0 else (lo, mid)
        u2 = lower_face_u2(hi, u)
        return binary_entropy(u) / 2.0 + binary_entropy(phi(2.0 * u2)) / 2.0 - binary_entropy((1.0 - u) / 2.0)

    lo, hi = 0.2, 0.5
    assert excess(lo) < 0.0 < excess(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


class TestDbpc1Arcs:
    """dbpc1's solve along the arcs of its boundary: Gamma, the vertex V and arc A (bounds._solve_db)."""

    @pytest.mark.parametrize("family", ["dbpc1", *CROSSING_FAMILIES])
    def test_witness_attains_the_solved_support(self, family):
        # the binary uniform-T input at each solved (u1, u2), its exact
        # pentagon read from input_stats, not the closed form, supports each
        # direction within 1e-12 of the solve (it was within 5.6e-16, 3.3e-16
        # and 4.4e-16 for dbpc1, cover-leung and erasure-fb); dbpc1's arc-A
        # points come from the saturation root
        x, y, f = bounds._solution(family)
        columns, pentagon = oracle._PENTAGONS[family]
        caps = pentagon(*_kernels.input_stats(*bounds._binary_t_witness_rows(x, y), columns).T)
        support = bounds._support_of_caps(caps, SWEEP_LAMBDAS, 1.0 - SWEEP_LAMBDAS)
        assert np.abs(support - f).max() <= 1e-12, np.abs(support - f).max()

    def test_solutions_lie_on_their_own_boxes(self):
        # dbpc1, cover-leung and erasure-fb are solved on their own (u1, u2)
        # in [0, 1/4]^2, and cutset on (s, y) with y = 1/2 exactly
        for family in ("dbpc1", *CROSSING_FAMILIES):
            x, y, _ = bounds._solution(family)
            assert np.all((x >= 0.0) & (x <= 0.25) & (y >= 0.0) & (y <= 0.25)), family
        s, y, _ = bounds._solution("cutset")
        assert np.all((s >= 0.0) & (s <= 0.5))
        np.testing.assert_array_equal(y, np.full(len(y), 0.5))

    def test_support_is_at_most_the_arc_bound(self):
        # at lam >= 1/2 every pentagon's support is at most max_u G(u), from
        # the caps alone, whatever the search did
        upper = SWEEP_LAMBDAS >= 0.5
        bound = _arc_bound(SWEEP_LAMBDAS[upper])
        f = bounds._solution("dbpc1")[2][upper]
        assert np.all(f <= bound + ARC_BOUND_ULPS * np.spacing(bound)), (f - bound).max()
        # and where arc A alone supports, at lam >= 0.683, the bound is attained
        tight = SWEEP_LAMBDAS[upper] >= 0.683
        np.testing.assert_allclose(f[tight], bound[tight], rtol=0.0, atol=1e-15)

    def test_vertex_is_a_bisection(self, monkeypatch):
        # the lower end of arc A's one golden section is u_v, the root along
        # Gamma of bounds._db_vertex; a bisection gives 0.34668653074593...
        lows, golden = [], _search._golden_max

        def recorded(fun, lo, hi):
            lows.append(lo)
            return golden(fun, lo, hi)

        monkeypatch.setattr(_search, "_golden_max", recorded)
        bounds._solve_family("dbpc1", SWEEP_LAMBDAS[[0, 90]])
        arc = [lo for lo in lows if lo[0] > 0.0]
        assert len(arc) == 1 and np.all(arc[0] == arc[0][0])
        assert abs(arc[0][0] - _vertex_bisection()) <= 1e-14, arc[0][0] - _vertex_bisection()


class TestReductions:
    """Each step that reduces a region family to the solver's two variables."""

    def test_lower_face_point_dominates_triple(self, rng):
        # a triple's lower-face point, (u1, lower_face_u2(u1, u)) for u <= 1/2
        # and (u1, 1/4) above, has dbpc1 caps on the solve's box no lower
        u1, u2, u = sample_triple_rows(5000, rng)
        v = np.minimum(u, 0.5)
        face = bounds._FAMILIES["dbpc1"][0](u1)(lower_face_u2(u1, v))
        for f, t in zip(face, _old_db_caps(u1, u2, u)):
            assert np.all(f >= t - 1e-12), (f - t).min()

    def test_db_face_matches_the_scalar_face_map(self, rng):
        # each dbpc1 cap on the box at (u1, u2), u2 broadcast against u1,
        # keeps the bits of the caps written out at the face point (u1, u2,
        # u), u = f2(2 u1, 2 u2) taken one scalar at a time
        u1 = np.concatenate([[0.0, 0.25, 0.1], rng.uniform(0.0, 0.25, 60)])
        grid = rng.uniform(0.0, 0.25, (4, len(u1)))
        for u2 in (grid, np.concatenate([[0.25, 0.0, 0.25], rng.uniform(0.0, 0.25, 60)])):
            u = np.vectorize(lambda a, b: f2(a, b))(2.0 * u1, 2.0 * u2)
            want = _old_db_caps(u1, u2, u)
            for got, w in zip(bounds._FAMILIES["dbpc1"][0](u1)(u2), want):
                np.testing.assert_array_equal(got.view(np.uint64), w.view(np.uint64))

    @pytest.mark.parametrize("family", sorted(bounds._FAMILIES))
    def test_broadcast_matches_each_column_alone(self, family, rng):
        # staged caps at x of shape (n,) and y of shape (m, n), and the
        # pentagon support of directions of shape (n,), keep in each column
        # the bits of that column's problem evaluated alone on 1-D arrays; so
        # do Gamma's point and caps at each u1 of a batch, taken alone, and
        # at the batch as an (m, n) array
        stage_of, x_hi, _ = bounds._FAMILIES[family]
        lam = np.tile(SWEEP_LAMBDAS[::30], 2)
        m, n = 5, len(lam)
        x = np.concatenate([[0.0, x_hi], rng.uniform(0.0, x_hi, n - 2)])
        y = Y_HI[family] * np.concatenate([np.zeros((1, n)), np.ones((1, n)), rng.uniform(0.0, 1.0, (m - 2, n))])
        caps = [np.broadcast_to(c, (m, n)) for c in stage_of(x)(y)]
        support = bounds._support_of_caps(stage_of(x)(y), lam, 1.0 - lam)
        assert support.shape == (m, n)
        r1 = bounds._h_phi if family == "dbpc1" else None
        gamma = None if family == "cutset" else bounds._on_gamma(stage_of, x, r1)
        if gamma is not None:
            y_grid, caps_grid = bounds._on_gamma(stage_of, np.broadcast_to(x, (m, n)), r1)
            for got, want in zip((y_grid, *caps_grid), (gamma[0], *gamma[1])):
                assert got.shape == (m, n)
                np.testing.assert_array_equal(got.view(np.uint64), np.broadcast_to(want, (m, n)).view(np.uint64))
        for j in range(n):
            alone = stage_of(np.full(m, x[j]))(y[:, j])
            for got, want in zip(caps, alone):
                np.testing.assert_array_equal(got[:, j].view(np.uint64), want.view(np.uint64))
            want = bounds._support_of_caps(alone, lam[j], 1.0 - lam[j])
            np.testing.assert_array_equal(support[:, j].view(np.uint64), want.view(np.uint64))
            if gamma is not None:
                y_alone, caps_alone = bounds._on_gamma(stage_of, x[[j]], r1)
                for got, want in zip((gamma[0], *gamma[1]), (y_alone, *caps_alone)):
                    np.testing.assert_array_equal(got[[j]].view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("family", sorted(bounds._FAMILIES))
    def test_in_place_support_is_the_support_of_the_corners_bitwise(self, family, rng):
        # the solve's support, built in place on the corners with 1 - lam
        # taken once, has the bits of lam x + (1 - lam) y at the corners,
        # and leaves the caps it reads, the staged terms of x among them, as they were
        stage_of, x_hi, _ = bounds._FAMILIES[family]
        lam = np.tile(SWEEP_LAMBDAS[::30], 2)
        m, n = 5, len(lam)
        x = np.concatenate([[0.0, x_hi], rng.uniform(0.0, x_hi, n - 2)])
        y = Y_HI[family] * np.concatenate([np.zeros((1, n)), np.ones((1, n)), rng.uniform(0.0, 1.0, (m - 2, n))])
        caps = stage_of(x)
        x_max, y_at_x, x_at_y, y_max = bounds._corners(*caps(y))
        want = np.maximum(lam * x_max + (1.0 - lam) * y_at_x, lam * x_at_y + (1.0 - lam) * y_max)
        given = caps(y)
        kept = [np.array(c, copy=True) for c in given]
        got = bounds._support_of_caps(given, lam, 1.0 - lam)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        for c, before in zip(given, kept):
            np.testing.assert_array_equal(np.asarray(c).view(np.uint64), before.view(np.uint64))
        for _ in range(2):  # the staged terms of x are read again, unchanged
            support = bounds._support_of_caps(caps(y), lam, 1.0 - lam)
            np.testing.assert_array_equal(support.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("family", CROSSING_FAMILIES)
    def test_swapping_the_users_swaps_the_staged_caps_bitwise(self, family, rng):
        # the staged caps at (u1, u2) are those at (u2, u1) with r1 and r2
        # swapped, bit for bit: f2's product (1 - 2x)(1 - 2y) commutes
        stage_of, x_hi, _ = bounds._FAMILIES[family]
        u1 = np.concatenate([[0.0, x_hi, 0.1], rng.uniform(0.0, x_hi, 300)])
        u2 = np.concatenate([[x_hi, 0.0, 0.1], rng.uniform(0.0, x_hi, 300)])
        a, b, c = stage_of(u1)(u2)
        a_swapped, b_swapped, c_swapped = stage_of(u2)(u1)
        for got, want in ((a, b_swapped), (b, a_swapped), (c, c_swapped)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("family", CROSSING_FAMILIES)
    def test_support_peaks_on_gamma(self, family, rng):
        # the reduction behind bounds._on_gamma: a <= c on a grid of the box,
        # so with weights w1 >= w2 the support is w1 a + w2 min(b, c - a), and
        # at fixed u1 its maximum over u2, on a grid of 2,001 values, is no
        # higher than at Gamma's point, for random directions (the smallest
        # margin was 0.0)
        stage_of, x_hi, _ = bounds._FAMILIES[family]
        g = np.linspace(0.0, x_hi, 101)
        u1, u2 = (v.ravel() for v in np.meshgrid(g, g))
        a, _, c = stage_of(u1)(u2)
        assert np.all(a <= c)
        u1 = np.concatenate([[0.0, x_hi], rng.uniform(0.0, x_hi, 38)])
        lam = rng.uniform(0.5, 1.0, len(u1))
        _, caps = bounds._on_gamma(stage_of, u1)
        on_gamma = bounds._support_of_caps(caps, lam, 1.0 - lam)
        grid = bounds._support_of_caps(stage_of(u1)(np.linspace(0.0, x_hi, 2001)[:, None]), lam, 1.0 - lam)
        assert np.all(on_gamma >= grid.max(axis=0) - 1e-15), (on_gamma - grid.max(axis=0)).min()

    @pytest.mark.parametrize("family", CROSSING_FAMILIES)
    def test_crossing_solve_is_no_lower_than_golden_section(self, family):
        # at every sweep direction, against a golden-section solve at both
        # levels; the crossing solve was higher by up to 8.0e-14 and 2.8e-14
        stage_of, x_hi, _ = bounds._FAMILIES[family]
        golden = _solve_caps(stage_of, x_hi, SWEEP_LAMBDAS)[2]
        got = bounds._solution(family)[2]
        assert np.all(got >= golden - 1e-15), (got - golden).min()

    @pytest.mark.parametrize("family", CROSSING_FAMILIES)
    @pytest.mark.parametrize("grid_n", [21, 201, 2001])
    def test_face_top_corners_are_no_lower_than_golden_section(self, family, grid_n):
        # Gamma's top corner min(b, c - a) at each u1 (bounds._on_gamma), against
        # golden section's; at grids 21 and 201 none was lower, at 2001 by 1.3e-14
        stage_of, x_hi, _ = bounds._FAMILIES[family]
        u1 = np.linspace(0.0, x_hi, grid_n)
        caps = stage_of(u1)

        def top(t):  # at u2 = t / 4, t in [0, 1]
            a, b, c = caps(0.25 * t)
            return np.minimum(b, c - a)

        _, (a, b, c) = bounds._on_gamma(stage_of, u1)
        got = np.minimum(b, c - a)
        golden = _search._golden_max(top, np.zeros(grid_n), np.ones(grid_n))[1]
        assert np.all(got >= golden - 2e-14), (got - golden).min()

    def test_cutset_flip_keeps_caps(self, rng):
        joint = rng.dirichlet(np.full(4, 0.5), 2000)
        flip = joint[:, ::-1]
        caps = _kernels.cutset_stats(joint)
        caps_flip = _kernels.cutset_stats(flip)
        np.testing.assert_allclose(caps_flip, caps, rtol=0.0, atol=1e-12)
        sym = 0.5 * (joint + flip)
        caps_sym = _kernels.cutset_stats(sym)
        assert np.all(caps_sym >= 0.5 * (caps + caps_flip) - 1e-12)
        # the symmetrized joint is the solver's joint at (s, y)
        s = sym[:, 0]
        y = sym[:, 1] / (1.0 - 2.0 * s)
        np.testing.assert_allclose(bounds._cutset_joint(s, y), sym, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(np.stack(bounds._cutset_caps(s, y), axis=1), caps_sym, rtol=0.0, atol=1e-12)

    def test_cutset_half_is_the_best_y(self, rng):
        # the lemma of bounds._cutset_caps on the flip-symmetric joints: the
        # per-user caps are one, the sum cap depends on s alone, and the
        # caps at y = 1/2 are no lower than at any y (on 100,000 joints:
        # 8.9e-16, 1.3e-15, and never lower)
        s = np.concatenate([rng.uniform(0.0, 0.5, 10_000), [0.0, 0.0, 0.5, 0.5]])
        y = np.concatenate([rng.uniform(0.0, 1.0, 10_000), [0.0, 1.0, 0.0, 1.0]])
        c1, c2, c3 = _kernels.cutset_stats(bounds._cutset_joint(s, y)).T
        h1, h2, h3 = _kernels.cutset_stats(bounds._cutset_joint(s, 0.5)).T
        assert np.abs(c1 - c2).max() <= 2e-15
        assert np.abs(c3 - h3).max() <= 4e-15
        assert np.all(np.minimum(h1, h2) >= np.maximum(c1, c2) - 1e-15)

    def test_cutset_solve_is_no_lower_than_the_nested_solve(self):
        # the golden section over (s, y) that solved the cut-set region
        # before, kept as the reference; the supports moved by -6.7e-16 to
        # +3.9e-16
        stage_of = bounds._FAMILIES["cutset"][0]
        nested = _solve_caps(stage_of, 0.5, SWEEP_LAMBDAS, y_hi=1.0)[2]
        got = bounds._solution("cutset")[2]
        assert np.all(got >= nested - 1e-12), (got - nested).min()

    def test_cutset_solve_beats_a_dense_grid_of_s_and_y(self):
        # y = 1/2 is not on the grid, so no grid joint is one the solve searches
        stage_of = bounds._FAMILIES["cutset"][0]
        s, y = (v.ravel() for v in np.meshgrid(np.linspace(0.0, 0.5, 401), np.linspace(0.0, 1.0, 400)))
        best = _grid_supports(*stage_of(s)(y))
        got = bounds._solution("cutset")[2]
        assert np.all(got >= best - 1e-12), (got - best).min()

    def test_erasure_sum_cap_maximized_over_band(self, rng):
        u1, u2, u = sample_triple_rows(5000, rng)
        lo = f2(2.0 * u1, 2.0 * u2)
        assert np.all(np.maximum(1.0 / 3.0, lo) <= 1.0 - (u1 + u2))
        a, b, c = bounds._erasure_pair_staged(u1, 1.0 / 3.0)(u2)
        assert np.all(c >= mu_fn(u) - 1e-12)
        np.testing.assert_array_equal(a, binary_entropy(phi(2.0 * u1)))
        np.testing.assert_array_equal(b, binary_entropy(phi(2.0 * u2)))


def _old_db_caps(u1, u2, u):
    """The dbpc1 caps written out in one piece."""
    capped = np.minimum(0.5 * binary_entropy(u), binary_entropy(phi(2.0 * u1)))
    half_other = 0.5 * binary_entropy(phi(2.0 * u2))
    return capped, half_other, binary_entropy((1.0 - u) / 2.0)


DENSE_LAMBDAS = np.linspace(0.0, 1.0, 3601)


class TestSupportPolygon:
    """The outer regions are the polygons of their solved support lines."""

    @pytest.mark.parametrize("caps", [(1.0, 1.0, 1.5), (0.3, 0.4, 5.0), (0.95, 0.38, 1.11), (0.5606, 0.9554, 1.0362)])
    def test_pentagon_from_its_supports(self, caps):
        # rounding keeps some of the lines through a pentagon corner, which
        # meet within rounding of it
        pentagon = RateConstraintSet(*caps)
        m = np.array([pentagon.support(lam) for lam in SWEEP_LAMBDAS])
        got = geometry._support_polygon(m, "toy")
        want = pareto_filter(pentagon.corners())
        np.testing.assert_allclose(
            support_values(got, DENSE_LAMBDAS), support_values(want, DENSE_LAMBDAS), rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("family", ["cutset", "dbpc1"])
    def test_near_duplicate_vertices_merged(self, family, monkeypatch):
        m = bounds._solution(family)[2]
        got = geometry._support_polygon(m, family)
        assert np.hypot(*np.diff(got.points, axis=0).T).min() >= geometry._VERTEX_TOL
        monkeypatch.setattr(geometry, "_VERTEX_TOL", 0.0)
        unmerged = geometry._support_polygon(m, family)
        assert len(got.points) < len(unmerged.points)
        # the merged vertex dominates the ones it replaces, so no support drops
        rise = support_values(got, DENSE_LAMBDAS) - support_values(unmerged, DENSE_LAMBDAS)
        assert rise.min() >= 0.0 and rise.max() <= 1e-13

    @pytest.mark.parametrize("region, family", [("cutset", "cutset"), ("dbpc1", "dbpc1"), ("dbpc2", "dbpc1")])
    def test_between_hull_of_solved_corners_and_gap(self, region, family):
        corners = bounds._solved_points(family)
        if region == "dbpc2":
            corners = corners[:, ::-1]
        inner = support_values(pareto_filter(corners), DENSE_LAMBDAS)
        outer = support_values(region_boundary(RegionSpec(Region(region))), DENSE_LAMBDAS)
        # the polygon contains every solved pentagon, and between the solved
        # directions it stands at most 1.2e-5 above their hull
        assert np.all(outer >= inner - 1e-12), (outer - inner).min()
        assert np.all(outer <= inner + 2e-5), (outer - inner).max()

    def test_dbpc_is_the_intersection(self):
        c1, c2, both = (region_boundary(RegionSpec(Region(r))) for r in ("dbpc1", "dbpc2", "dbpc"))
        s1, s2, s = (support_values(c, DENSE_LAMBDAS) for c in (c1, c2, both))
        assert np.all(s <= np.minimum(s1, s2) + 1e-12)
        # a vertex of one polygon inside the other lies in the intersection
        for a, b in ((c1, c2), (c2, c1)):
            lines = np.column_stack([SWEEP_LAMBDAS, 1.0 - SWEEP_LAMBDAS])
            inside = np.all(a.points @ lines.T <= support_values(b, SWEEP_LAMBDAS) + 1e-12, axis=1)
            assert inside.any()
            assert np.all(support_values(pareto_filter(a.points[inside]), DENSE_LAMBDAS) <= s + 1e-12)
