import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import macfb
from macfb import bounds
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
from macfb.feasible import InvalidTripleError, UTriple, sample_triples, u_triple_of
from macfb import geometry
from macfb.geometry import pareto_filter, support_value
from macfb.infofn import DomainError, binary_entropy, f2, phi

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
        for t in sample_triples(100, rng):
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
        a = erasure_fb_witness(0.11, 0.07)
        b = cover_leung_witness(0.11, 0.07)
        assert np.allclose(a.q1, b.q1) and np.allclose(a.q2, b.q2)


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
        # a grid no other test builds, so the sweep is not served from the cache
        monkeypatch.setenv("MACFB_BUDGET", str(23**2))
        assert len(region_boundary(RegionSpec(Region.ERASURE_FB, 23)).points) > 0
        with pytest.raises(BudgetExceededError, match="sweep of 576 evaluations exceeds budget 529"):
            region_boundary(RegionSpec(Region.ERASURE_FB, 24))


# Support of every region at grid 21, at every 10th of the 181 sweep
# directions, as computed by the per-direction scalar Nelder-Mead refinement
# (scipy.optimize.minimize) that the batched search replaced.  The coarse grids
# of the refinement do not depend on grid_n, so grid 21 runs all of it.
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
        0.5, 0.48971110889296793, 0.4802517121487304,
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
        0.4715877923893579, 0.4802517121487304, 0.489711108892968,
        0.5,
    ],
    "dbpc": [
        0.5, 0.48971110889296887, 0.48025171214873086,
        0.47158779238935983, 0.46402744608890656, 0.4579910081448597,
        0.4541300365707084, 0.4533027829181226, 0.45330278291812254,
        0.45330278291812254, 0.45330278291812254, 0.45330278291812254,
        0.45413003657070716, 0.4579910081448597, 0.46402744608890567,
        0.47158779238935716, 0.480251712148731, 0.48971110889296865,
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


FAMILIES = {
    "dbpc": lambda: bounds._db_family(False),
    "cutset": bounds._cutset_family,
}


def _solve(family, lam, x0, rows):
    """Refine the problems ``rows`` of a family on their own."""
    fun = family.neg_support(lam[rows])
    return bounds._refine(fun, x0[rows], family.lo, family.hi, family.step0)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_batch(request):
    family = FAMILIES[request.param]()
    lam = np.repeat(SWEEP_LAMBDAS, 2)
    x0 = family.coarse_params[family.seeds(SWEEP_LAMBDAS, 2).ravel()]
    x, f = _solve(family, lam, x0, np.arange(len(lam)))
    return family, lam, x0, x, f


class TestRefinement:
    def test_import_does_not_load_scipy(self):
        src = str(Path(macfb.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import macfb, sys; assert 'scipy' not in sys.modules, 'scipy imported'"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("region", sorted(FROZEN_SUPPORTS_21))
    def test_supports_match_frozen_values(self, region):
        curve = region_boundary(RegionSpec(Region(region), 21))
        got = np.array([support_value(curve, lam) for lam in SWEEP_LAMBDAS[::10]])
        frozen = np.array(FROZEN_SUPPORTS_21[region])
        # same tolerances as the benchmark gate: no drop, no gross rise
        assert np.all(got >= frozen - 1e-12), (got - frozen).min()
        assert np.all(got <= frozen + 1e-3), (got - frozen).max()

    def test_batch_reversed_is_bitwise_identical(self, family_batch):
        family, lam, x0, x, f = family_batch
        rows = np.arange(len(lam))[::-1]
        xr, fr = _solve(family, lam, x0, rows)
        np.testing.assert_array_equal(xr, x[rows])
        np.testing.assert_array_equal(fr, f[rows])

    def test_batch_subset_is_bitwise_identical(self, family_batch):
        family, lam, x0, x, f = family_batch
        rows = np.array([361, 0, 181, 180, 37, 74, 300])
        xs, fs = _solve(family, lam, x0, rows)
        np.testing.assert_array_equal(xs, x[rows])
        np.testing.assert_array_equal(fs, f[rows])
        for r in rows[:2]:
            xo, fo = _solve(family, lam, x0, np.array([r]))
            np.testing.assert_array_equal(xo[0], x[r])
            np.testing.assert_array_equal(fo[0], f[r])

    def test_toy_optimum_on_box_face(self):
        # squared distance to a target, evaluated on clipped parameters as the
        # region families are; targets outside the box have their optimum at
        # the nearest point of a face or corner
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        target = np.array([[0.3, 0.7], [1.6, 0.5], [0.4, -0.8], [-0.5, 3.0], [1.25, 2.25]])

        def fun(x, rows):
            return ((np.clip(x, lo, hi) - target[rows]) ** 2).sum(axis=1)

        x0 = np.array([[0.5, 1.0], [0.9, 1.9], [0.0, 0.0], [1.0, 2.0], [0.2, 0.3]])
        x, f = bounds._refine(fun, x0, lo, hi, step0=0.1)
        best = np.clip(target, lo, hi)
        assert np.all((x >= lo) & (x <= hi))
        np.testing.assert_allclose(x, best, atol=1e-6)
        np.testing.assert_allclose(f, ((best - target) ** 2).sum(axis=1), atol=1e-12)


SEED_FAMILIES = {
    **FAMILIES,
    "cover-leung": lambda: bounds._box_family(bounds._cl_caps, (0.25, 0.25), coarse_n=101),
    "erasure-fb": lambda: bounds._box_family(bounds._erasure_caps, (0.25, 0.25), coarse_n=101),
}


def _old_db_caps(u1, u2, u, mirror):
    """The dependence-balance caps written out in one piece."""
    capped = np.minimum(0.5 * binary_entropy(u), binary_entropy(phi(2.0 * (u2 if mirror else u1))))
    half_other = 0.5 * binary_entropy(phi(2.0 * (u1 if mirror else u2)))
    csum = binary_entropy((1.0 - u) / 2.0)
    return (half_other, capped, csum) if mirror else (capped, half_other, csum)


def _old_sweep_db(grid_n, mirror):
    """The dbpc sweep with the caps of every slice computed in full and a plain lexsort filter."""
    g = np.linspace(0.0, 0.25, grid_n)
    u1, u2 = (x.ravel() for x in np.meshgrid(g, g, indexing="ij"))
    lo = f2(2.0 * u1, 2.0 * u2)
    hi = 1.0 - (u1 + u2)
    chunks = []
    for w in np.linspace(0.0, 1.0, grid_n):
        pts = bounds._corner_points(*_old_db_caps(u1, u2, lo + w * (hi - lo), mirror))
        pts = pts[geometry._lexsort_mask(pts)]
        chunks.append(pts[np.argsort(pts[:, 0])])
    return np.concatenate(chunks, axis=0)


def _old_intersection_curve(grid_n):
    """The dbpc intersection with both curves filtered and one support scan per direction."""
    pts = bounds._dbpc_points(grid_n)
    c1, c2 = pareto_filter(pts), pareto_filter(pts[:, ::-1])
    lams = SWEEP_LAMBDAS
    m = np.array([min(support_value(c1, l), support_value(c2, l)) for l in lams])
    i, j = np.triu_indices(len(lams), k=1)
    l1, l2 = lams[i], lams[j]
    det = l1 - l2
    x = (m[i] * (1.0 - l2) - m[j] * (1.0 - l1)) / det
    y = (l1 * m[j] - l2 * m[i]) / det
    ok = (x >= -1e-12) & (y >= -1e-12)
    cand = np.concatenate([np.stack([x[ok], y[ok]], axis=1), [(m[-1], 0.0), (0.0, m[0])]], axis=0)
    cand = np.clip(cand, 0.0, None)
    feas = np.ones(len(cand), dtype=bool)
    for l, mv in zip(lams, m):
        feas &= l * cand[:, 0] + (1.0 - l) * cand[:, 1] <= mv + 1e-9
    return pareto_filter(cand[feas])


class TestGridPhase:
    """The grid-phase shortcuts give bitwise the arrays of the plain computations."""

    @pytest.mark.parametrize("name", sorted(SEED_FAMILIES))
    def test_seeds_match_full_argsort(self, name):
        family = SEED_FAMILIES[name]()
        a, b, c = family.coarse_caps
        x_max = np.minimum(a, c)
        y_at_x = np.clip(np.minimum(b, c - x_max), 0.0, None)
        y_max = np.minimum(b, c)
        x_at_y = np.clip(np.minimum(a, c - y_max), 0.0, None)
        expected, ties = [], 0
        for lam in SWEEP_LAMBDAS:
            vals = np.maximum(lam * x_max + (1.0 - lam) * y_at_x, lam * x_at_y + (1.0 - lam) * y_max)
            expected.append(np.argsort(vals)[-2:])
            ties += bool(np.any(np.diff(np.sort(vals)[-3:]) <= 0.0))
        np.testing.assert_array_equal(family.seeds(SWEEP_LAMBDAS, 2), np.array(expected))
        if name == "dbpc":
            # both the partial sort and the fallback to the full sort are exercised
            assert 0 < ties < len(SWEEP_LAMBDAS)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_sweep_db_matches_plain_sweep(self, mirror):
        np.testing.assert_array_equal(bounds._sweep_db(21, mirror), _old_sweep_db(21, mirror))

    @pytest.mark.parametrize("mirror", [False, True])
    def test_db_param_caps_match_plain_caps(self, rng, mirror):
        u1, u2, w = rng.uniform(0.0, 1.0, (3, 5000)) * np.array([[0.25], [0.25], [1.0]])
        lo = f2(2.0 * u1, 2.0 * u2)
        got = bounds._db_param_caps(u1, u2, w, mirror)
        expected = _old_db_caps(u1, u2, lo + w * (1.0 - (u1 + u2) - lo), mirror)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)

    def test_dbpc2_is_mirrored_dbpc1(self):
        c1, c2 = bounds._dbpc_curves(21)
        np.testing.assert_array_equal(c2.points, pareto_filter(bounds._dbpc_points(21)[:, ::-1]).points)
        assert (c1.label, c2.label) == ("dbpc1", "dbpc2")

    def test_intersection_matches_per_direction_loop(self):
        np.testing.assert_array_equal(bounds._intersection_curve(21).points, _old_intersection_curve(21).points)
