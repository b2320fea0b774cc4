import numpy as np
import pytest

from macfb import bounds
from macfb.channel import Channel, info_quantities
from macfb.infofn import binary_entropy, f2, g_fn, phi
from macfb.symrate import _balance_path, cutset_symmetric_argmax, solve_cutset_symmetric


def _symmetric_rates(caps_of, hi):
    """The symmetric rate of ``caps_of(t)`` at 200,001 points of [0, hi]."""
    return bounds._symmetric(*caps_of(np.linspace(0.0, hi, 200_001)))


def _local_maxima(values):
    """The number of interior points at least as high as both neighbours."""
    mid = values[1:-1]
    return int(np.count_nonzero((mid >= values[:-2]) & (mid >= values[2:])))


class TestBalancePoint:
    def test_published_values(self, db_solution):
        s = db_solution
        assert s.rate == pytest.approx(0.45330, abs=1e-5)
        assert s.u1_star == pytest.approx(0.086063, abs=1e-5)
        assert s.u2_star == pytest.approx(0.218333, abs=1e-5)
        assert s.u_star == pytest.approx(0.355899, abs=1e-5)
        assert s.witness.q1[0] == pytest.approx(0.095109, abs=1e-5)
        assert s.witness.q2[0] == pytest.approx(0.322050, abs=1e-5)

    def test_three_way_balance(self, db_solution):
        s = db_solution
        assert s.rate == pytest.approx(binary_entropy(phi(2 * s.u1_star)), abs=1e-9)
        assert s.rate == pytest.approx(0.5 * binary_entropy(phi(2 * s.u2_star)), abs=1e-9)
        assert s.rate == pytest.approx(g_fn(s.u1_star, s.u2_star), abs=1e-9)

    def test_weakened_cap_is_lossless(self, db_solution):
        # h(u*)/2 >= rate: dropping the h(u)/2 term did not change the optimum
        s = db_solution
        assert 0.5 * binary_entropy(s.u_star) >= s.rate
        assert phi(2 * s.u2_star) < s.u_star < 0.5

    def test_one_local_maximum_on_the_balance_path(self, db_solution):
        # the golden-section search needs a unimodal rate along the path
        rates = _symmetric_rates(lambda s: bounds._CAPS["dbpc1"](*_balance_path(s)), 0.5)
        assert _local_maxima(rates) == 1
        # the search's peak is at least as high as the grid's
        assert db_solution.rate - 1e-6 < float(rates.max()) <= db_solution.rate

    def test_r2_cap_is_half_the_sum_cap_on_the_balance_path(self):
        _, r2, total = bounds._CAPS["dbpc1"](*_balance_path(np.linspace(0.0, 0.5, 1001)))
        np.testing.assert_allclose(r2, total / 2.0, rtol=0.0, atol=1e-15)

    def test_witness_attains_all_three_caps(self, db_solution):
        s = db_solution
        q = info_quantities(Channel.NOISY_ADDITIVE, s.witness)
        assert q.h_x1_given_t == pytest.approx(s.rate, abs=1e-9)
        assert 0.5 * q.h_x2_given_t == pytest.approx(s.rate, abs=1e-9)
        assert 0.5 * q.i_x1x2_y == pytest.approx(s.rate, abs=1e-9)

    def test_no_feasible_pair_beats_it(self, db_solution, rng):
        s = db_solution
        u1, u2 = rng.uniform(0.0, 0.25, (2, 1000))
        direct = np.minimum(
            np.minimum(binary_entropy(phi(2 * u1)), 0.5 * binary_entropy(phi(2 * u2))),
            g_fn(u1, u2),
        )
        assert float(direct.max()) <= s.rate + 1e-9


class TestCoverLeungSymmetric:
    def test_published_value(self, cl_solution):
        assert cl_solution.rate == pytest.approx(0.43621, abs=1e-4)

    def test_closed_form_crossing(self, cl_solution):
        # the crossing solves sqrt(1-2s) = s, i.e. 2u = sqrt(2) - 1
        assert cl_solution.u1_star == pytest.approx((np.sqrt(2) - 1) / 2, abs=1e-9)
        assert cl_solution.rate == pytest.approx(
            0.5 * binary_entropy(1 - np.sqrt(2) / 2), abs=1e-9
        )

    def test_caps_balance_at_solution(self, cl_solution):
        s = cl_solution
        per_user = 0.5 * binary_entropy(phi(2 * s.u1_star))
        half_sum = 0.5 * binary_entropy((1 - f2(2 * s.u1_star, 2 * s.u2_star)) / 2)
        assert per_user == pytest.approx(half_sum, abs=1e-9)

    def test_one_local_maximum_on_the_diagonal(self, cl_solution):
        rates = _symmetric_rates(lambda u: bounds._CAPS["cover-leung"](u, u), 0.25)
        assert _local_maxima(rates) == 1
        # the search's peak is at least as high as the grid's
        assert cl_solution.rate - 1e-6 < float(rates.max()) <= cl_solution.rate

    def test_no_asymmetric_grid_point_beats_it(self, cl_solution):
        g = np.linspace(0.0, 0.25, 201)
        grid_max = float(bounds._symmetric(*bounds._CAPS["cover-leung"](*np.meshgrid(g, g))).max())
        assert grid_max <= cl_solution.rate + 1e-6

    def test_witness_is_binary_uniform(self, cl_solution):
        w = cl_solution.witness
        assert w.t_card == 2
        assert np.allclose(w.p_t, [0.5, 0.5])


@pytest.mark.parametrize("solution", ["db_solution", "cl_solution"])
def test_solution_derives_its_witness_from_u_star(request, solution):
    s = request.getfixturevalue(solution)
    want = bounds.cover_leung_witness(s.u1_star, s.u2_star)
    for name in ("p_t", "q1", "q2"):
        np.testing.assert_array_equal(getattr(s.witness, name), getattr(want, name), strict=True)
    assert s.u_star == f2(2.0 * s.u1_star, 2.0 * s.u2_star)


class TestCutsetSymmetric:
    def test_published_value(self):
        assert solve_cutset_symmetric() == pytest.approx(0.45915, abs=1e-3)

    def test_closed_form_candidate(self):
        # the symmetric family (a, b, b, a) peaks at a = 1/3 with value h(1/3)/2
        value, joint = cutset_symmetric_argmax()
        assert value == pytest.approx(0.5 * binary_entropy(1 / 3), abs=1e-4)
        assert joint[0] == pytest.approx(joint[3], abs=1e-2)

    def test_reaches_symmetric_optimum(self):
        # both symmetries put an optimum on (a, b, b, a); the old lattice
        # search stopped 1.05e-5 below h(1/3)/2 at an asymmetric joint
        value, joint = cutset_symmetric_argmax()
        assert value >= 0.5 * binary_entropy(1 / 3) - 1e-12
        np.testing.assert_allclose(joint, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-9)

    def test_independent_uniform_is_suboptimal(self):
        from macfb.channel import cutset_quantities

        i1, i2, isum = cutset_quantities(Channel.NOISY_ADDITIVE, [0.25] * 4)
        assert min(i1, i2, isum / 2) < 0.45915 - 1e-3

    def test_fully_correlated_is_zero(self):
        from macfb.channel import cutset_quantities

        i1, i2, isum = cutset_quantities(Channel.NOISY_ADDITIVE, [0.5, 0.0, 0.0, 0.5])
        assert min(i1, i2, isum / 2) == pytest.approx(0.0, abs=1e-12)


class TestOrdering:
    def test_strict_bound_ordering(self, db_solution, cl_solution):
        cutset = solve_cutset_symmetric()
        assert cl_solution.rate < db_solution.rate < cutset
