import numpy as np
import pytest

from macfb.channel import JointInputDistribution
from macfb.feasible import (
    InvalidTripleError,
    UTriple,
    in_P,
    lower_face_u2,
    project_to_lower_face,
    sample_triples,
    u_triple_of,
)
from macfb.infofn import f2


def dist(p, q1, q2):
    return JointInputDistribution(np.atleast_1d(p), np.atleast_1d(q1), np.atleast_1d(q2))


class TestUTriple:
    def test_uniform(self):
        assert u_triple_of(dist(1.0, 0.5, 0.5)) == pytest.approx((0.25, 0.25, 0.5))

    def test_balance_point_witness(self):
        d = dist([0.5, 0.5], [0.095109, 0.904891], [0.322050, 0.677950])
        t = u_triple_of(d)
        assert t.u1 == pytest.approx(0.086063, abs=1e-5)
        assert t.u2 == pytest.approx(0.218333, abs=1e-5)
        assert t.u == pytest.approx(0.355899, abs=1e-5)

    def test_deterministic_opposite_inputs(self):
        assert u_triple_of(dist(1.0, 0.0, 1.0)) == pytest.approx((0.0, 0.0, 1.0))

    def test_always_feasible(self, rng):
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            d = dist(rng.dirichlet(np.ones(k)), rng.uniform(size=k), rng.uniform(size=k))
            assert in_P(u_triple_of(d))


class TestInP:
    def test_box_corner(self):
        assert in_P(UTriple(0.25, 0.25, 0.5))

    def test_zero_noise_triple(self):
        assert in_P(UTriple(0.0, 0.0, 0.5))

    def test_u1_out_of_box(self):
        assert not in_P(UTriple(0.3, 0.0, 0.0))

    def test_below_lower_face(self):
        assert not in_P(UTriple(0.25, 0.25, 0.4))

    def test_above_upper_face(self):
        assert not in_P(UTriple(0.2, 0.2, 0.7))

    def test_balance_point_on_lower_face(self):
        t = UTriple(0.086063, 0.218333, 0.355899)
        assert in_P(t)
        assert f2(2 * t.u1, 2 * t.u2) == pytest.approx(t.u, abs=1e-5)


class TestProjection:
    def test_identity_on_lower_face(self, rng):
        for u1, u2 in rng.uniform(0.0, 0.25, (200, 2)):
            t = UTriple(u1, u2, f2(2 * u1, 2 * u2))
            b1, b2 = project_to_lower_face(t)
            assert b1 == pytest.approx(u1, abs=1e-12)
            assert b2 == pytest.approx(u2, abs=1e-9)

    def test_degenerate_inputs_full_mixing(self):
        # u1 = 0, u = 1/2: the formula pins the second coordinate at 1/4
        assert project_to_lower_face(UTriple(0.0, 0.0, 0.5)) == pytest.approx((0.0, 0.25))

    def test_large_u_branch(self):
        assert project_to_lower_face(UTriple(0.1, 0.1, 0.7)) == (0.25, 0.25)

    def test_u1_at_quarter(self):
        assert project_to_lower_face(UTriple(0.25, 0.25, 0.5)) == (0.25, 0.25)

    def test_lower_face_u2_one_map_for_arrays_and_scalars(self, rng):
        u1, u2 = rng.uniform(0.0, 0.25, (2, 1000))
        u = f2(2.0 * u1, 2.0 * u2)
        got = lower_face_u2(u1, u)
        np.testing.assert_allclose(got, u2, rtol=0.0, atol=1e-9)
        assert [float(lower_face_u2(a, b)) for a, b in zip(u1, u)] == got.tolist()
        # the u1 = 1/4 edge, and beyond it within tolerance: u = 1/2 and u2 = 1/4
        np.testing.assert_array_equal(lower_face_u2(np.array([0.25, 0.25 + 1e-13]), 0.5), [0.25, 0.25])
        assert project_to_lower_face(UTriple(0.25 + 1e-13, 0.1, 0.5))[1] == 0.25

    def test_invalid_triple(self):
        with pytest.raises(InvalidTripleError):
            project_to_lower_face(UTriple(0.3, 0.0, 0.0))

    def test_projection_dominates_and_lands_on_face(self, rng):
        for t in sample_triples(500, rng):
            b1, b2 = project_to_lower_face(t)
            assert t.u1 - 1e-12 <= b1 <= 0.25 + 1e-12
            assert t.u2 - 1e-12 <= b2 <= 0.25 + 1e-12
            if t.u <= 0.5:
                assert f2(2 * b1, 2 * b2) == pytest.approx(t.u, abs=1e-10)


class TestSampling:
    def test_samples_lie_in_P(self, rng):
        assert all(in_P(t) for t in sample_triples(2000, rng))

    def test_seeded_reproducibility(self):
        a = sample_triples(10, np.random.default_rng(5))
        b = sample_triples(10, np.random.default_rng(5))
        assert a == b
