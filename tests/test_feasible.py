import re

import numpy as np
import pytest

from macfb import bounds, infofn, verify
from macfb.channel import JointInputDistribution
from macfb.feasible import (
    InvalidTripleError,
    UTriple,
    in_P,
    in_P_rows,
    lower_face_projections,
    lower_face_u2,
    pair_u,
    project_to_lower_face,
    sample_triple_rows,
    u_triple_of,
    u_triples,
    user_u,
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

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_are_the_summed_products_bit_for_bit(self, rng, k):
        # the (n, |T|) products summed by np.sum, which u_triples, user_u and pair_u add column by column
        p = rng.dirichlet(np.ones(k), size=5000)
        q1, q2 = rng.uniform(size=(2, 5000, k))
        q1[:100], q2[100:200] = 0.0, 1.0
        want = (
            np.sum(p * q1 * (1.0 - q1), axis=-1),
            np.sum(p * q2 * (1.0 - q2), axis=-1),
            np.sum(p * (q1 + q2 - 2.0 * q1 * q2), axis=-1),
        )
        for form in (u_triples, lambda p, q1, q2: (user_u(p, q1), user_u(p, q2), pair_u(p, q1, q2))):
            for got, w in zip(form(p, q1, q2), want):
                assert got.shape == (5000,)
                assert got.tobytes() == w.tobytes()
            for got, w in zip(form(p[7], q1[7], q2[7]), want):
                assert np.float64(got).tobytes() == w[7].tobytes()


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
        for t in map(UTriple, *sample_triple_rows(500, rng)):
            b1, b2 = project_to_lower_face(t)
            assert t.u1 - 1e-12 <= b1 <= 0.25 + 1e-12
            assert t.u2 - 1e-12 <= b2 <= 0.25 + 1e-12
            if t.u <= 0.5:
                assert f2(2 * b1, 2 * b2) == pytest.approx(t.u, abs=1e-10)


def _in_P_one(t: UTriple, tol: float = 1e-12) -> bool:
    """Membership in P of one triple, written out with scalars."""
    u1, u2, u = t
    if not (-tol <= u1 <= 0.25 + tol and -tol <= u2 <= 0.25 + tol):
        return False
    lo = f2(2.0 * min(max(u1, 0.0), 0.25), 2.0 * min(max(u2, 0.0), 0.25))
    return lo - tol <= u <= 1.0 - (u1 + u2) + tol


def _project_one(t: UTriple) -> tuple[float, float]:
    """The lower-face projection of one feasible triple, written out with scalars."""
    u1, u2, u = t
    if u > 0.5:
        return 0.25, 0.25
    return float(u1), float(min(max(lower_face_u2(u1, u), u2), 0.25))


#: triples at the edges of the projection: u > 1/2, u = 1/2, and u1 = 1/4 -+ 1e-13
EDGE_TRIPLES = [
    UTriple(0.1, 0.1, 0.7),
    UTriple(0.25, 0.25, 0.5),
    UTriple(0.0, 0.0, 0.5),
    UTriple(0.1, 0.2, 0.5),
    UTriple(0.25 - 1e-13, 0.1, 0.5),
    UTriple(0.25 + 1e-13, 0.1, 0.5),
    UTriple(0.25 - 1e-13, 0.0, 0.5),
    UTriple(0.25 + 1e-13, 0.25, 0.5),
]
#: triples outside P, by a box face, the lower face, the upper face, or NaN
OUTSIDE_TRIPLES = [
    UTriple(0.3, 0.0, 0.0),
    UTriple(0.1, -1e-9, 0.3),
    UTriple(0.25, 0.25, 0.4),
    UTriple(0.2, 0.2, 0.7),
    UTriple(float("nan"), 0.1, 0.3),
    UTriple(0.1, 0.1, float("nan")),
]


class TestRowForms:
    """The row forms give each triple the bits of the scalar functions and of the scalar code they replace."""

    def test_in_P_rows(self, rng):
        triples = [*map(UTriple, *sample_triple_rows(2000, rng)), *EDGE_TRIPLES, *OUTSIDE_TRIPLES]
        got = in_P_rows(*np.array(triples).T)
        assert got.dtype == bool
        assert got.tolist() == [in_P(t) for t in triples] == [_in_P_one(t) for t in triples]
        assert got.tolist() == [True] * (len(triples) - len(OUTSIDE_TRIPLES)) + [False] * len(OUTSIDE_TRIPLES)

    def test_in_P_rows_checks_no_coordinate_again(self, monkeypatch, rng):
        # in_P_rows clips each coordinate into f2's domain itself, so f2 runs unchecked;
        # the rows straddle every face of P, and the reference is the checked-f2 scalar form
        u1, u2 = rng.uniform(-0.01, 0.26, (2, 10_000))
        u = rng.uniform(-0.01, 1.01, 10_000)
        a, b = rng.uniform(0.0, 0.25, (2, 100))
        nan = float("nan")
        edges = [(x, y, f2(2.0 * x, 2.0 * y)) for x, y in zip(a, b)] + [
            (0.25 - 1e-13, 0.1, 0.5), (0.25 + 1e-13, 0.1, 0.5), (0.25 + 1e-13, 0.0, 0.5), (0.25 - 1e-13, 0.25, 0.5),
            (nan, 0.1, 0.3), (0.1, nan, 0.3), (0.1, 0.1, nan),
        ]
        rows = [np.concatenate([c, e]) for c, e in zip((u1, u2, u), np.array(edges).T)]
        checks = []
        clamp = infofn._clamp_interval

        def counting(s, hi, name):
            checks.append(name)
            return clamp(s, hi, name)

        monkeypatch.setattr(infofn, "_clamp_interval", counting)
        got = in_P_rows(*rows)
        assert checks == []
        monkeypatch.undo()
        want = [_in_P_one(UTriple(*t)) for t in zip(*rows)]
        assert got.tolist() == want
        assert 0 < sum(want) < len(want) and all(want[10_000 : 10_100])

    def test_lower_face_projections(self, rng):
        triples = [*map(UTriple, *sample_triple_rows(2000, rng)), *EDGE_TRIPLES]
        u1b, u2b = lower_face_projections(*np.array(triples).T)
        rows = list(zip(u1b.tolist(), u2b.tolist()))
        assert rows == [project_to_lower_face(t) for t in triples] == [_project_one(t) for t in triples]
        assert rows[-len(EDGE_TRIPLES):][:2] == [(0.25, 0.25), (0.25, 0.25)]

    @pytest.mark.parametrize("bad", OUTSIDE_TRIPLES[:4])
    def test_lower_face_projections_reject_a_row_outside_P(self, rng, bad):
        u1, u2, u = np.vstack([np.column_stack(sample_triple_rows(10, rng))[:5], [bad], EDGE_TRIPLES]).T
        with pytest.raises(InvalidTripleError, match=re.escape(f"{bad} is not in P")):
            lower_face_projections(u1, u2, u)


def _equivalence_by_triple(seed: int, samples: int) -> list[float]:
    """The equivalence suite's four violations, one sampled triple at a time through the scalar API."""
    triples = map(UTriple, *sample_triple_rows(samples, np.random.default_rng(seed)))
    worst_r1 = worst_r2 = worst_sum = worst_face = -np.inf
    for t in triples:
        at_t = bounds.erasure_fb_constraints_at_triple(t)
        u1b, u2b = project_to_lower_face(t)
        proj = bounds.erasure_fb_constraints(u1b, u2b)
        worst_r1 = max(worst_r1, at_t.r1_max - proj.r1_max)
        worst_r2 = max(worst_r2, at_t.r2_max - proj.r2_max)
        worst_sum = max(worst_sum, at_t.sum_max - proj.sum_max)
        if t.u <= 0.5:
            worst_face = max(worst_face, abs(f2(2.0 * u1b, 2.0 * u2b) - t.u))
    return [worst_r1, worst_r2, worst_sum, worst_face]


@pytest.mark.parametrize("seed", [0, 7])
def test_equivalence_suite_matches_the_per_triple_loop(seed):
    report = verify.equivalence_suite(seed, 1000)
    assert [c["max_violation"] for c in report["checks"]] == _equivalence_by_triple(seed, 1000)


class TestSampling:
    def test_samples_lie_in_P(self, rng):
        assert all(map(in_P, map(UTriple, *sample_triple_rows(2000, rng))))

    def test_seeded_reproducibility(self):
        a = np.stack(sample_triple_rows(10, np.random.default_rng(5)))
        b = np.stack(sample_triple_rows(10, np.random.default_rng(5)))
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_rows_are_the_triples_bit_for_bit(self, seed):
        # each row is the triple its draws give one at a time: u1, u2, then u in its band
        rng = np.random.default_rng(seed)
        a, b, w = rng.uniform(0.0, 0.25, 500), rng.uniform(0.0, 0.25, 500), rng.uniform(0.0, 1.0, 500)
        triples = []
        for u1, u2, t in zip(a, b, w):
            lo = f2(2.0 * u1, 2.0 * u2)
            triples.append((u1, u2, lo + t * ((1.0 - (u1 + u2)) - lo)))
        rows = np.stack(sample_triple_rows(500, np.random.default_rng(seed)))
        np.testing.assert_array_equal(rows.view(np.uint64), np.array(triples).T.view(np.uint64))
