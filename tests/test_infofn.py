import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macfb import bounds, infofn
from macfb.infofn import (
    CLAMP_TOL,
    DomainError,
    InvalidDistributionError,
    binary_entropy,
    entropy_k,
    f2,
    f2_hessian,
    f2_hessian_rows,
    g_fn,
    mu_fn,
    phi,
    phi_inv,
    plogp,
    xi,
)

LOG2_3 = math.log2(3.0)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
half = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
quarter = st.floats(min_value=0.0, max_value=0.25, allow_nan=False)


def test_plogp_bits_equal_the_zero_filled_log(rng):
    # the zero-filled masked log that plogp replaced: p log p keeps its bits
    values = np.concatenate([[0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, np.nan], rng.uniform(size=1000)])
    old = np.log2(values, out=np.zeros_like(values), where=values > 0.0)
    old *= values
    np.testing.assert_array_equal(plogp(values).view(np.uint64), old.view(np.uint64))


class TestEntropyK:
    def test_uniform_binary(self):
        assert entropy_k([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate(self):
        assert entropy_k([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_ternary(self):
        assert entropy_k([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(LOG2_3, abs=1e-12)

    @pytest.mark.parametrize(
        "bad", [[0.5, 0.4], [0.5, 0.6], [-0.1, 1.1], [2.0, -1.0], [], [float("nan"), 1.0]]
    )
    def test_invalid_distributions(self, bad):
        with pytest.raises(InvalidDistributionError):
            entropy_k(bad)

    def test_negative_within_tolerance_is_clamped(self):
        assert entropy_k([1.0 + 5e-13, -5e-13]) == pytest.approx(0.0, abs=1e-10)


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_one_third(self):
        # -(1/3)log(1/3) - (2/3)log(2/3) = log 3 - 2/3
        assert binary_entropy(1 / 3) == pytest.approx(LOG2_3 - 2 / 3, abs=1e-12)
        assert binary_entropy(1 / 3) == pytest.approx(0.918296, abs=1e-6)

    @given(unit)
    def test_symmetric(self, s):
        assert binary_entropy(s) == pytest.approx(binary_entropy(1.0 - s), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(1.1)
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        # NaN fails every comparison, so it must not pass the range check
        with pytest.raises(DomainError):
            binary_entropy(float("nan"))

    def test_clamps_small_drift(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0

    def test_vectorized(self):
        out = binary_entropy(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(out, [0.0, 1.0, 0.0])


class TestPhi:
    def test_zero(self):
        assert phi(0.0) == 0.0

    def test_branches_meet_at_half(self):
        assert phi(0.5) == 0.5
        assert phi(0.5 - 1e-12) == pytest.approx(0.5, abs=1e-5)
        assert phi(0.5 + 1e-12) == pytest.approx(0.5, abs=1e-5)

    def test_witness_flip_probability(self):
        # q20 = phi(2 u2) with u2 = 0.218333 comes out at 0.322050
        assert phi(2 * 0.218333) == pytest.approx(0.322050, abs=1e-5)

    @given(unit)
    def test_range(self, s):
        assert 0.0 <= phi(s) <= 0.5

    @given(unit)
    @settings(max_examples=300)
    def test_folding_identity(self, s):
        # sqrt((1-2s)^2) is ill-conditioned right at the fold; float noise
        # there is not a property violation
        if abs(s - 0.5) < 1e-4:
            s = 0.25
        assert phi(2 * s * (1 - s)) == pytest.approx(min(s, 1 - s), abs=1e-12)

    @given(unit)
    def test_entropy_composition_identity(self, s):
        assert binary_entropy(phi(2 * s * (1 - s))) == pytest.approx(
            binary_entropy(s), abs=1e-9
        )

    @given(half)
    def test_phi_inv_roundtrip(self, y):
        if abs(y - 0.5) < 1e-4:  # fold-point conditioning, as above
            y = 0.125
        assert phi(phi_inv(y)) == pytest.approx(y, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            phi(-0.2)
        with pytest.raises(DomainError):
            phi_inv(0.7)
        with pytest.raises(DomainError):
            phi(float("nan"))


class TestF2:
    def test_zero(self):
        assert f2(0.0, 0.0) == 0.0

    @given(half)
    def test_saturates_at_half(self, y):
        assert f2(0.5, y) == 0.5

    def test_balance_point_value(self):
        assert f2(2 * 0.086063, 2 * 0.218333) == pytest.approx(0.355899, abs=1e-5)

    @given(half, half)
    def test_two_forms_agree(self, x, y):
        composed = phi(x) + phi(y) - 2.0 * phi(x) * phi(y)
        assert f2(x, y) == pytest.approx(composed, abs=1e-12)

    @given(half, half)
    def test_symmetric_and_bounded(self, x, y):
        assert f2(x, y) == f2(y, x)
        assert 0.0 <= f2(x, y) <= 0.5

    def test_midpoint_convexity_sampled(self, rng):
        x, y, xp, yp = rng.uniform(0.0, 0.5, (4, 50_000))
        mid = f2((x + xp) / 2, (y + yp) / 2)
        avg = (f2(x, y) + f2(xp, yp)) / 2
        assert float((mid - avg).max()) <= 1e-12

    def test_pairwise_noise_lower_bound_sampled(self, rng):
        s1, s2 = rng.uniform(1e-3, 1.0 - 1e-3, (2, 50_000))
        v = s1 + s2 - 2 * s1 * s2
        assert float((f2(2 * s1 * (1 - s1), 2 * s2 * (1 - s2)) - v).max()) <= 1e-12

    @given(quarter, quarter)
    def test_dominates_linear_sum(self, u1, u2):
        assert f2(2 * u1, 2 * u2) >= u1 + u2 - 1e-12

    def test_hessian_rank_one_psd(self, rng):
        for x, y in rng.uniform(0.0, 0.49, (300, 2)):
            h = f2_hessian(x, y)
            eig = np.linalg.eigvalsh(h)
            assert abs(np.linalg.det(h)) <= 1e-9
            assert eig[0] >= -1e-9
            assert eig[1] == pytest.approx(np.trace(h), abs=1e-9)
            assert np.trace(h) >= 0.0

    def test_hessian_domain(self):
        with pytest.raises(DomainError):
            f2_hessian(0.5, 0.1)

    def test_hessian_rows(self, rng):
        # each row is the scalar Hessian, bit for bit, and the written-out formula within rounding
        x, y = rng.uniform(0.0, 0.49, (2, 300))
        rows = f2_hessian_rows(x, y)
        assert rows.shape == (300, 2, 2)
        np.testing.assert_array_equal(rows, [f2_hessian(a, b) for a, b in zip(x, y)])
        rx, ry = 1.0 - 2.0 * x, 1.0 - 2.0 * y
        np.testing.assert_allclose(rows[:, 0, 0], np.sqrt(ry) / (2.0 * rx * np.sqrt(rx)), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(rows[:, 1, 1], np.sqrt(rx) / (2.0 * ry * np.sqrt(ry)), rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(rows[:, 0, 1], rows[:, 1, 0])
        with pytest.raises(DomainError):
            f2_hessian_rows(np.array([0.1, 0.5]), np.array([0.1, 0.1]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            f2(0.6, 0.1)
        with pytest.raises(DomainError):
            f2(0.1, np.array([0.1, np.nan]))


class TestG:
    def test_origin(self):
        assert g_fn(0.0, 0.0) == 0.5

    def test_balance_point(self):
        assert g_fn(0.086063, 0.218333) == pytest.approx(0.45330, abs=1e-5)

    def test_corner(self):
        # f2(1/2, 1/2) = 1/2 and h(1/4) = 2 - (3/4) log 3
        h_quarter = 2.0 - 0.75 * LOG2_3
        assert g_fn(0.25, 0.25) == pytest.approx(0.5 * h_quarter, abs=1e-12)
        assert g_fn(0.25, 0.25) == pytest.approx(0.405639, abs=1e-6)

    def test_monotone_decreasing_sampled(self, rng):
        u1, u2, bump = rng.uniform(0.0, 0.25, (3, 50_000))
        higher = np.minimum(u1 + bump, 0.25)
        assert float((g_fn(higher, u2) - g_fn(u1, u2)).max()) <= 1e-12

    def test_midpoint_concavity_sampled(self, rng):
        a1, a2, b1, b2 = rng.uniform(0.0, 0.25, (4, 50_000))
        mid = g_fn((a1 + b1) / 2, (a2 + b2) / 2)
        avg = (g_fn(a1, a2) + g_fn(b1, b2)) / 2
        assert float((avg - mid).max()) <= 1e-12

    @given(quarter, quarter)
    def test_xi_relation(self, u1, u2):
        assert g_fn(u1, u2) == pytest.approx(0.5 * binary_entropy(xi(u1, u2)), abs=1e-14)


class TestMu:
    def test_endpoints(self):
        assert mu_fn(0.0) == 1.0
        assert mu_fn(1.0) == 0.0

    def test_peak_value(self):
        assert mu_fn(1 / 3) == pytest.approx(LOG2_3, abs=1e-12)

    def test_argmax_on_fine_grid(self):
        grid = np.linspace(0.0, 1.0, 1_000_000)
        argmax = grid[int(np.argmax(mu_fn(grid)))]
        assert abs(argmax - 1 / 3) <= 1e-5

    def test_midpoint_concavity_sampled(self, rng):
        x, y = rng.uniform(0.0, 1.0, (2, 50_000))
        assert float(((mu_fn(x) + mu_fn(y)) / 2 - mu_fn((x + y) / 2)).max()) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            mu_fn(1.5)
        with pytest.raises(DomainError):
            mu_fn(float("nan"))


#: each closed form with the upper end of each argument's interval [0, hi]
CLOSED_FORMS = [
    (binary_entropy, {"s": 1.0}),
    (phi, {"s": 1.0}),
    (phi_inv, {"y": 0.5}),
    (f2, {"x": 0.5, "y": 0.5}),
    (xi, {"u1": 0.25, "u2": 0.25}),
    (g_fn, {"u1": 0.25, "u2": 0.25}),
    (mu_fn, {"s": 1.0}),
]


@pytest.mark.parametrize("fn, domains", CLOSED_FORMS, ids=[fn.__name__ for fn, _ in CLOSED_FORMS])
class TestClosedFormContract:
    """Every closed form checks, clamps and shapes its arguments the same way."""

    def test_scalars_give_a_float(self, fn, domains):
        for kind in (float, np.float64, np.array):
            assert type(fn(*(kind(hi / 3.0) for hi in domains.values()))) is float

    def test_sequences_give_an_array(self, fn, domains):
        for kind in (list, np.array):
            out = fn(*(kind([hi / 3.0, hi / 2.0]) for hi in domains.values()))
            assert isinstance(out, np.ndarray) and out.shape == (2,)

    def test_drift_within_tolerance_is_clamped(self, fn, domains):
        for i, hi in enumerate(domains.values()):
            for edge, drift in ((0.0, -0.5 * CLAMP_TOL), (hi, 0.5 * CLAMP_TOL)):
                args = [h / 3.0 for h in domains.values()]
                args[i] = edge
                exact = fn(*args)
                args[i] = edge + drift
                assert fn(*args) == exact
                args[i] = np.array([edge + drift, edge])
                assert fn(*args).tolist() == [exact, exact]

    def test_a_wrong_number_of_arguments_raises_type_error(self, fn, domains):
        for args in ((), (0.1,) * (len(domains) + 1)):
            with pytest.raises(TypeError):
                fn(*args)

    def test_outside_the_domain_raises_naming_the_argument(self, fn, domains):
        for i, (name, hi) in enumerate(domains.items()):
            for bad in (float("nan"), -2.0 * CLAMP_TOL, hi + 2.0 * CLAMP_TOL):
                for arg in (bad, np.array([hi / 3.0, bad])):
                    args = [h / 3.0 for h in domains.values()]
                    args[i] = arg
                    with pytest.raises(DomainError, match=f"^{name} must lie in"):
                        fn(*args)

    def test_empty_arrays_pass(self, fn, domains):
        out = fn(*(np.empty(0) for _ in domains))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_the_input_is_never_written(self, fn, domains):
        # inside the interval, and drifted within tolerance past each end
        for drift in (0.0, 0.5 * CLAMP_TOL):
            args = [np.array([-drift, hi / 3.0, hi / 2.0, hi + drift]) for hi in domains.values()]
            kept = [a.copy() for a in args]
            for a in args:
                a.flags.writeable = False
            fn(*args)
            for a, k in zip(args, kept):
                assert a.tobytes() == k.tobytes()


class TestClampInterval:
    """The one check behind every closed form: one min and one max, and a copy only to clamp."""

    def test_nan_anywhere_in_an_array_raises(self):
        for i in range(5):
            arr = np.linspace(0.0, 1.0, 5)
            arr[i] = np.nan
            with pytest.raises(DomainError, match="^s must lie in"):
                infofn._clamp_interval(arr, 1.0, "s")
        with pytest.raises(DomainError):
            infofn._clamp_interval(np.full(3, np.nan), 1.0, "s")

    def test_an_empty_array_passes(self):
        for empty in (np.empty(0), np.empty((0, 3)), []):
            out = infofn._clamp_interval(empty, 1.0, "s")
            assert isinstance(out, np.ndarray) and out.shape == np.shape(empty)

    def test_an_array_inside_is_returned_uncopied_with_the_bits_of_clip(self, rng):
        arr = np.concatenate([[-0.0, 0.0, 0.5, 5e-324], rng.uniform(0.0, 0.5, 1000)])
        out = infofn._clamp_interval(arr, 0.5, "y")
        assert out is arr
        assert out.tobytes() == np.clip(arr, 0.0, 0.5).tobytes()

    def test_drift_is_clipped_into_a_copy(self):
        arr = np.array([-0.5 * CLAMP_TOL, 0.25, 1.0 + 0.5 * CLAMP_TOL])
        kept = arr.copy()
        out = infofn._clamp_interval(arr, 1.0, "s")
        assert out.tolist() == [0.0, 0.25, 1.0]
        assert arr.tobytes() == kept.tobytes()

    def test_a_scalar_comes_back_as_float64(self):
        drifted = (-0.5 * CLAMP_TOL, np.array(1.0 + 0.5 * CLAMP_TOL))
        for s in (0.25, np.float64(0.25), np.array(0.25), 1, np.float32(0.25), *drifted):
            out = infofn._clamp_interval(s, 1.0, "s")
            assert type(out) is np.float64
            assert out == min(max(float(s), 0.0), 1.0)


@pytest.mark.parametrize("fn", [f2, xi, g_fn], ids=lambda fn: fn.__name__)
def test_two_arguments_broadcast(fn):
    a, b, c = 0.05, 0.1, 0.2
    out = fn(a, [b, c])
    assert isinstance(out, np.ndarray) and out.tolist() == [fn(a, b), fn(a, c)]
    assert fn(np.full((2, 1), a), np.full(3, b)).shape == (2, 3)


@pytest.mark.parametrize(
    "call, limit",
    [
        (mu_fn, 1),
        (lambda a: g_fn(a, a), 2),
        (lambda a: xi(a, a), 2),
        (lambda a: bounds._CAPS["erasure-fb"](a, a, 2.0 * a), 3),
        (lambda a: bounds._CAPS["cover-leung"](a, a), 5),
        (lambda a: bounds._CAPS["dbpc1"](a, a, 2.0 * a), 4),
    ],
    ids=["mu_fn", "g_fn", "xi", "erasure_caps", "cl_caps", "db_caps"],
)
def test_each_input_is_checked_once(monkeypatch, call, limit):
    # a composite passes a value it has checked, or a checked function made, to the unchecked forms
    checks = []
    clamp = infofn._clamp_interval

    def counting(s, hi, name):
        checks.append(name)
        return clamp(s, hi, name)

    monkeypatch.setattr(infofn, "_clamp_interval", counting)
    call(np.linspace(0.0, 0.25, 11))
    assert len(checks) <= limit, checks
