import math
from collections import defaultdict

import numpy as np
import pytest

from macfb.bounds import cover_leung_witness, erasure_fb_witness
from macfb.channel import (
    Channel,
    InfoQuantities,
    JointInputDistribution,
    cutset_quantities,
    info_quantities,
    output_distribution,
    verify_half_entropy_identity,
)
from macfb.feasible import u_triple_of
from macfb.infofn import InvalidDistributionError, binary_entropy, f2, mu_fn, phi

# the symmetric-rate balance-point witness, to the printed precision
WITNESS = JointInputDistribution(
    p_t=[0.5, 0.5], q1=[0.095109, 0.904891], q2=[0.322050, 0.677950]
)


def dist(p, q1, q2):
    return JointInputDistribution(np.atleast_1d(p), np.atleast_1d(q1), np.atleast_1d(q2))


def brute_quantities(channel, d):
    """Independent oracle: dictionary-based enumeration of the joint law."""
    atoms = defaultdict(float)
    ny = channel.output_alphabet_size
    for t in range(d.t_card):
        for x1, px1 in ((0, d.q1[t]), (1, 1 - d.q1[t])):
            for x2, px2 in ((0, d.q2[t]), (1, 1 - d.q2[t])):
                w = d.p_t[t] * px1 * px2
                if channel is Channel.NOISY_ADDITIVE:
                    atoms[(t, x1, x2, x1 + x2)] += w / 2
                    atoms[(t, x1, x2, x1 + x2 + 1)] += w / 2
                else:
                    atoms[(t, x1, x2, x1 + x2)] += w

    def ent(keep):
        marg = defaultdict(float)
        for key, w in atoms.items():
            marg[tuple(key[i] for i in keep)] += w
        return -sum(w * math.log2(w) for w in marg.values() if w > 0)

    T, X1, X2, Y = 0, 1, 2, 3
    return InfoQuantities(
        h_x1_given_t=ent((T, X1)) - ent((T,)),
        h_x2_given_t=ent((T, X2)) - ent((T,)),
        i_x1_y_given_x2=(ent((X1, X2)) - ent((X2,))) - (ent((X1, X2, Y)) - ent((X2, Y))),
        i_x2_y_given_x1=(ent((X1, X2)) - ent((X1,))) - (ent((X1, X2, Y)) - ent((X1, Y))),
        i_x1x2_y=ent((Y,)) - (ent((X1, X2, Y)) - ent((X1, X2))),
        h_y=ent((Y,)),
        h_x1_given_y_x2_t=ent((T, X1, X2, Y)) - ent((T, X2, Y)),
        h_x2_given_y_x1_t=ent((T, X1, X2, Y)) - ent((T, X1, Y)),
    )


class TestOutputDistribution:
    def test_noisy_inputs_pinned_to_zero(self):
        p_y = output_distribution(Channel.NOISY_ADDITIVE, dist(1.0, 1.0, 1.0))
        assert np.allclose(p_y, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_erasure_fair_inputs(self):
        p_y = output_distribution(Channel.ERASURE, dist(1.0, 0.5, 0.5))
        assert np.allclose(p_y, [0.25, 0.5, 0.25], atol=1e-15)

    def test_noisy_witness_middle_mass(self):
        p_y = output_distribution(Channel.NOISY_ADDITIVE, WITNESS)
        assert p_y[1] + p_y[2] == pytest.approx((1 + 0.355899) / 2, abs=1e-5)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            d = dist(rng.dirichlet(np.ones(3)), rng.uniform(size=3), rng.uniform(size=3))
            for ch in Channel:
                assert output_distribution(ch, d).sum() == pytest.approx(1.0, abs=1e-12)


class TestInfoQuantities:
    def test_noisy_uniform_independent(self):
        q = info_quantities(Channel.NOISY_ADDITIVE, dist(1.0, 0.5, 0.5))
        # H(Y) - 1 with P_Y = (1/8, 3/8, 3/8, 1/8)
        h4 = -2 * (1 / 8) * math.log2(1 / 8) - 2 * (3 / 8) * math.log2(3 / 8)
        assert q.i_x1x2_y == pytest.approx(h4 - 1.0, abs=1e-12)
        assert q.i_x1_y_given_x2 == pytest.approx(0.5, abs=1e-12)
        assert q.i_x2_y_given_x1 == pytest.approx(0.5, abs=1e-12)

    def test_erasure_uniform_inputs(self):
        q = info_quantities(Channel.ERASURE, dist(1.0, 0.5, 0.5))
        assert q.h_y == pytest.approx(1.5, abs=1e-12)
        assert q.i_x1x2_y == pytest.approx(1.5, abs=1e-12)

    def test_single_t_conditional_entropy(self, rng):
        for _ in range(10):
            q1 = float(rng.uniform())
            q = info_quantities(Channel.NOISY_ADDITIVE, dist(1.0, q1, rng.uniform()))
            assert q.h_x1_given_t == pytest.approx(binary_entropy(q1), abs=1e-12)

    def test_matches_brute_enumeration(self, rng):
        for _ in range(40):
            k = int(rng.integers(1, 4))
            d = dist(rng.dirichlet(np.ones(k)), rng.uniform(size=k), rng.uniform(size=k))
            for ch in Channel:
                got = info_quantities(ch, d)
                want = brute_quantities(ch, d)
                for name in vars(want):
                    assert getattr(got, name) == pytest.approx(
                        getattr(want, name), abs=1e-12
                    ), f"{ch} {name}"

    def test_matches_high_precision_arithmetic(self, rng):
        # recompute a few cases with 50-digit arithmetic to rule out any
        # systematic float64 bias in the enumeration
        import mpmath

        mpmath.mp.dps = 50

        def ent(values):
            return float(-sum(w * mpmath.log(w, 2) for w in values if w > 0))

        for _ in range(5):
            d = dist(rng.dirichlet(np.ones(2)), rng.uniform(size=2), rng.uniform(size=2))
            atoms = {}
            for t in range(2):
                for x1, px1 in ((0, d.q1[t]), (1, 1 - d.q1[t])):
                    for x2, px2 in ((0, d.q2[t]), (1, 1 - d.q2[t])):
                        w = mpmath.mpf(d.p_t[t]) * mpmath.mpf(px1) * mpmath.mpf(px2)
                        for y in (x1 + x2, x1 + x2 + 1):
                            atoms[(t, x1, x2, y)] = atoms.get((t, x1, x2, y), 0) + w / 2
            got = info_quantities(Channel.NOISY_ADDITIVE, d)

            def marg(keep):
                out = {}
                for key, w in atoms.items():
                    k = tuple(key[i] for i in keep)
                    out[k] = out.get(k, 0) + w
                return ent(out.values())

            assert got.h_y == pytest.approx(marg((3,)), abs=1e-13)
            assert got.h_x1_given_t == pytest.approx(marg((0, 1)) - marg((0,)), abs=1e-13)
            assert got.i_x1x2_y == pytest.approx(
                marg((3,)) - (marg((1, 2, 3)) - marg((1, 2))), abs=1e-13
            )

    def test_noisy_conditional_output_entropy_is_one(self, rng):
        # H(Y | X1, X2) = 1 exactly: i_x1x2_y = h_y - 1
        for _ in range(20):
            d = dist(rng.dirichlet(np.ones(2)), rng.uniform(size=2), rng.uniform(size=2))
            q = info_quantities(Channel.NOISY_ADDITIVE, d)
            assert q.h_y - q.i_x1x2_y == pytest.approx(1.0, abs=1e-12)

    def test_invariant_rejects_impossible_values(self):
        with pytest.raises(ValueError):
            InfoQuantities(0.1, 0.1, 0.1, 0.1, 1.2, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            InfoQuantities(-0.5, 0.1, 0.1, 0.1, 0.5, 1.0, 0.1, 0.1)


class TestClosedFormCaps:
    def test_sampled_distributions_respect_caps(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 4))
            d = dist(rng.dirichlet(np.ones(k)), rng.uniform(size=k), rng.uniform(size=k))
            u1, u2, u = u_triple_of(d)
            qn = info_quantities(Channel.NOISY_ADDITIVE, d)
            qe = info_quantities(Channel.ERASURE, d)
            slack = 1e-10
            assert qn.h_x1_given_t <= binary_entropy(phi(2 * u1)) + slack
            assert qn.h_x2_given_t <= binary_entropy(phi(2 * u2)) + slack
            assert qn.i_x1_y_given_x2 <= 0.5 * binary_entropy(u) + slack
            assert qn.i_x2_y_given_x1 <= 0.5 * binary_entropy(u) + slack
            assert qn.i_x1x2_y <= binary_entropy((1 - u) / 2) + slack
            assert qe.h_y <= mu_fn(u) + slack

    def test_witnesses_attain_caps(self, rng):
        for u1, u2 in rng.uniform(0.0, 0.25, (50, 2)):
            qn = info_quantities(Channel.NOISY_ADDITIVE, cover_leung_witness(u1, u2))
            assert qn.h_x1_given_t == pytest.approx(binary_entropy(phi(2 * u1)), abs=1e-10)
            assert qn.h_x2_given_t == pytest.approx(binary_entropy(phi(2 * u2)), abs=1e-10)
            f = f2(2 * u1, 2 * u2)
            assert qn.i_x1x2_y == pytest.approx(binary_entropy((1 - f) / 2), abs=1e-10)
            qe = info_quantities(Channel.ERASURE, erasure_fb_witness(u1, u2))
            assert qe.h_x1_given_t == pytest.approx(binary_entropy(phi(2 * u1)), abs=1e-10)
            assert qe.h_y == pytest.approx(mu_fn(f), abs=1e-10)


class TestHalfEntropyIdentity:
    def test_uniform(self):
        assert verify_half_entropy_identity(dist(1.0, 0.5, 0.5)) == (0.5, 0.5)

    def test_deterministic_first_input(self):
        lhs, rhs = verify_half_entropy_identity(dist(1.0, 1.0, 0.3))
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_witness(self):
        lhs, rhs = verify_half_entropy_identity(WITNESS)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_random_distributions_both_users(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 4))
            d = dist(rng.dirichlet(np.ones(k)), rng.uniform(size=k), rng.uniform(size=k))
            lhs, rhs = verify_half_entropy_identity(d)
            assert abs(lhs - rhs) <= 1e-12
            q = info_quantities(Channel.NOISY_ADDITIVE, d)
            assert abs(q.h_x2_given_y_x1_t - 0.5 * q.h_x2_given_t) <= 1e-12


class TestCutsetQuantities:
    def test_independent_uniform(self):
        i1, i2, isum = cutset_quantities(Channel.NOISY_ADDITIVE, [0.25] * 4)
        assert i1 == pytest.approx(0.5, abs=1e-12)
        assert i2 == pytest.approx(0.5, abs=1e-12)
        h4 = -2 * (1 / 8) * math.log2(1 / 8) - 2 * (3 / 8) * math.log2(3 / 8)
        assert isum == pytest.approx(h4 - 1.0, abs=1e-12)

    def test_fully_correlated(self):
        i1, i2, isum = cutset_quantities(Channel.NOISY_ADDITIVE, [0.5, 0.0, 0.0, 0.5])
        assert i1 == pytest.approx(0.0, abs=1e-12)
        assert i2 == pytest.approx(0.0, abs=1e-12)
        assert isum == pytest.approx(1.0, abs=1e-12)

    def test_invalid_joint(self):
        with pytest.raises(InvalidDistributionError):
            cutset_quantities(Channel.NOISY_ADDITIVE, [0.5, 0.5, 0.5, -0.5])
        with pytest.raises(InvalidDistributionError):
            cutset_quantities(Channel.NOISY_ADDITIVE, [0.5, 0.5, np.nan, 0.0])


class TestJointInputDistribution:
    def test_shape_mismatch(self):
        with pytest.raises(InvalidDistributionError):
            JointInputDistribution([1.0], [0.5, 0.5], [0.5])

    def test_q_out_of_range(self):
        with pytest.raises(InvalidDistributionError):
            JointInputDistribution([1.0], [1.5], [0.5])
        # NaN fails every comparison, so it must not pass the range check
        with pytest.raises(InvalidDistributionError):
            JointInputDistribution([1.0], [np.nan], [0.5])
        with pytest.raises(InvalidDistributionError):
            JointInputDistribution([1.0], [0.5], [np.nan])

    def test_p_not_normalized(self):
        with pytest.raises(InvalidDistributionError):
            JointInputDistribution([0.6, 0.6], [0.5, 0.5], [0.5, 0.5])
