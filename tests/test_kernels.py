import numpy as np
import pytest

import macfb
from macfb import _kernels
from macfb.channel import Channel, JointInputDistribution, cutset_quantities, info_quantities


def random_batch(rng, n, k):
    p = rng.dirichlet(np.ones(k), size=n)
    q1 = rng.uniform(size=(n, k))
    q2 = rng.uniform(size=(n, k))
    return p, q1, q2


def zero_atom_batch(rng, n, k):
    """Inputs whose joint law has zero atoms: p_t = 0 entries and q in {0, 1}."""
    p, q1, q2 = random_batch(rng, n, k)
    zero = rng.uniform(size=(n, k)) < 0.4
    zero[np.arange(n), rng.integers(k, size=n)] = False  # keep one value of T per row
    p[zero] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    q1[::2] = np.round(q1[::2])
    q2[1::3] = np.round(q2[1::3])
    q1[::5, 0] = 1.0
    q2[::7, -1] = 0.0
    return p, q1, q2


@pytest.mark.parametrize("backend", ["numpy"])
def test_kernels_match_reference_channel_module(rng, backend):
    assert macfb.KERNEL_BACKEND == backend
    for kind, channel in ((_kernels.KIND_NOISY, Channel.NOISY_ADDITIVE), (_kernels.KIND_ERASURE, Channel.ERASURE)):
        for k in (1, 2, 3):
            for batch in (random_batch, zero_atom_batch):
                p, q1, q2 = batch(rng, 32, k)
                stats = _kernels.input_stats(p, q1, q2, kind)
                assert stats.shape == (32, len(_kernels.STAT_COLUMNS))
                for i in range(stats.shape[0]):
                    q = info_quantities(channel, JointInputDistribution(p[i], q1[i], q2[i]))
                    ref = [getattr(q, name) for name in _kernels.STAT_COLUMNS]
                    np.testing.assert_allclose(stats[i], ref, atol=1e-13, rtol=0)


@pytest.mark.parametrize("backend", ["numpy"])
def test_cutset_kernel_matches_reference(rng, backend):
    assert macfb.KERNEL_BACKEND == backend
    joint = rng.dirichlet(np.ones(4), size=64)
    stats = _kernels.cutset_stats(joint, _kernels.KIND_NOISY)
    for i in range(64):
        ref = cutset_quantities(Channel.NOISY_ADDITIVE, joint[i])
        np.testing.assert_allclose(stats[i], ref, atol=1e-12, rtol=0)


def test_chunked_equals_unchunked(monkeypatch, rng):
    p, q1, q2 = random_batch(rng, 1000, 2)
    full = _kernels.input_stats(p, q1, q2, _kernels.KIND_NOISY)
    monkeypatch.setattr(_kernels, "CHUNK", 7)
    chunked = _kernels.input_stats(p, q1, q2, _kernels.KIND_NOISY)
    np.testing.assert_array_equal(full, chunked)
