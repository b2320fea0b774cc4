import numpy as np
import pytest

from macfb import _kernels
from macfb.channel import Channel, JointInputDistribution, cutset_quantities, info_quantities


def random_batch(rng, n, k):
    p = rng.dirichlet(np.ones(k), size=n)
    q1 = rng.uniform(size=(n, k))
    q2 = rng.uniform(size=(n, k))
    return p, q1, q2


def test_backend_reported():
    assert _kernels.BACKEND in ("compiled", "numpy")
    assert set(_kernels.backends()) >= {"numpy"}


@pytest.mark.skipif(not _kernels.HAVE_COMPILED, reason="extension not built")
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", [_kernels.KIND_NOISY, _kernels.KIND_ERASURE])
def test_compiled_matches_numpy_input_stats(rng, k, kind):
    backends = _kernels.backends()
    p, q1, q2 = random_batch(rng, 512, k)
    got = backends["compiled"].input_stats(p, q1, q2, kind)
    want = backends["numpy"].input_stats(p, q1, q2, kind)
    np.testing.assert_allclose(got, want, atol=1e-13, rtol=0)


@pytest.mark.skipif(not _kernels.HAVE_COMPILED, reason="extension not built")
def test_compiled_matches_numpy_cutset(rng):
    backends = _kernels.backends()
    joint = rng.dirichlet(np.ones(4), size=1024)
    got = backends["compiled"].cutset_stats(joint, _kernels.KIND_NOISY)
    want = backends["numpy"].cutset_stats(joint, _kernels.KIND_NOISY)
    np.testing.assert_allclose(got, want, atol=1e-13, rtol=0)


@pytest.mark.parametrize("name", ["numpy", "compiled"])
def test_kernels_match_reference_channel_module(rng, name):
    backends = _kernels.backends()
    if name not in backends:
        pytest.skip("extension not built")
    mod = backends[name]
    for kind, channel in ((_kernels.KIND_NOISY, Channel.NOISY_ADDITIVE), (_kernels.KIND_ERASURE, Channel.ERASURE)):
        for k in (1, 2, 3):
            p, q1, q2 = random_batch(rng, 32, k)
            stats = mod.input_stats(p, q1, q2, kind)
            for i in range(stats.shape[0]):
                q = info_quantities(channel, JointInputDistribution(p[i], q1[i], q2[i]))
                ref = [
                    q.h_x1_given_t,
                    q.h_x2_given_t,
                    q.i_x1_y_given_x2,
                    q.i_x2_y_given_x1,
                    q.i_x1x2_y,
                    q.h_y,
                    q.h_x1_given_y_x2_t,
                    q.h_x2_given_y_x1_t,
                ]
                np.testing.assert_allclose(stats[i], ref, atol=1e-12, rtol=0)


@pytest.mark.parametrize("name", ["numpy", "compiled"])
def test_cutset_kernel_matches_reference(rng, name):
    backends = _kernels.backends()
    if name not in backends:
        pytest.skip("extension not built")
    mod = backends[name]
    joint = rng.dirichlet(np.ones(4), size=64)
    stats = mod.cutset_stats(joint, _kernels.KIND_NOISY)
    for i in range(64):
        ref = cutset_quantities(Channel.NOISY_ADDITIVE, joint[i])
        np.testing.assert_allclose(stats[i], ref, atol=1e-12, rtol=0)


def test_chunked_equals_unchunked(monkeypatch, rng):
    from macfb._kernels import _fallback

    p, q1, q2 = random_batch(rng, 1000, 2)
    full = _fallback.input_stats(p, q1, q2, _fallback.KIND_NOISY)
    monkeypatch.setattr(_fallback, "CHUNK", 7)
    chunked = _fallback.input_stats(p, q1, q2, _fallback.KIND_NOISY)
    np.testing.assert_array_equal(full, chunked)


def _backend_in_child(forced: bool) -> str:
    """Import macfb in a fresh interpreter with a stub compiled extension planted.

    The stub stands in for ``macfb._kernels._core``, so the backend switch is
    exercised whether or not the real extension is built.  The child checks
    that the switch picked the fallback's functions when ``MACFB_KERNELS=numpy``
    is set and the stub's otherwise, and prints the reported backend.
    """
    import os
    import subprocess
    import sys

    code = (
        "import sys, types\n"
        "stub = types.ModuleType('macfb._kernels._core')\n"
        "def input_stats(*args): raise AssertionError('stub called')\n"
        "def cutset_stats(*args): raise AssertionError('stub called')\n"
        "stub.input_stats, stub.cutset_stats = input_stats, cutset_stats\n"
        "sys.modules['macfb._kernels._core'] = stub\n"
        "import macfb\n"
        "from macfb import _kernels\n"
        "from macfb._kernels import _fallback\n"
        f"chosen = _fallback if {forced} else stub\n"
        "assert _kernels.HAVE_COMPILED\n"
        "assert _kernels.input_stats is chosen.input_stats\n"
        "assert _kernels.cutset_stats is chosen.cutset_stats\n"
        "print(_kernels.BACKEND)\n"
    )
    # Inherit the caller's environment so the child imports macfb the same way
    # the parent does (installed, or from a source checkout via PYTHONPATH).
    env = {k: v for k, v in os.environ.items() if k != "MACFB_KERNELS"}
    if forced:
        env["MACFB_KERNELS"] = "numpy"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_env_var_forces_fallback():
    assert _backend_in_child(forced=True) == "numpy"


def test_compiled_backend_selected_when_not_forced():
    assert _backend_in_child(forced=False) == "compiled"
