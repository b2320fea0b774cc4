import numpy as np
import pytest

import macfb
from macfb import _kernels, oracle
from macfb.channel import Channel, JointInputDistribution, cutset_quantities, info_quantities, transition_tensor
from macfb.infofn import plogp


KINDS = (_kernels.KIND_NOISY, _kernels.KIND_ERASURE)


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


def test_kernels_match_reference_channel_module(rng):
    assert macfb.KERNEL_BACKEND == "numpy"
    for kind, channel in ((_kernels.KIND_NOISY, Channel.NOISY_ADDITIVE), (_kernels.KIND_ERASURE, Channel.ERASURE)):
        for k in (1, 2, 3):
            for batch in (random_batch, zero_atom_batch):
                p, q1, q2 = batch(rng, 32, k)
                stats = _kernels.input_stats(p, q1, q2, kind, _kernels.STAT_COLUMNS)
                assert stats.shape == (32, len(_kernels.STAT_COLUMNS))
                for i in range(stats.shape[0]):
                    q = info_quantities(channel, JointInputDistribution(p[i], q1[i], q2[i]))
                    ref = [getattr(q, name) for name in _kernels.STAT_COLUMNS]
                    np.testing.assert_allclose(stats[i], ref, atol=1e-13, rtol=0)


def test_cutset_kernel_matches_reference(rng):
    assert macfb.KERNEL_BACKEND == "numpy"
    joint = rng.dirichlet(np.ones(4), size=64)
    stats = _kernels.cutset_stats(joint)
    for i in range(64):
        ref = cutset_quantities(Channel.NOISY_ADDITIVE, joint[i])
        np.testing.assert_allclose(stats[i], ref, atol=1e-12, rtol=0)


def test_chunked_equals_unchunked(monkeypatch, rng):
    # each kind has its own plans, and each K its own table shapes
    cases = [(kind, random_batch(rng, 1000, k)) for kind in KINDS for k in (1, 2, 3)]
    joint = rng.dirichlet(np.ones(4), size=1000)
    full = [_kernels.input_stats(*batch, kind, _kernels.STAT_COLUMNS) for kind, batch in cases]
    full_cutset = _kernels.cutset_stats(joint)
    monkeypatch.setattr(_kernels, "CHUNK", 7)
    for (kind, batch), stats in zip(cases, full):
        np.testing.assert_array_equal(_kernels.input_stats(*batch, kind, _kernels.STAT_COLUMNS), stats)
    np.testing.assert_array_equal(_kernels.cutset_stats(joint), full_cutset)


#: the column tuples that the oracle objectives, ``verify_characterization``
#: and the soundness check request
CALLER_COLUMNS = (
    *(columns for _, columns, _ in oracle._OBJECTIVE_FORMS.values()),
    _kernels.STAT_COLUMNS,
    ("h_y",),
    _kernels.STAT_COLUMNS[:5],
    ("h_x1_given_t", "h_x2_given_t", "h_y"),
)


@pytest.mark.parametrize("kind", KINDS)
def test_column_subsets_equal_the_all_column_call_bitwise(rng, kind):
    subsets = [(name,) for name in _kernels.STAT_COLUMNS]
    subsets += [*CALLER_COLUMNS, _kernels.STAT_COLUMNS[::-1]]
    for k in (1, 2, 3):
        for n in (1, 7, _kernels.CHUNK + 1):
            p, q1, q2 = zero_atom_batch(rng, n, k)
            full = _kernels.input_stats(p, q1, q2, kind, _kernels.STAT_COLUMNS)
            for columns in subsets:
                got = _kernels.input_stats(p, q1, q2, kind, columns)
                index = [_kernels.STAT_COLUMNS.index(name) for name in columns]
                np.testing.assert_array_equal(got, full[:, index], err_msg=f"K = {k}, n = {n}, {columns}")


def test_only_the_requested_tables_are_logged(monkeypatch, rng):
    # the rows of all the tables whose entropies one K = 2 chunk takes
    rows = []

    def counted(table):
        rows.append(table.shape[0])
        return plogp(table)

    monkeypatch.setattr(_kernels, "plogp", counted)
    p, q1, q2 = random_batch(rng, 16, 2)
    pins = [
        (_kernels.KIND_NOISY, _kernels.STAT_COLUMNS, 82),
        (_kernels.KIND_NOISY, oracle._OBJECTIVE_FORMS["db1_symmetric_direct"][1], 34),
        (_kernels.KIND_NOISY, oracle._OBJECTIVE_FORMS["cl_symmetric_direct"][1], 26),
        (_kernels.KIND_ERASURE, ("h_y",), 3),
    ]
    for kind, columns, logged in pins:
        rows.clear()
        _kernels.input_stats(p, q1, q2, kind, columns)
        assert sum(rows) == logged, columns


def _reduceat_marginal(atoms, plan):
    """The marginal as ``np.add.reduceat`` sums the groups of ``plan``."""
    order = np.concatenate(plan)
    starts = np.cumsum([0] + [len(group) for group in plan[:-1]])
    return np.add.reduceat(atoms[order], starts, axis=0)


@pytest.mark.parametrize("kind", KINDS)
def test_plans_group_the_atoms_by_key(kind):
    trans = transition_tensor(_kernels._CHANNELS[kind])
    x1, x2, y = np.nonzero(trans)
    ny = trans.shape[2]
    plans = _kernels._atoms(kind)[3:]
    for keys, plan in zip((x1 * ny + y, x2 * ny + y, y), plans):
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
        assert plan == tuple(tuple(group.tolist()) for group in np.split(order, starts[1:]))
    # the noisy adder's y marginal sums groups of three atoms
    assert max(len(group) for group in plans[2]) == (3 if kind == _kernels.KIND_NOISY else 2)


@pytest.mark.parametrize("kind", KINDS)
def test_marginals_equal_reduceat_bitwise(monkeypatch, rng, kind):
    marginal = _kernels._marginal
    seen = set()

    def checked(atoms, plan):
        got = marginal(atoms, plan)
        np.testing.assert_array_equal(got, _reduceat_marginal(atoms, plan))
        seen.add(plan)
        return got

    batches = [zero_atom_batch(rng, n, k) for k in (1, 2, 3) for n in (1, 2, _kernels.CHUNK + 1)]
    stats = []
    monkeypatch.setattr(_kernels, "_marginal", checked)
    for p, q1, q2 in batches:
        stats.append(_kernels.input_stats(p, q1, q2, kind, _kernels.STAT_COLUMNS))
    assert seen == set(_kernels._atoms(kind)[3:])
    monkeypatch.setattr(_kernels, "_marginal", _reduceat_marginal)
    for (p, q1, q2), got in zip(batches, stats):
        np.testing.assert_array_equal(_kernels.input_stats(p, q1, q2, kind, _kernels.STAT_COLUMNS), got)


def _batches(rng):
    """(name, kernel on rows i:j, n) for the cut-set kernel, and the input kernel on both channels and 1-3 values of T.

    Each batch has n = chunk + 1 rows, so its last row is a one-row chunk.
    """
    batches = []
    joint = rng.dirichlet(np.ones(4), size=_kernels.CHUNK + 1)
    joint[::5, 1] = 0.0
    batches.append(("cutset", lambda i, j: _kernels.cutset_stats(joint[i:j]), len(joint)))
    for kind in KINDS:
        for k in (1, 2, 3):
            p, q1, q2 = zero_atom_batch(rng, _kernels.CHUNK + 1, k)
            batches.append((f"input-{kind}-{k}", lambda i, j, p=p, q1=q1, q2=q2, kind=kind: _kernels.input_stats(
                p[i:j], q1[i:j], q2[i:j], kind, _kernels.STAT_COLUMNS), len(p)))
    return batches


def test_rows_do_not_depend_on_the_batch(rng):
    for name, kernel, n in _batches(rng):
        batch = kernel(0, n)
        for i in (0, 1, 100, n - 2, n - 1):
            np.testing.assert_array_equal(kernel(i, i + 1), batch[i : i + 1], err_msg=f"{name} row {i} alone")
        for i in (0, 100, n - 2):
            np.testing.assert_array_equal(kernel(i, i + 2), batch[i : i + 2], err_msg=f"{name} rows {i}, {i + 1}")


def test_cutset_swap_equivariant(rng):
    # swapping X1 and X2 swaps the first two columns bit for bit, so swapped
    # joints tie exactly in the oracle's lex-min tie-break
    joint = rng.dirichlet(np.ones(4), size=2000)
    joint[::7, 3] = 0.0
    swapped = joint[:, [0, 2, 1, 3]]
    stats = _kernels.cutset_stats(joint)
    np.testing.assert_array_equal(_kernels.cutset_stats(swapped), stats[:, [1, 0, 2]])
