import re
import tracemalloc

import numpy as np
import pytest

import macfb
from macfb import _kernels, oracle
from macfb.channel import Channel, JointInputDistribution, cutset_quantities, info_quantities, transition_tensor
from macfb.infofn import plogp


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
    # every column is a noisy-adder quantity but h_y_erasure, H(Y) on the erasure adder
    assert macfb.KERNEL_BACKEND == "numpy"
    for k in (1, 2, 3):
        for batch in (random_batch, zero_atom_batch):
            p, q1, q2 = batch(rng, 32, k)
            stats = _kernels.input_stats(p, q1, q2, _kernels.STAT_COLUMNS)
            assert stats.shape == (32, len(_kernels.STAT_COLUMNS))
            for i in range(stats.shape[0]):
                d = JointInputDistribution(p[i], q1[i], q2[i])
                noisy, erasure = (info_quantities(channel, d) for channel in Channel)
                ref = [erasure.h_y if name == "h_y_erasure" else getattr(noisy, name) for name in _kernels.STAT_COLUMNS]
                np.testing.assert_allclose(stats[i], ref, atol=1e-13, rtol=0)


def _t_marginal(p, q1, q2):
    """Rows (P(00), P(01), P(10), P(11)) of the sum over T of P(t) P(x1 | t) P(x2 | t), added in T order."""
    b1 = np.stack([q1, 1.0 - q1], axis=1)  # (n, 2, K)
    b2 = np.stack([q2, 1.0 - q2], axis=1)
    w = (p[:, None] * b1)[:, :, None] * b2[:, None]  # (n, 2, 2, K)
    joint = w[..., 0].copy()
    for t in range(1, p.shape[1]):
        joint += w[..., t]
    return joint.reshape(-1, 4)


def test_input_mutual_informations_are_the_cutset_of_the_t_marginal_bitwise(rng):
    columns = ("i_x1_y_given_x2", "i_x2_y_given_x1", "i_x1x2_y")
    for k in (1, 2, 3):
        for batch in (random_batch, zero_atom_batch):
            for n in (1, 33):
                p, q1, q2 = batch(rng, n, k)
                np.testing.assert_array_equal(
                    _kernels.input_stats(p, q1, q2, columns), _kernels.cutset_stats(_t_marginal(p, q1, q2))
                )


def test_cutset_kernel_matches_reference(rng):
    assert macfb.KERNEL_BACKEND == "numpy"
    joint = rng.dirichlet(np.ones(4), size=64)
    stats = _kernels.cutset_stats(joint)
    for i in range(64):
        ref = cutset_quantities(Channel.NOISY_ADDITIVE, joint[i])
        np.testing.assert_allclose(stats[i], ref, atol=1e-12, rtol=0)


def test_chunked_equals_unchunked(monkeypatch, rng):
    # each K has its own table shapes
    cases = [random_batch(rng, 1000, k) for k in (1, 2, 3)]
    joint = rng.dirichlet(np.ones(4), size=1000)
    full = [_kernels.input_stats(*batch, _kernels.STAT_COLUMNS) for batch in cases]
    full_cutset = _kernels.cutset_stats(joint)
    monkeypatch.setattr(_kernels, "CHUNK", 7)
    for batch, stats in zip(cases, full):
        np.testing.assert_array_equal(_kernels.input_stats(*batch, _kernels.STAT_COLUMNS), stats)
    np.testing.assert_array_equal(_kernels.cutset_stats(joint), full_cutset)


#: the column tuples that the oracle objectives, ``verify_characterization``,
#: the soundness check and the exact pentagons request, each once
CALLER_COLUMNS = tuple(dict.fromkeys((
    oracle._OBJECTIVE_COLUMNS,
    oracle._CHECKED_COLUMNS,
    _kernels.STAT_COLUMNS,
    oracle._INEQUALITIES,
    *(columns for columns, _ in oracle._PENTAGONS.values()),
)))


#: the columns ``cutset_stats`` requests
CUTSET_COLUMNS = ("i_x1_y_given_x2", "i_x2_y_given_x1", "i_x1x2_y")

#: the columns of each seeding of the graph: ``input_stats`` seeds it with
#: P(t) and the input laws, ``cutset_stats`` at P(x1, x2)
SEEDED_COLUMNS = (
    _kernels.STAT_COLUMNS,
    (*CUTSET_COLUMNS, "h_y", "h_y_erasure"),
)


def _seeded_stats(seeding, p, q1, q2, columns):
    if seeding == 0:
        return _kernels.input_stats(p, q1, q2, columns)
    x1x2 = np.ascontiguousarray(np.transpose(_t_marginal(p, q1, q2))).reshape(2, 2, -1)
    return _kernels._stats({"x1x2": x1x2}, columns)


@pytest.mark.parametrize("seeding", range(len(SEEDED_COLUMNS)))
def test_column_subsets_equal_the_all_column_call_bitwise(rng, seeding):
    all_columns = SEEDED_COLUMNS[seeding]
    subsets = [(name,) for name in all_columns]
    subsets += [columns for columns in CALLER_COLUMNS if set(columns) <= set(all_columns)]
    subsets += [CUTSET_COLUMNS, all_columns[::-1]]
    for k in (1, 2, 3):
        for n in (1, 7, _kernels.CHUNK + 1):
            p, q1, q2 = zero_atom_batch(rng, n, k)
            full = _seeded_stats(seeding, p, q1, q2, all_columns)
            for columns in subsets:
                got = _seeded_stats(seeding, p, q1, q2, columns)
                index = [all_columns.index(name) for name in columns]
                np.testing.assert_array_equal(got, full[:, index], err_msg=f"K = {k}, n = {n}, {columns}")


#: (seeds, columns) of every plan a caller asks for
CALLER_PLANS = [(("t", "q1", "q2"), columns) for columns in CALLER_COLUMNS] + [(("x1x2",), CUTSET_COLUMNS)]


def test_every_node_comes_after_its_sources():
    graph = list(_kernels._GRAPH)
    for name, (sources, _) in _kernels._GRAPH.items():
        for source in sources:
            assert source in ("t", "q1", "q2") or graph.index(source) < graph.index(name), (name, source)
    assert set(_kernels.STAT_COLUMNS) <= set(graph)


@pytest.mark.parametrize("seeds, columns", CALLER_PLANS)
def test_each_node_is_dropped_right_after_its_last_reader(seeds, columns):
    plan = _kernels._build_plan(seeds, columns)
    built = [name for name, *_ in plan]
    graph = list(_kernels._GRAPH)
    assert built == sorted(built, key=graph.index) and not set(built) & set(seeds)
    last_reader, dropped = {}, {}
    for step, (name, sources, _, drop) in enumerate(plan):
        assert all(source in seeds or source in built[:step] for source in sources), name
        last_reader.update(dict.fromkeys(sources, step))
        for node in drop:
            assert node not in dropped, node
            dropped[node] = step
    assert not set(columns) & set(dropped)
    for name in built:
        if name not in columns:
            assert dropped[name] == last_reader[name], name


@pytest.mark.parametrize("name", ["w", "H(t)", "no_such_column"])
def test_input_stats_rejects_every_name_outside_the_columns(monkeypatch, rng, name):
    logged = []
    monkeypatch.setattr(_kernels, "plogp", lambda table: logged.append(table) or plogp(table))
    with pytest.raises(KeyError, match=re.escape(name)):
        _kernels.input_stats(*random_batch(rng, 4, 2), ("h_y", name))
    assert not logged  # raised before any chunk is built


def test_xy_log_views_tile_its_rows_and_every_node_is_built():
    # the <table>_log views of xy_log cover its 18 rows once each, in order
    n = 3
    shape = _kernels._xy_log(np.full((2, 2, n), 0.25)).shape
    assert np.prod(shape) == 18 * n
    table = np.arange(18 * n, dtype=float).reshape(shape)
    views = [_kernels._GRAPH[f"{name}_log"] for name in _kernels._XY_ROWS]
    assert all(sources == ("xy_log",) for sources, _ in views)
    rows = [how(table) for _, how in views]
    assert all(np.shares_memory(view, table) for view in rows)
    np.testing.assert_array_equal(np.concatenate([view.reshape(-1, n) for view in rows]), table.reshape(-1, n))
    # no node of the graph is left that no caller's plan builds
    plans = [*CALLER_PLANS, (("t", "q1", "q2"), _kernels.STAT_COLUMNS)]
    built = {name for seeds, columns in plans for name, *_ in _kernels._build_plan(seeds, columns)}
    assert built == set(_kernels._GRAPH)


def test_only_the_requested_tables_are_logged(monkeypatch, rng):
    # the entries per batch row that one K = 2 chunk, and one cut-set chunk,
    # takes p log p of: each distinct value of the noisy adder's tables once,
    # the 18 of (X1, X2, Y) all together, in one plogp call, whichever a call reads
    rows = []

    def counted(table):
        rows.append(table.size // table.shape[-1])
        return plogp(table)

    monkeypatch.setattr(_kernels, "plogp", counted)
    p, q1, q2 = random_batch(rng, 16, 2)
    pins = [
        (_kernels.STAT_COLUMNS, 47, 8),
        (oracle._OBJECTIVE_FORMS["db1_symmetric_direct"][0], 28, 4),
        (oracle._OBJECTIVE_FORMS["cl_symmetric_direct"][0], 28, 4),
        (oracle._OBJECTIVE_FORMS["erasure_sum_direct"][0], 3, 1),
        (oracle._OBJECTIVE_COLUMNS, 31, 5),
    ]
    for columns, logged, calls in pins:
        rows.clear()
        _kernels.input_stats(p, q1, q2, columns)
        assert (sum(rows), len(rows)) == (logged, calls), columns
    rows.clear()
    _kernels.cutset_stats(rng.dirichlet(np.ones(4), size=16))
    assert (sum(rows), len(rows)) == (18, 1)


#: rows of one large ``cutset_stats`` call: four times the cut-set region solve's largest, 724
LARGE_ROWS = 2896

#: bound on the traced peak of one ``LARGE_ROWS``-row ``cutset_stats`` call:
#: 50 doubles a row.  Measured (numpy 2.4.6): 1,051,968 bytes, 45.4 doubles a
#: row: the copy of P(x1, x2), the 18-row table and its logs, and the
#: entropies.  So a second table-sized temporary does not fit under it.
CUTSET_PEAK_BOUND = 50 * 8 * LARGE_ROWS


def test_cutset_call_traced_peak_is_bounded(rng):
    joint = rng.dirichlet(np.ones(4), size=LARGE_ROWS)
    _kernels.cutset_stats(joint)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _kernels.cutset_stats(joint)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < CUTSET_PEAK_BOUND, peak


def _add_rows(terms):
    """``terms`` (m, n) added one row after another, the order of the kernels' entropies."""
    acc = terms[0].copy()
    for row in terms[1:]:
        acc += row
    return acc


def _reference_entropies(tables):
    """``H(name)`` of each table of P(x1, x2, ...) or P(...), batch axis last, over every entry, zeros included.

    A table of (X1, X2, ...) is added cell by cell, and the cells as (01 + 10) + 00 + 11.
    """
    out = {}
    for name, table in tables.items():
        n = table.shape[-1]
        if name in ("x1x2", "x1x2y"):
            cells = [[_add_rows(plogp(table[a, b]).reshape(-1, n)) for b in (0, 1)] for a in (0, 1)]
            out[f"H({name})"] = -((cells[0][1] + cells[1][0]) + cells[0][0] + cells[1][1])
        else:
            out[f"H({name})"] = -_add_rows(plogp(table).reshape(-1, n))
    return out


def _reference_columns(entropies, columns):
    """``columns`` from the ``entropies``, by the forms of the graph's column nodes, as (n, len(columns))."""
    nodes = [_kernels._GRAPH[name] for name in columns]
    return np.stack([how(*[entropies[source] for source in sources]) for sources, how in nodes], axis=1)


def _reference_tables(x1x2, w=None):
    """The full tables of the joint law, zeros included, from P(x1, x2) and, when given, P(x1, x2, t) (2, 2, K, n)."""
    noisy = transition_tensor(Channel.NOISY_ADDITIVE)
    x1x2y = x1x2[:, :, None] * noisy[..., None]  # (2, 2, 4, n)
    cells = lambda t: (t[0, 1] + t[1, 0]) + t[0, 0] + t[1, 1]  # noqa: E731
    tables = {
        "x1x2": x1x2, "x1": x1x2[:, 0] + x1x2[:, 1], "x2": x1x2[0] + x1x2[1],
        "x1x2y": x1x2y, "x1y": x1x2y[:, 0] + x1x2y[:, 1], "x2y": x1x2y[0] + x1x2y[1], "y": cells(x1x2y),
        "y_erasure": cells(x1x2[:, :, None] * transition_tensor(Channel.ERASURE)[..., None]),
    }
    if w is not None:
        full = w[:, :, None] * noisy[..., None, None]  # (2, 2, 4, K, n)
        tables.update(tx1x2y=full, tx1y=full[:, 0] + full[:, 1], tx2y=full[0] + full[1])
    return tables


def _reference_input_stats(p, q1, q2):
    """Every column of ``input_stats`` from the full tables, by the kernel's own products and column nodes."""
    t, b1, b2 = np.transpose(p), np.stack([q1.T, 1.0 - q1.T]), np.stack([q2.T, 1.0 - q2.T])
    tx1, tx2 = t * b1, t * b2
    w = tx1[:, None] * b2[None]
    x1x2 = w[:, :, 0].copy()
    for k in range(1, w.shape[2]):
        x1x2 += w[:, :, k]
    tables = {"t": t, "tx1": tx1, "tx2": tx2, **_reference_tables(x1x2, w)}
    return _reference_columns(_reference_entropies(tables), _kernels.STAT_COLUMNS)


def _reference_cutset_stats(joint):
    entropies = _reference_entropies(_reference_tables(np.transpose(joint).reshape(2, 2, -1)))
    return _reference_columns(entropies, CUTSET_COLUMNS)


def test_entropies_skip_only_exact_zeros(rng):
    # the noisy tables held by their distinct entries give every bit, the
    # sign of a zero too, of the full tables summed entry by entry; the terms
    # of the tables of T are added in place in the full table's C order, so
    # K up to 8 is checked
    assert set(transition_tensor(Channel.NOISY_ADDITIVE).ravel()) == {0.0, _kernels._W}
    for k in (1, 2, 3, 4, 8):
        for n in (1, 2, 33):
            batch = zero_atom_batch(rng, n, k)
            got, want = _kernels.input_stats(*batch, _kernels.STAT_COLUMNS), _reference_input_stats(*batch)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=f"K = {k}, n = {n}")
    joint = rng.dirichlet(np.ones(4), size=33)
    joint[::3, 1] = 0.0
    joint[1::3, 2] = -0.0
    joint[2::5, 0] = -0.0
    joint[4::5, 3] = -0.0
    for rows in (joint[:1], joint[1:2], joint):
        got, want = _kernels.cutset_stats(rows), _reference_cutset_stats(rows)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _batches(rng):
    """(name, kernel on rows i:j, n) for the cut-set kernel, and the input kernel on 1-3 values of T.

    Each batch has n = chunk + 1 rows, so its last row is a one-row chunk.
    """
    batches = []
    joint = rng.dirichlet(np.ones(4), size=_kernels.CHUNK + 1)
    joint[::5, 1] = 0.0
    batches.append(("cutset", lambda i, j: _kernels.cutset_stats(joint[i:j]), len(joint)))
    for k in (1, 2, 3):
        p, q1, q2 = zero_atom_batch(rng, _kernels.CHUNK + 1, k)
        batches.append((f"input-{k}", lambda i, j, p=p, q1=q1, q2=q2: _kernels.input_stats(
            p[i:j], q1[i:j], q2[i:j], _kernels.STAT_COLUMNS), len(p)))
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
