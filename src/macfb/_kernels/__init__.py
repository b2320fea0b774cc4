"""Batch kernels: exact enumeration of the joint law over batches of inputs.

Semantics match ``macfb.channel`` (the same entropy-difference definitions),
computed in numpy for a whole batch at once.  ``input_stats`` and
``cutset_stats`` are looked up on this module at call time, so a caller may
wrap them here.

Both kernels evaluate one graph, ``_GRAPH``, of the tables of the joint law,
their entropies and the columns, with the batch axis last and in chunks of
rows.  ``input_stats(p, q1, q2, columns)`` seeds it with P(t) and the input
laws; ``cutset_stats(joint)`` seeds it at P(x1, x2).  A call builds only the
nodes its columns read, so a column's bits do not depend on the other
columns asked for, and the mutual informations of ``input_stats`` are
``cutset_stats`` of the T-marginal joint, bit for bit.  Every column is of
the noisy adder but ``h_y_erasure``, H(Y) of the erasure adder at the same
P(x1, x2).

The noisy adder's tables of Y are held by their distinct entries.  Y = X1
+ X2 + Z with Z uniform, so W = 1/2 on its support: each nonzero entry of
P(x1, x2, y[, t]) is half a cell of P(x1, x2[, t]) and appears twice, and
each nonzero entry of the marginals of Y is one such half or a sum of them.
So ``p log p`` is taken once per distinct value, and no table of Y with its
zeros is built.

The 18 distinct entries of the noisy adder's tables of (X1, X2, Y) at a
row's P(x1, x2) are built into the rows of one table, and one ``plogp``
call per chunk logs them all (:func:`_xy_log`).  At the batch sizes of the
region solve a call's cost is numpy's per-call dispatch, not its arithmetic.

Every entropy adds its terms in a fixed order (:func:`_sum_rows`,
:func:`_neg_sum`), so each row gets the same bits whatever batch, chunk or
position it comes in.  The order is that of the full table with its zero
entries left out.  The terms of the noisy adder's tables of (T, X1, X2, Y)
are added in place, row after row, with no stacked copy of them
(:func:`_doubled_terms`, :func:`_y_terms`).  The tables of (X1, X2, ...)
are summed cell by cell in an order the swap X1 <-> X2 keeps
(:func:`_cell_sum`).  P(y) of the erasure adder is built from its three
entries.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

import numpy as np

from ..infofn import plogp

#: rows per kernel chunk, small enough that a chunk's tables stay in the CPU cache
CHUNK = 1 << 12

#: W(y | x1, x2) at each of the two y the noisy adder's (x1, x2) can give
_W = 0.5

#: the columns a call may ask for, each a node of ``_GRAPH``
STAT_COLUMNS = (
    "h_x1_given_t", "h_x2_given_t", "i_x1_y_given_x2", "i_x2_y_given_x1", "i_x1x2_y",
    "h_y", "h_x1_given_y_x2_t", "h_x2_given_y_x1_t", "h_y_erasure",
)

__all__ = ["STAT_COLUMNS", "input_stats", "cutset_stats"]


def _sum_rows(table: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum over one axis, one row after another, whatever the batch size.

    With a batch axis (the last) longer than one, numpy's ``sum`` adds the
    rows in this order.  A batch of one is a single column, which numpy sums
    pairwise, so that a row would round differently alone than in a batch;
    it is added row by row here instead.
    """
    if table.shape[-1] > 1:
        return table.sum(axis=axis)
    rows = np.moveaxis(table, axis, 0)
    acc = rows[0].copy()
    for row in rows[1:]:
        acc += row
    return acc


def _log_entropy(logs: np.ndarray) -> np.ndarray:
    """Entropy from its terms ``p log p``, added over all axes but the last (batch) axis in C order."""
    return -_sum_rows(logs.reshape(-1, logs.shape[-1]))


def _entropy(table: np.ndarray) -> np.ndarray:
    """Entropy over all axes but the last (batch) axis."""
    return _log_entropy(plogp(table))


def _cell_sum(t: np.ndarray) -> np.ndarray:
    """``t[x1, x2]`` summed over the four cells as ``(01 + 10) + 00 + 11``.

    The swap X1 <-> X2 keeps this order.
    """
    return (t[0, 1] + t[1, 0]) + t[0, 0] + t[1, 1]


def _y_terms(half: np.ndarray, logs: np.ndarray) -> list[np.ndarray]:
    """The terms of P(x1, y, t) as rows, in (x1, y, t) order.

    They come from the distinct entries ``half`` of P(x1, x2, y, t) and
    their ``logs``.  At x1, y = x1 comes only from x2 = 0, y = x1 + 2 only
    from x2 = 1, and y = x1 + 1 from both.  With the users swapped, the terms
    of P(x2, y, t).
    """
    mid = plogp(half[:, 0] + half[:, 1])
    return [row for x1 in (0, 1) for part in (logs[x1, 0], mid[x1], logs[x1, 1]) for row in part]


def _doubled_terms(logs: np.ndarray) -> list[np.ndarray]:
    """The terms of P(x1, x2, y, t) as rows, in (x1, x2, duplicate, t) order: each row of ``logs`` twice."""
    return [row for cell in logs.reshape(4, *logs.shape[2:]) for row in (*cell, *cell)]


def _neg_sum(*rows: np.ndarray) -> np.ndarray:
    """Minus the sum of ``rows``, added one after another as :func:`_sum_rows` adds the rows of a table."""
    acc = rows[0] + rows[1]
    for row in rows[2:]:
        acc += row
    return np.negative(acc, out=acc)


#: the tables of (X1, X2, Y) in the table of :func:`_xy_log`, the 18
#: distinct entries of a cut-set row as nine pairs of rows: name -> its pairs
_XY_ROWS = {"x1x2": slice(0, 2), "half": slice(2, 4), "x1y_mid": 4, "x2y_mid": 5, "y_mid": 6, "x1": 7, "x2": 8}


def _xy_log(x1x2: np.ndarray) -> np.ndarray:
    """The ``p log p`` of the tables of ``_XY_ROWS`` at P(x1, x2), as one table (9, 2, n) in their rows.

    Each table is built into its rows, and one ``plogp`` call logs them all.
    """
    table = np.empty((9, 2, x1x2.shape[-1]))
    t = {name: table[rows] for name, rows in _XY_ROWS.items()}
    t["x1x2"][...] = x1x2
    half = np.multiply(t["x1x2"], _W, out=t["half"])
    # y = x1 + 1 at x1 comes from both x2, and y = x2 + 1 at x2 from both x1
    np.add(half[:, 0], half[:, 1], out=t["x1y_mid"])
    np.add(half[0], half[1], out=t["x2y_mid"])
    # y = 1 and 2 come from three cells each, added as in _cell_sum: (01 + 10) + 00 and (01 + 10) + 11
    np.add(half[0, 1] + half[1, 0], half.reshape(4, -1)[::3], out=t["y_mid"])  # the cells 00 and 11
    np.add(t["x1x2"][:, 0], t["x1x2"][:, 1], out=t["x1"])
    np.add(t["x1x2"][0], t["x1x2"][1], out=t["x2"])
    return plogp(table)


#: the joint law of (T, X1, X2, Y) as one graph, with the batch axis last:
#: name -> (the nodes it is built from, how).  Each node comes after its
#: sources.  The seeds are ``t`` = P(t), ``q1`` and ``q2``, or ``x1x2`` =
#: P(x1, x2).  Of the tables, ``b1`` is P(x1 | t), ``tx1`` P(t, x1), ``w``
#: P(x1, x2, t), ``y_erasure`` P(y) on the erasure adder, ``half`` and
#: ``w_half`` the distinct entries P(x1, x2) W and P(x1, x2, t) W of the noisy
#: adder's P(x1, x2, y[, t]), ``x1y_mid``, ``x2y_mid`` and ``y_mid`` the other
#: distinct entries of P(x1, y), P(x2, y) and P(y), and ``<table>_log`` the
#: ``p log p`` of ``<table>``; the rest are named by the variables they keep.
#: ``xy_log`` holds the ``p log p`` of the tables of ``_XY_ROWS``, and their
#: ``<table>_log`` are views of its rows.  ``H(v)``, the entropy of the
#: variables v, comes after the last table it reads, and the ``STAT_COLUMNS``
#: come last, each from its entropies.
_GRAPH = {
    "H(t)": (("t",), _entropy),
    "b1": (("q1",), lambda q1: np.stack([q1, 1.0 - q1])),  # (2, K, n)
    "b2": (("q2",), lambda q2: np.stack([q2, 1.0 - q2])),
    "tx1": (("t", "b1"), lambda p, b1: p * b1),
    "H(tx1)": (("tx1",), _entropy),
    "tx2": (("t", "b2"), lambda p, b2: p * b2),
    "H(tx2)": (("tx2",), _entropy),
    "w": (("tx1", "b2"), lambda tx1, b2: tx1[:, None] * b2[None]),  # (2, 2, K, n)
    "w_half": (("w",), lambda w: w * _W),
    "w_log": (("w_half",), lambda w_half: plogp(w_half)),
    # each entry of P(x1, x2, y, t) holds its half twice
    "H(tx1x2y)": (("w_log",), lambda logs: _neg_sum(*_doubled_terms(logs))),
    "H(tx1y)": (("w_half", "w_log"), lambda half, logs: _neg_sum(*_y_terms(half, logs))),
    "H(tx2y)": (("w_half", "w_log"), lambda half, logs: _neg_sum(*_y_terms(half.swapaxes(0, 1), logs.swapaxes(0, 1)))),
    "x1x2": (("w",), lambda w: _sum_rows(w, axis=2)),  # (2, 2, n)
    "xy_log": (("x1x2",), _xy_log),
    **{f"{table}_log": (("xy_log",), itemgetter(rows)) for table, rows in _XY_ROWS.items()},
    "H(x1x2)": (("x1x2_log",), lambda logs: -_cell_sum(logs)),
    # each cell of P(x1, x2, y) holds its half twice, and the cells add as in H(x1x2)
    "H(x1x2y)": (("half_log",), lambda logs: -_cell_sum(logs + logs)),
    # the terms of P(x1, y) in (x1, y) order, y = x1 first; of P(x2, y) in (x2, y) order; of P(y)
    "H(x1y)": (("half_log", "x1y_mid_log"), lambda h, m: _neg_sum(h[0, 0], m[0], h[0, 1], h[1, 0], m[1], h[1, 1])),
    "H(x2y)": (("half_log", "x2y_mid_log"), lambda h, m: _neg_sum(h[0, 0], m[0], h[1, 0], h[0, 1], m[1], h[1, 1])),
    "H(y)": (("half_log", "y_mid_log"), lambda h, m: _neg_sum(h[0, 0], m[0], m[1], h[1, 1])),
    "H(x1)": (("x1_log",), _log_entropy),
    "H(x2)": (("x2_log",), _log_entropy),
    # the erasure adder's Y = X1 + X2, so P(y) = (P(00), P(01) + P(10), P(11))
    "y_erasure": (("x1x2",), lambda x1x2: np.stack([x1x2[0, 0], x1x2[0, 1] + x1x2[1, 0], x1x2[1, 1]])),
    "H(y_erasure)": (("y_erasure",), _entropy),
    "h_x1_given_t": (("H(tx1)", "H(t)"), lambda tx1, t: tx1 - t),
    "h_x2_given_t": (("H(tx2)", "H(t)"), lambda tx2, t: tx2 - t),
    "i_x1_y_given_x2": (("H(x1x2)", "H(x2)", "H(x1x2y)", "H(x2y)"), lambda x1x2, x2, x1x2y, x2y: (x1x2 - x2) - (x1x2y - x2y)),
    "i_x2_y_given_x1": (("H(x1x2)", "H(x1)", "H(x1x2y)", "H(x1y)"), lambda x1x2, x1, x1x2y, x1y: (x1x2 - x1) - (x1x2y - x1y)),
    "i_x1x2_y": (("H(y)", "H(x1x2y)", "H(x1x2)"), lambda y, x1x2y, x1x2: y - (x1x2y - x1x2)),
    "h_y": (("H(y)",), lambda y: y),
    "h_x1_given_y_x2_t": (("H(tx1x2y)", "H(tx2y)"), lambda tx1x2y, tx2y: tx1x2y - tx2y),
    "h_x2_given_y_x1_t": (("H(tx1x2y)", "H(tx1y)"), lambda tx1x2y, tx1y: tx1x2y - tx1y),
    "h_y_erasure": (("H(y_erasure)",), lambda y: y),
}


@lru_cache(maxsize=None)
def _build_plan(seeds: tuple[str, ...], columns: tuple[str, ...]) -> tuple:
    """The steps that give ``columns`` from the nodes ``seeds``: the other nodes they read, in graph order.

    A step is ``(node, its sources, how, the nodes no later step reads)``:
    each node is dropped right after its last reader, and no node reads a
    column.  Kept to the end of the chunk, the tables of a 1,482-row
    ``cutset_stats`` call made the allocator hand its pages back and fault
    them in again on every call: about 19% slower (2-vCPU VM).

    The table of ``xy_log``, 18 rows of a cut-set chunk, and its logs
    outgrow glibc's initial 128 KiB mmap threshold above 910 rows.  Called
    again and again at one size of 1,629 to 2,896 rows, a call faulted 70
    to 162 pages back in.  The cut-set region's solve calls at 724 and 543
    rows, below it: the whole solve faults 42 pages, 34 of them in its
    first call and at most one in each later call (numpy 2.4.6, measured by
    ``ru_minflt``).
    """
    for name in columns:
        if name not in STAT_COLUMNS:
            raise KeyError(name)
    need = set(columns)
    for name in reversed(_GRAPH):
        if name in need and name not in seeds:
            need.update(_GRAPH[name][0])
    order = [name for name in _GRAPH if name in need and name not in seeds]
    last = {source: step for step, name in enumerate(order) for source in _GRAPH[name][0]}
    return tuple(
        (name, *_GRAPH[name], tuple(node for node, at in last.items() if at == step)) for step, name in enumerate(order)
    )


def _stats(seeds: dict, columns: tuple[str, ...]) -> np.ndarray:
    """The ``columns`` of the graph seeded with ``seeds`` (name -> table, batch axis last), as (n, len(columns))."""
    plan = _build_plan(tuple(seeds), tuple(columns))
    n = next(iter(seeds.values())).shape[-1]
    out = np.empty((len(columns), n))
    for start in range(0, n, CHUNK):
        sl = slice(start, min(start + CHUNK, n))
        nodes = {name: seed[..., sl] for name, seed in seeds.items()}
        for name, sources, how, drop in plan:
            nodes[name] = how(*[nodes[source] for source in sources])
            for node in drop:
                del nodes[node]
        for row, name in zip(out, columns):
            row[sl] = nodes[name]
    return out.T


def input_stats(p: np.ndarray, q1: np.ndarray, q2: np.ndarray, columns: tuple[str, ...]) -> np.ndarray:
    """Batch information quantities for conditionally independent inputs.

    ``p``, ``q1``, ``q2`` have shape (n, K) and ``columns`` names columns of
    ``STAT_COLUMNS``; another name raises ``KeyError``.  Returns
    (n, len(columns)), one column per name in that order.  Only the tables
    and entropies those columns read are built, and a column's bits do not
    depend on which other columns are requested.
    """
    # batch axis last and contiguous: (K, n)
    seeds = {name: np.ascontiguousarray(np.transpose(x), dtype=float) for name, x in (("t", p), ("q1", q1), ("q2", q2))}
    return _stats(seeds, columns)


def cutset_stats(joint: np.ndarray) -> np.ndarray:
    """Batch (I(X1;Y|X2), I(X2;Y|X1), I(X1,X2;Y)) on the noisy adder for 4-atom input joints.

    ``joint`` has shape (n, 4) holding (P(00), P(01), P(10), P(11)).  The
    transition table is symmetric in (x1, x2), and every sum here is taken
    in a swap-symmetric order, so the row of (a, c, b, d) is the row of
    (a, b, c, d) with its first two columns swapped, bit for bit.
    """
    # batch axis last and contiguous: P(x1, x2), (2, 2, n)
    x1x2 = np.ascontiguousarray(np.transpose(joint), dtype=float).reshape(2, 2, -1)
    return _stats({"x1x2": x1x2}, ("i_x1_y_given_x2", "i_x2_y_given_x1", "i_x1x2_y"))
