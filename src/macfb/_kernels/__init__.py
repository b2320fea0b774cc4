"""Batch kernels: exact enumeration of the joint law over batches of inputs.

Semantics match ``macfb.channel`` (the same entropy-difference definitions),
computed in numpy for a whole batch at once.  ``input_stats`` and
``cutset_stats`` are looked up on this module at call time, so a caller may
wrap them here.

Both kernels evaluate one graph of tables, ``_TABLES``, with the batch axis
last and in chunks of rows.  ``input_stats(p, q1, q2, columns)`` seeds it
with P(t) and the input laws; ``cutset_stats(joint)`` seeds it at P(x1, x2).
A call builds, and takes the entropies of, only the tables its columns read
(``_COLUMNS``), so a column's bits do not depend on the other columns asked
for, and the mutual informations of ``input_stats`` are ``cutset_stats`` of
the T-marginal joint, bit for bit.  Every column is of the noisy adder but
``h_y_erasure``, H(Y) of the erasure adder at the same P(x1, x2).

Every entropy adds its terms in a fixed order (:func:`_sum_rows`), so each
row gets the same bits whatever batch, chunk or position it comes in.  The
tables of (X1, X2, ...) are summed cell by cell in an order the swap X1 <->
X2 keeps (:func:`_cell_sum`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..channel import Channel, transition_tensor
from ..infofn import plogp

#: rows per kernel chunk, small enough that a chunk's tables stay in the CPU cache
CHUNK = 1 << 12

_NOISY = transition_tensor(Channel.NOISY_ADDITIVE)
_ERASURE = transition_tensor(Channel.ERASURE)

#: the tables of the joint law of (T, X1, X2, Y), with the batch axis last:
#: name -> (the tables it is built from, how).  Each comes after its sources.
#: The seeds are ``t`` = P(t), ``q1`` and ``q2``, or ``x1x2`` = P(x1, x2);
#: ``b1`` is P(x1 | t), ``tx1`` P(t, x1), ``w`` P(x1, x2, t), ``full``
#: P(x1, x2, y, t) and ``y_erasure`` P(y) on the erasure adder; the rest are
#: named by the variables they keep.
_TABLES = {
    "b1": (("q1",), lambda q1: np.stack([q1, 1.0 - q1])),  # (2, K, n)
    "b2": (("q2",), lambda q2: np.stack([q2, 1.0 - q2])),
    "tx1": (("t", "b1"), lambda p, b1: p * b1),
    "tx2": (("t", "b2"), lambda p, b2: p * b2),
    "w": (("tx1", "b2"), lambda tx1, b2: tx1[:, None] * b2[None]),  # (2, 2, K, n)
    "full": (("w",), lambda w: w[:, :, None] * _NOISY[..., None, None]),  # (2, 2, Y, K, n)
    "tx1y": (("full",), lambda full: full[:, 0] + full[:, 1]),
    "tx2y": (("full",), lambda full: full[0] + full[1]),
    "x1x2": (("w",), lambda w: _sum_rows(w, axis=2)),  # (2, 2, n)
    "x1x2y": (("x1x2",), lambda x1x2: x1x2[:, :, None] * _NOISY[..., None]),  # (2, 2, Y, n)
    "x1y": (("x1x2y",), lambda x1x2y: x1x2y[:, 0] + x1x2y[:, 1]),
    "x2y": (("x1x2y",), lambda x1x2y: x1x2y[0] + x1x2y[1]),
    "x1": (("x1x2",), lambda x1x2: x1x2[:, 0] + x1x2[:, 1]),
    "x2": (("x1x2",), lambda x1x2: x1x2[0] + x1x2[1]),
    "y": (("x1x2y",), lambda x1x2y: _cell_sum(x1x2y)),
    "y_erasure": (("x1x2",), lambda x1x2: _cell_sum(x1x2[:, :, None] * _ERASURE[..., None])),
}
#: the tables of (X1, X2, ...), whose entropies :func:`_cell_entropy` takes
_CELL_TABLES = frozenset({"x1x2", "x1x2y"})
#: the entries of a table that the noisy adder's law can make nonzero; an
#: entropy skips the others, whose terms are exact zeros, so it adds the same
#: bits with fewer logarithms (each cell of ``x1x2y`` keeps two entries)
_SUPPORT = {
    **dict.fromkeys(("full", "x1x2y"), _NOISY > 0),
    **dict.fromkeys(("tx1y", "x1y"), _NOISY.sum(axis=1) > 0),
    **dict.fromkeys(("tx2y", "x2y"), _NOISY.sum(axis=0) > 0),
}

#: each column: the tables whose entropies it reads, and its value from the
#: entropies ``s``, keyed by table
_COLUMNS = {
    "h_x1_given_t": (("tx1", "t"), lambda s: s["tx1"] - s["t"]),
    "h_x2_given_t": (("tx2", "t"), lambda s: s["tx2"] - s["t"]),
    "i_x1_y_given_x2": (("x1x2", "x2", "x1x2y", "x2y"), lambda s: (s["x1x2"] - s["x2"]) - (s["x1x2y"] - s["x2y"])),
    "i_x2_y_given_x1": (("x1x2", "x1", "x1x2y", "x1y"), lambda s: (s["x1x2"] - s["x1"]) - (s["x1x2y"] - s["x1y"])),
    "i_x1x2_y": (("y", "x1x2y", "x1x2"), lambda s: s["y"] - (s["x1x2y"] - s["x1x2"])),
    "h_y": (("y",), lambda s: s["y"]),
    "h_x1_given_y_x2_t": (("full", "tx2y"), lambda s: s["full"] - s["tx2y"]),
    "h_x2_given_y_x1_t": (("full", "tx1y"), lambda s: s["full"] - s["tx1y"]),
    "h_y_erasure": (("y_erasure",), lambda s: s["y_erasure"]),
}
STAT_COLUMNS = tuple(_COLUMNS)

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


def _entropy(table: np.ndarray) -> np.ndarray:
    """Entropy over all axes but the last (batch) axis."""
    return -_sum_rows(plogp(table.reshape(-1, table.shape[-1])))


def _cell_sum(t: np.ndarray) -> np.ndarray:
    """``t[x1, x2]`` summed over the four cells as ``(01 + 10) + 00 + 11``, an order the swap X1 <-> X2 keeps."""
    return (t[0, 1] + t[1, 0]) + t[0, 0] + t[1, 1]


def _cell_entropy(table: np.ndarray) -> np.ndarray:
    """Entropy of a table ``P(x1, x2, ...)`` with the batch axis last.

    Each cell ``(x1, x2)`` is summed on its own, then the cells by
    :func:`_cell_sum`, so the entropy of a joint and of its swap are bitwise
    equal.
    """
    logs = plogp(table.reshape(2, 2, -1, table.shape[-1]))
    return -_cell_sum(_sum_rows(logs, axis=2))


@lru_cache(maxsize=None)
def _build_plan(seeds: tuple[str, ...], columns: tuple[str, ...]) -> tuple:
    """The steps that give the entropies ``columns`` read, from the tables ``seeds``.

    A step is ``(table, how it is built, its sources, its entropy, the tables
    no later step reads)``; a seed is not built, and a table whose entropy no
    column reads has none.  Dropping each table after its last use keeps a
    chunk's working set small.  Kept to the end of the chunk, the tables of a
    1,482-row ``cutset_stats`` call made the allocator hand its pages back and
    fault them in again on every call: about 19% slower (2-vCPU VM).
    """
    entropies = {table for name in columns for table in _COLUMNS[name][0]}
    need = set(entropies)
    for name in reversed(_TABLES):
        if name in need and name not in seeds:
            need.update(_TABLES[name][0])
    order = [*seeds, *(name for name in _TABLES if name in need and name not in seeds)]
    sources = [() if name in seeds else _TABLES[name][0] for name in order]
    last = {}
    for step, name in enumerate(order):
        last.update(dict.fromkeys((name, *sources[step]), step))
    return tuple(
        (
            name,
            None if name in seeds else _TABLES[name][1],
            sources[step],
            (_cell_entropy if name in _CELL_TABLES else _entropy) if name in entropies else None,
            tuple(table for table, at in last.items() if at == step),
        )
        for step, name in enumerate(order)
    )


def _stats(seeds: dict, columns: tuple[str, ...]) -> np.ndarray:
    """The ``columns`` of the graph seeded with ``seeds`` (name -> table, batch axis last), as (n, len(columns))."""
    plan = _build_plan(tuple(seeds), tuple(columns))
    values = [_COLUMNS[name][1] for name in columns]
    n = next(iter(seeds.values())).shape[-1]
    out = np.empty((len(values), n))
    for start in range(0, n, CHUNK):
        sl = slice(start, min(start + CHUNK, n))
        tables = {name: seed[..., sl] for name, seed in seeds.items()}
        s = {}
        for name, make, sources, entropy, drop in plan:
            if make is not None:
                tables[name] = make(*[tables[source] for source in sources])
            if entropy is not None:
                table = tables[name]
                s[name] = entropy(table[_SUPPORT[name]] if name in _SUPPORT else table)
            for table in drop:
                del tables[table]
        for row, value in zip(out, values):
            row[sl] = value(s)
    return out.T


def input_stats(p: np.ndarray, q1: np.ndarray, q2: np.ndarray, columns: tuple[str, ...]) -> np.ndarray:
    """Batch information quantities for conditionally independent inputs.

    ``p``, ``q1``, ``q2`` have shape (n, K) and ``columns`` names columns of
    ``STAT_COLUMNS``.  Returns (n, len(columns)), one column per name in that
    order.  Only the tables and entropies those columns read are built, and a
    column's bits do not depend on which other columns are requested.
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
