"""Batch kernels: exact enumeration of the joint law over batches of inputs.

Semantics match ``macfb.channel`` (the same entropy-difference definitions),
computed in numpy for a whole batch at once.  ``input_stats`` and
``cutset_stats`` are looked up on this module at call time, so a caller may
wrap them here.

Both kernels lay their tables out with the batch axis last and work in
chunks of rows.  Every entropy adds its terms in a fixed order
(:func:`_sum_rows`), and ``input_stats`` builds its marginals from fixed
per-row index plans (:func:`_atoms`, :func:`_marginal`), so each row gets the
same bits whatever batch, chunk or position it comes in.

``input_stats(p, q1, q2, kind, columns)`` returns an ``(n, len(columns))``
array, one column per name of ``STAT_COLUMNS`` in ``columns``, in that order.
It builds, and takes the entropies of, only the tables those columns read
(``_COLUMNS`` names them, ``_TABLES`` says how each is built), and each
column has the same bits whichever other columns are requested with it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from ..channel import Channel, transition_tensor
from ..infofn import plogp

#: rows per kernel chunk, small enough that a chunk's tables stay in the CPU cache
CHUNK = 1 << 12

KIND_NOISY = 0
KIND_ERASURE = 1
#: the channel of each kind, whose ``transition_tensor`` the kernels enumerate
_CHANNELS = (Channel.NOISY_ADDITIVE, Channel.ERASURE)

#: the tables of the joint law of (T, X1, X2, Y), with the batch axis last:
#: name -> (the tables it is built from, how).  Each comes after its sources.
#: The inputs are ``t`` = P(t), ``q1``, ``q2`` and ``atoms`` (:func:`_atoms`);
#: ``b1`` is P(x1 | t), ``tx1`` P(t, x1), ``w`` P(x1, x2, t) and ``full``
#: P(t, x1, x2, y) on the nonzero atoms; the rest are named by the variables
#: they keep.
_TABLES = {
    "b1": (("q1",), lambda q1: np.stack([q1, 1.0 - q1])),  # (2, K, n)
    "b2": (("q2",), lambda q2: np.stack([q2, 1.0 - q2])),
    "tx1": (("t", "b1"), lambda p, b1: p * b1),
    "tx2": (("t", "b2"), lambda p, b2: p * b2),
    "w": (("tx1", "b2"), lambda tx1, b2: tx1[:, None] * b2[None]),  # (2, 2, K, n)
    "full": (("w", "atoms"), lambda w, a: w[a.x1, a.x2] * a.value[:, None, None]),  # (A, K, n)
    "tx1y": (("full", "atoms"), lambda full, a: _marginal(full, a.by_x1y)),
    "tx2y": (("full", "atoms"), lambda full, a: _marginal(full, a.by_x2y)),
    "x1x2y": (("full",), lambda full: _sum_rows(full, axis=1)),
    "x1x2": (("w",), lambda w: _sum_rows(w, axis=2)),
    "x1y": (("tx1y",), lambda tx1y: _sum_rows(tx1y, axis=1)),
    "x2y": (("tx2y",), lambda tx2y: _sum_rows(tx2y, axis=1)),
    "x1": (("tx1",), lambda tx1: _sum_rows(tx1, axis=1)),
    "x2": (("tx2",), lambda tx2: _sum_rows(tx2, axis=1)),
    "y": (("x1x2y", "atoms"), lambda x1x2y, a: _marginal(x1x2y, a.by_y)),
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
}
STAT_COLUMNS = tuple(_COLUMNS)

__all__ = ["KIND_NOISY", "KIND_ERASURE", "STAT_COLUMNS", "input_stats", "cutset_stats"]


_Atoms = namedtuple("_Atoms", "x1 x2 value by_x1y by_x2y by_y")


def _plan(keys: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The atoms of each output row: one row per key in increasing order, holding that key's atom indices in order."""
    groups: dict[int, list[int]] = {}
    for atom, key in enumerate(keys.tolist()):
        groups.setdefault(key, []).append(atom)
    return tuple(tuple(groups[key]) for key in sorted(groups))


@lru_cache(maxsize=None)
def _atoms(kind: int):
    """The nonzero entries ``(x1, x2, value)`` of the transition table, and how to marginalize them.

    Each entry is one atom ``(x1, x2, y)`` of the joint law per value of T.
    The three plans sum the atoms over x2 (giving ``(x1, y)``), over x1
    (giving ``(x2, y)``) and over both (giving ``y``).  A plan lists, for each
    output row in increasing key, the indices of the atoms that add up to it;
    :func:`_marginal` adds them in a fixed order.  A group has 1-3 atoms: the
    noisy adder's ``y`` groups have three.
    """
    trans = transition_tensor(_CHANNELS[kind])
    x1, x2, y = np.nonzero(trans)
    ny = trans.shape[2]
    return _Atoms(x1, x2, trans[x1, x2, y], _plan(x1 * ny + y), _plan(x2 * ny + y), _plan(y))


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


def _marginal(atoms: np.ndarray, plan) -> np.ndarray:
    """Sum the atoms of each row of ``plan`` as ``a0 + (a1 + a2 + ...)``.

    That is the order in which numpy's grouped add reduction sums a group
    (copy the first atom, add the sum of the rest), done as whole-row adds.
    The rest is summed in place and ``a0`` added last, which gives the same
    bits because floating-point addition commutes.
    """
    out = np.empty((len(plan),) + atoms.shape[1:])
    for row, (first, *rest) in zip(out, plan):
        if not rest:
            row[...] = atoms[first]
            continue
        row[...] = atoms[rest[0]]
        for i in rest[1:]:
            row += atoms[i]
        row += atoms[first]
    return out


def input_stats(p: np.ndarray, q1: np.ndarray, q2: np.ndarray, kind: int, columns: tuple[str, ...]) -> np.ndarray:
    """Batch information quantities for conditionally independent inputs.

    ``p``, ``q1``, ``q2`` have shape (n, K) and ``columns`` names columns of
    ``STAT_COLUMNS``.  Returns (n, len(columns)), one column per name in that
    order.  Only the tables and entropies those columns read are built, and a
    column's bits do not depend on which other columns are requested.
    """
    # batch axis last and contiguous: (K, n)
    p = np.ascontiguousarray(np.transpose(p), dtype=float)
    q1 = np.ascontiguousarray(np.transpose(q1), dtype=float)
    q2 = np.ascontiguousarray(np.transpose(q2), dtype=float)
    n = p.shape[1]
    forms = [_COLUMNS[name] for name in columns]
    entropies = dict.fromkeys(table for terms, _ in forms for table in terms)
    build = _tables_for(entropies)
    atoms = _atoms(kind)
    out = np.empty((len(forms), n))
    for start in range(0, n, CHUNK):
        sl = slice(start, min(start + CHUNK, n))
        tables = _build_tables(build, p[:, sl], q1[:, sl], q2[:, sl], atoms)
        s = {name: _entropy(tables[name]) for name in entropies}
        for row, (_, value) in zip(out, forms):
            row[sl] = value(s)
    return out.T


def _tables_for(entropies) -> tuple[str, ...]:
    """The tables to build, in build order, for the entropies of ``entropies``."""
    need = set(entropies)
    for name in reversed(_TABLES):
        if name in need:
            need.update(_TABLES[name][0])
    return tuple(name for name in _TABLES if name in need)


def _build_tables(build, p, q1, q2, atoms) -> dict:
    """The inputs of one chunk and the tables ``build`` names, built in that order."""
    tables = {"t": p, "q1": q1, "q2": q2, "atoms": atoms}
    for name in build:
        sources, make = _TABLES[name]
        tables[name] = make(*(tables[source] for source in sources))
    return tables


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


def cutset_stats(joint: np.ndarray) -> np.ndarray:
    """Batch (I(X1;Y|X2), I(X2;Y|X1), I(X1,X2;Y)) on the noisy adder for 4-atom input joints.

    ``joint`` has shape (n, 4) holding (P(00), P(01), P(10), P(11)).  The
    transition table is symmetric in (x1, x2), and every sum here is taken
    in a swap-symmetric order, so the row of (a, c, b, d) is the row of
    (a, b, c, d) with its first two columns swapped, bit for bit.
    """
    # batch axis last and contiguous: P(x1, x2), (2, 2, n)
    w = np.ascontiguousarray(np.transpose(joint), dtype=float).reshape(2, 2, -1)
    n = w.shape[2]
    trans = transition_tensor(_CHANNELS[KIND_NOISY])[..., None]
    out = np.empty((3, n))
    for start in range(0, n, CHUNK):
        sl = slice(start, min(start + CHUNK, n))
        out[:, sl] = _cutset_chunk(w[..., sl], trans)
    return out.T


#: the columns of ``cutset_stats``, whose forms it shares with ``input_stats``
_CUTSET_COLUMNS = ("i_x1_y_given_x2", "i_x2_y_given_x1", "i_x1x2_y")


def _cutset_chunk(w, trans):
    law = w[:, :, None] * trans  # P(x1, x2, y), (2, 2, Y, n)
    s = {
        "x1x2y": _cell_entropy(law),
        "x1x2": _cell_entropy(w),
        "x1y": _entropy(law[:, 0] + law[:, 1]),
        "x2y": _entropy(law[0] + law[1]),
        "x1": _entropy(w[:, 0] + w[:, 1]),
        "x2": _entropy(w[0] + w[1]),
        "y": _entropy(_cell_sum(law)),
    }
    return [_COLUMNS[name][1](s) for name in _CUTSET_COLUMNS]
