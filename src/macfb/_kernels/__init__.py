"""Batch kernels: exact enumeration of the joint law over batches of inputs.

Semantics match ``macfb.channel`` (the same entropy-difference definitions),
computed in numpy for a whole batch at once.  ``input_stats`` and
``cutset_stats`` are looked up on this module at call time, so a caller may
wrap them here.  Batches are processed in chunks to bound memory.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: rows per ``input_stats`` chunk, small enough that a chunk's tables stay in the CPU cache
CHUNK = 1 << 12
#: rows per ``cutset_stats`` chunk; smaller chunks measured slower over the region sweeps
CUTSET_CHUNK = 1 << 16

KIND_NOISY = 0
KIND_ERASURE = 1

STAT_COLUMNS = (
    "h_x1_given_t",
    "h_x2_given_t",
    "i_x1_y_given_x2",
    "i_x2_y_given_x1",
    "i_x1x2_y",
    "h_y",
    "h_x1_given_y_x2_t",
    "h_x2_given_y_x1_t",
)

__all__ = ["KIND_NOISY", "KIND_ERASURE", "STAT_COLUMNS", "input_stats", "cutset_stats"]


def _transition(kind: int) -> np.ndarray:
    ny = 4 if kind == KIND_NOISY else 3
    t = np.zeros((2, 2, ny))
    for x1 in range(2):
        for x2 in range(2):
            if kind == KIND_NOISY:
                t[x1, x2, x1 + x2] = 0.5
                t[x1, x2, x1 + x2 + 1] = 0.5
            else:
                t[x1, x2, x1 + x2] = 1.0
    return t


def _grouping(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: ``np.add.reduceat(a[order], starts)`` sums the rows of ``a`` sharing a key."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    return order, starts


@lru_cache(maxsize=None)
def _atoms(kind: int):
    """The nonzero entries ``(x1, x2, value)`` of the transition table, and how to marginalize them.

    Each entry is one atom ``(x1, x2, y)`` of the joint law per value of T.
    The groupings sum the atoms over x2 (giving ``(x1, y)``), over x1 (giving
    ``(x2, y)``) and over both (giving ``y``).
    """
    trans = _transition(kind)
    x1, x2, y = np.nonzero(trans)
    ny = trans.shape[2]
    return x1, x2, trans[x1, x2, y], _grouping(x1 * ny + y), _grouping(x2 * ny + y), _grouping(y)


def _entropy(table: np.ndarray) -> np.ndarray:
    """Entropy over all axes but the last (batch) axis."""
    flat = table.reshape(-1, table.shape[-1])
    logs = np.log2(flat, out=np.zeros_like(flat), where=flat > 0.0)
    logs *= flat
    return -logs.sum(axis=0)


def _marginal(atoms: np.ndarray, grouping) -> np.ndarray:
    order, starts = grouping
    return np.add.reduceat(atoms[order], starts, axis=0)


def input_stats(p: np.ndarray, q1: np.ndarray, q2: np.ndarray, kind: int) -> np.ndarray:
    """Batch information quantities for conditionally independent inputs.

    ``p``, ``q1``, ``q2`` have shape (n, K).  Returns (n, 8) with columns
    ``STAT_COLUMNS``.
    """
    # batch axis last and contiguous: (K, n)
    p = np.ascontiguousarray(np.transpose(p), dtype=float)
    q1 = np.ascontiguousarray(np.transpose(q1), dtype=float)
    q2 = np.ascontiguousarray(np.transpose(q2), dtype=float)
    n = p.shape[1]
    atoms = _atoms(kind)
    out = np.empty((8, n))
    for start in range(0, n, CHUNK):
        sl = slice(start, min(start + CHUNK, n))
        out[:, sl] = _input_stats_chunk(p[:, sl], q1[:, sl], q2[:, sl], atoms)
    return out.T


def _input_stats_chunk(p, q1, q2, atoms):
    x1, x2, value, by_x1y, by_x2y, by_y = atoms
    b1 = np.stack([q1, 1.0 - q1])  # P(x1 | t), (2, K, n)
    b2 = np.stack([q2, 1.0 - q2])
    tx1 = p * b1
    tx2 = p * b2
    w = tx1[:, None] * b2[None]  # P(x1, x2, t), (2, 2, K, n)
    full = w[x1, x2] * value[:, None, None]  # P(t, x1, x2, y) on the nonzero atoms, (A, K, n)
    tx1y = _marginal(full, by_x1y)
    tx2y = _marginal(full, by_x2y)
    x1x2y = full.sum(axis=1)

    s_t = _entropy(p)
    s_tx1 = _entropy(tx1)
    s_tx2 = _entropy(tx2)
    s_full = _entropy(full)
    s_tx1y = _entropy(tx1y)
    s_tx2y = _entropy(tx2y)
    s_x1x2y = _entropy(x1x2y)
    s_x1x2 = _entropy(w.sum(axis=2))
    s_x1y = _entropy(tx1y.sum(axis=1))
    s_x2y = _entropy(tx2y.sum(axis=1))
    s_x1 = _entropy(tx1.sum(axis=1))
    s_x2 = _entropy(tx2.sum(axis=1))
    s_y = _entropy(_marginal(x1x2y, by_y))

    return (
        s_tx1 - s_t,
        s_tx2 - s_t,
        (s_x1x2 - s_x2) - (s_x1x2y - s_x2y),
        (s_x1x2 - s_x1) - (s_x1x2y - s_x1y),
        s_y - (s_x1x2y - s_x1x2),
        s_y,
        s_full - s_tx2y,
        s_full - s_tx1y,
    )


def _entropy_rows(table: np.ndarray) -> np.ndarray:
    """Entropy along all axes but the first (batch) axis.

    ``cutset_stats`` keeps this form: the region sweeps and their frozen
    supports depend on its exact rounding.
    """
    flat = table.reshape(table.shape[0], -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(flat > 0.0, -flat * np.log2(np.where(flat > 0.0, flat, 1.0)), 0.0)
    return terms.sum(axis=1)


def cutset_stats(joint: np.ndarray, kind: int = KIND_NOISY) -> np.ndarray:
    """Batch (I(X1;Y|X2), I(X2;Y|X1), I(X1,X2;Y)) for 4-atom input joints.

    ``joint`` has shape (n, 4) holding (P(00), P(01), P(10), P(11)).
    """
    joint = np.ascontiguousarray(joint, dtype=float)
    n = joint.shape[0]
    trans = _transition(kind)
    out = np.empty((n, 3))
    for start in range(0, n, CUTSET_CHUNK):
        sl = slice(start, min(start + CUTSET_CHUNK, n))
        out[sl] = _cutset_chunk(joint[sl], trans)
    return out


def _cutset_chunk(joint, trans):
    w = joint.reshape(-1, 2, 2)
    law = w[..., None] * trans[None, ...]  # (n, 2, 2, Y)
    s_x1x2y = _entropy_rows(law)
    s_x1x2 = _entropy_rows(w)
    s_x1y = _entropy_rows(law.sum(axis=2))
    s_x2y = _entropy_rows(law.sum(axis=1))
    s_x1 = _entropy_rows(w.sum(axis=2))
    s_x2 = _entropy_rows(w.sum(axis=1))
    s_y = _entropy_rows(law.sum(axis=(1, 2)))
    i1 = (s_x1x2 - s_x2) - (s_x1x2y - s_x2y)
    i2 = (s_x1x2 - s_x1) - (s_x1x2y - s_x1y)
    isum = s_y - (s_x1x2y - s_x1x2)
    return np.stack([i1, i2, isum], axis=1)
