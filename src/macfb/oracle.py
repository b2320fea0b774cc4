"""Brute-force verification of the closed-form characterizations.

The oracles evaluate the bounds' original information-theoretic expressions by
exact enumeration (through the kernel layer, whose semantics match
``macfb.channel``) over lattices of conditionally independent inputs, never
the closed-form (u1, u2, u) characterizations they are checking.  Each
family's exact pentagon is a row of ``_PENTAGONS``; its closed form, the row
of ``bounds._CAPS`` under the same key, builds the regions and is read here
only to be compared with the enumeration.

:func:`verify_characterization` and the three lattice objectives of
:func:`oracle_max` read the same input lattice, and one sweep of it serves
them all (:func:`_sweep`).  Each block takes the terms that read one
user's input alone, H(X1|T), H(X2|T) and their caps, at its user rows, from
one ``input_stats`` call and one row of ``bounds._CAPS``, and gathers them
to its rows; one ``input_stats`` call over the block gives every other
column (:func:`_block_stats`).  At ``t_card`` 1 and 2 the q set is the
product U x U of one user lattice U, and the user rows are U at the block's
point of P(t); at ``t_card`` 3, a Latin hypercube, each row is its own user
row, so one ``input_stats`` call over the block gives every column.  Every
sweep of a lattice stores the three objectives' results, each a
(value, row, rows swept) triple, under the frozen ``OracleConfig`` in
``_BEST``, a module-level memo of under 1 KB per config that nothing evicts.
``oracle_max`` reads it, and sweeps only when it holds nothing for the
config; the characterization always sweeps, since it checks the closed
forms.  The memo holds what the kernel computed when it was filled, so a
caller that patches ``_kernels.input_stats`` must call ``_BEST.clear()``
for ``oracle_max`` to sweep with the patch.

A sweep of at least ``_SHARD_MIN_ROWS`` rows is split into shards, one per
CPU this process may run on and at most one per block of the sweep.  The
shards take consecutive ranges of blocks, cut at the block boundaries
nearest to equal shares of the rows, with no shard empty.  Shard 0 runs in
this process and the others in children of ``multiprocessing``'s fork
context.  Every sweep is one function of a block and one merge of two
results: each shard folds its blocks' results with the merge and sends its
own back through a pipe, and the parent folds the shards' results, in shard
order, with the same merge.  The merges keep the first of equal maxima
(:func:`_merge_reports`) or the smaller row (:func:`_better`), and either
fold of consecutive results gives the same bits, so every result is bit for
bit that of one sweep in block order, whatever the number of shards.
Smaller sweeps, sweeps where ``os.fork`` is missing and sweeps in a
daemonic process (a ``multiprocessing.Pool`` worker, which may not have
children) run in this process alone.  A function wrapped or monkeypatched in
this process (a counter on ``_kernels.input_stats``, say) also runs in the
children, but what it records there is lost with them.  On Python 3.12 and
later a fork warns in a process with threads, as numpy's OpenBLAS pool makes
this one; the sharding has been run on Python 3.11 only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _kernels, bounds
from ._budget import BUDGET_ENV_VAR, DEFAULT_BUDGET, BudgetExceededError, check_size, env_budget, is_integer
from .channel import JointInputDistribution
from .feasible import pair_u, user_u

__all__ = [
    "DEFAULT_BUDGET",
    "BUDGET_ENV_VAR",
    "BudgetExceededError",
    "OracleConfig",
    "OracleResult",
    "CharacterizationReport",
    "OBJECTIVES",
    "oracle_max",
    "verify_characterization",
]

_CHUNK = 200_000
#: sweeps of fewer rows run in one process.  Measured on two CPUs: two shards
#: cost about 3 ms more than one, so at 32,768 rows they lost on every
#: oracle_max objective; from 55,000 rows they won on all but the cheapest,
#: the one-column erasure sum, which lost at most 2 ms and broke even by 100,000
_SHARD_MIN_ROWS = 50_000


@dataclass(frozen=True)
class OracleConfig:
    """Grid configuration for the brute-force sweeps.

    ``steps`` is the number of lattice points per probability axis.  Each
    point of the P(t) simplex lattice is swept with the full q lattice of
    ``2 * t_card`` axes, or, for ``t_card == 3``, with ``steps**3`` points of
    a Latin hypercube drawn from ``seed``, a non-negative integer.
    ``budget``, a positive integer as ``MACFB_BUDGET`` is, only bounds the
    size; None means ``MACFB_BUDGET`` or the default.
    """

    t_card: int = 2
    steps: int = 21
    seed: int = 0
    budget: int | None = None

    def __post_init__(self):
        if not is_integer(self.t_card) or self.t_card not in (1, 2, 3):
            raise ValueError(f"t_card must be 1, 2 or 3, got {self.t_card!r}")
        if not is_integer(self.steps) or self.steps < 2:
            raise ValueError(f"steps must be an integer of at least 2, got {self.steps!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.budget is None:
            object.__setattr__(self, "budget", env_budget())
        elif not is_integer(self.budget) or self.budget < 1:
            raise ValueError(f"budget must be a positive integer, got {self.budget!r}")

    @property
    def grid_size(self) -> int:
        """The rows :func:`iter_input_grid` yields: the P(t) lattice times the q set."""
        n_q = self.steps**3 if self.t_card == 3 else self.steps ** (2 * self.t_card)
        return _lattice_size(self.t_card, self.steps) * n_q


def _lattice_size(parts: int, steps: int) -> int:
    """The number of rows :func:`_simplex_lattice` yields."""
    return math.comb(steps + parts - 2, parts - 1)


def _simplex_lattice(parts: int, steps: int) -> Iterator[np.ndarray]:
    """Yield the points of ``{k/(steps-1)}^parts`` that sum to 1, one (n, parts) chunk per first entry.

    Rows are in lexicographic order.  The last entry is 1 minus the others,
    subtracted left to right and floored at 0.
    """
    g = np.linspace(0.0, 1.0, steps)
    if parts == 1:
        yield np.ones((1, 1))
        return
    free = parts - 2  # entries between the first and the last
    for i, first in enumerate(g):
        left = steps - 1 - i  # lattice steps the free entries may share
        idx = np.indices((left + 1,) * free).reshape(free, (left + 1) ** free)
        mid = g[idx[:, idx.sum(axis=0) <= left]]
        last = np.full(mid.shape[1], 1.0 - first)
        for col in mid:
            last = last - col
        yield np.column_stack([np.full_like(last, first), *mid, np.maximum(last, 0.0)])


def iter_input_grid(cfg: OracleConfig) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (p, q1, q2) chunks of shape (n, t_card): the q set at every point of the P(t) lattice."""
    for block, _ in _input_blocks(cfg):
        yield block


def _input_blocks(cfg: OracleConfig) -> Iterator[tuple[tuple, tuple]]:
    """Yield each chunk of :func:`iter_input_grid` as ``((p, q1, q2), users)``.

    ``users`` is ``(p_v, v1, v2, at1, at2)``: user rows ``v1`` and ``v2``
    with their P(t) ``p_v``, and the index in ``v1`` of each row's q1 and in
    ``v2`` of its q2.  For ``t_card`` 1 and 2 the q set is U x U, U = g^t_card
    the user lattice in "ij" order: row r is (U[r // |U|], U[r % |U|]), so
    ``v1`` and ``v2`` are U, and ``at1, at2`` the chunk's slices of every
    row's ``divmod(r, |U|)``.  For ``t_card`` 3, a Latin hypercube of the six
    q axes with no such product, each row is its own user row: ``v1, v2`` are
    the chunk's q1 and q2, and ``at1, at2`` are ``slice(None)``.
    """
    k, g = cfg.t_card, np.linspace(0.0, 1.0, cfg.steps)
    if k == 3:  # a full lattice of six q axes is out of reach
        q = _latin_hypercube(np.random.default_rng(cfg.seed), cfg.steps**3, 6)
    else:
        user = np.stack([x.ravel() for x in np.meshgrid(*[g] * k, indexing="ij")], axis=1)
        at1, at2 = np.divmod(np.arange(len(user) ** 2), len(user))
        q = np.concatenate([user[at1], user[at2]], axis=1)
    for p_rows in _simplex_lattice(k, cfg.steps):
        for p in p_rows:
            for start in range(0, len(q), _CHUNK):
                at = slice(start, start + _CHUNK)
                block = q[at]
                rows = np.broadcast_to(p, (len(block), k)), block[:, :k], block[:, k:]
                if k == 3:
                    yield rows, (*rows, slice(None), slice(None))
                else:
                    yield rows, (np.broadcast_to(p, user.shape), user, user, at1[at], at2[at])


def _latin_hypercube(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    cells = (np.arange(n)[:, None] + rng.uniform(size=(n, dim))) / n
    for j in range(dim):
        cells[:, j] = cells[rng.permutation(n), j]
    return cells


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _sharded(each: Callable, merge: Callable, blocks: Callable[[], Iterable], rows: list[int]):
    """The fold by ``merge`` of ``each`` over the blocks of the sweep ``blocks()`` (see the module docstring).

    ``blocks()`` gives the sweep's blocks, of ``rows`` rows each, from the
    first at every call: a list, or a new iterator where a list would hold
    too much at once.  Each shard folds ``each`` of its blocks in block
    order, and the shards' results are folded in shard order, so ``merge``
    must give the same bits for both folds of any consecutive results.  A
    child's exception is raised here, with its type and message.  No child
    outlives the call: on every way out, every child is killed and joined.
    """
    n = len(rows)
    w = min(_cpus(), n) if sum(rows) >= _SHARD_MIN_ROWS and hasattr(os, "fork") else 1
    if w > 1:
        import multiprocessing  # here, so that ``import macfb`` imports nothing more

        ctx = multiprocessing.get_context("fork")
        w = 1 if ctx.current_process().daemon else w  # a daemonic process may not have children

    # shard i starts at the block boundary nearest i / w of the rows that leaves no shard empty
    starts, cuts = [0, *accumulate(rows)], [0]
    for i in range(1, w):
        cuts.append(min(range(cuts[-1] + 1, n - w + i + 1), key=lambda k: abs(w * starts[k] - i * starts[-1])))
    cuts.append(n)

    def shard(i):
        return reduce(merge, map(each, islice(blocks(), cuts[i], cuts[i + 1])))

    if w == 1:
        return shard(0)

    def serve(i, conn):  # in a child
        try:
            out = (True, shard(i))
        except BaseException as exc:  # the parent raises it
            out = (False, exc)
        conn.send(out)

    children = []
    try:
        for i in range(1, w):
            read_end, write_end = ctx.Pipe(duplex=False)
            child = ctx.Process(target=serve, args=(i, write_end))
            child.start()
            children.append((child, read_end))
            write_end.close()
        out = shard(0)
        for child, read_end in children:
            try:
                ok, value = read_end.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"oracle shard process {child.pid} ended with exit code {child.exitcode} and no result")
            if not ok:
                raise value
            out = merge(out, value)
        return out
    finally:
        for child, read_end in children:
            child.kill()
            child.join()
            read_end.close()


@dataclass(frozen=True)
class OracleResult:
    objective: str
    value: float
    argmax_params: tuple[float, ...]
    n_evaluated: int
    config: OracleConfig

    @property
    def argmax(self):
        """The maximizing input: the 4-atom joint for the cut-set objective, else a JointInputDistribution."""
        x = self.argmax_params
        if self.objective == "cutset_symmetric_direct":
            return np.array(x)
        k = self.config.t_card
        return JointInputDistribution(p_t=x[:k], q1=x[k : 2 * k], q2=x[2 * k :])

    def to_dict(self) -> dict:
        arg = self.argmax
        return {
            "objective": self.objective,
            "value": float(self.value),
            "argmax": arg.to_dict() if isinstance(arg, JointInputDistribution) else {"joint_x1x2": arg.tolist()},
            "grid": {
                "t_card": self.config.t_card,
                "steps": self.config.steps,
                "seed": self.config.seed,
                "evaluations": self.n_evaluated,
            },
        }


#: each family's exact pentagon: the ``input_stats`` columns it reads, and its
#: caps (r1, r2, sum) from them; no row calls a closed form
_PENTAGONS = {
    "dbpc1": (("h_x1_given_t", "h_x2_given_t", "i_x1_y_given_x2", "i_x1x2_y"),
              lambda h1, h2, i1, isum: (np.minimum(i1, h1), 0.5 * h2, isum)),
    "dbpc2": (("h_x1_given_t", "h_x2_given_t", "i_x2_y_given_x1", "i_x1x2_y"),
              lambda h1, h2, i2, isum: (0.5 * h1, np.minimum(i2, h2), isum)),
    "cover-leung": (("h_x1_given_t", "h_x2_given_t", "i_x1x2_y"), lambda h1, h2, isum: (0.5 * h1, 0.5 * h2, isum)),
    "erasure-fb": (("h_x1_given_t", "h_x2_given_t", "h_y_erasure"), lambda h1, h2, h_y: (h1, h2, h_y)),
}


def _symmetric_form(columns, pentagon):
    """An exact pentagon's symmetric rate, as (columns, value from them)."""
    return columns, lambda *stats: bounds._symmetric(*pentagon(*stats))


#: each lattice objective: the ``input_stats`` columns it reads, and its value from them
_OBJECTIVE_FORMS = {
    "db1_symmetric_direct": _symmetric_form(*_PENTAGONS["dbpc1"]),
    "cl_symmetric_direct": _symmetric_form(*_PENTAGONS["cover-leung"]),
    "erasure_sum_direct": (("h_y_erasure",), lambda h_y: h_y),
}
OBJECTIVES = (*_OBJECTIVE_FORMS, "cutset_symmetric_direct")
#: the columns the lattice objectives read, each once
_OBJECTIVE_COLUMNS = tuple(dict.fromkeys(name for names, _ in _OBJECTIVE_FORMS.values() for name in names))

#: each input lattice's best (value, row, rows swept) per lattice objective, by
#: config; every sweep of the lattice stores it, and nothing evicts it
_BEST: dict[OracleConfig, dict[str, tuple[float, np.ndarray, int]]] = {}


def _best_row(parts, vals) -> tuple[float, np.ndarray, int]:
    """A block's best value, its lexicographically smallest parameter row, and the block's row count.

    The block's parameter rows are its ``parts`` side by side; they are
    joined only for the rows that reach the best value, found by one scan of
    ``vals`` (a boolean mask would be scanned again for each part).
    """
    m = float(vals.max())
    hit = np.flatnonzero(vals == m)
    rows = np.concatenate([x[hit] for x in parts], axis=1)
    return m, rows[np.lexsort(rows.T[::-1])[0]], len(vals)


def _better(a, b):
    """The merge of two :func:`_best_row` results: the larger value, on a tie the smaller row; the counts add."""
    (va, ra, na), (vb, rb, nb) = a, b
    value, row = (vb, rb) if vb > va or (vb == va and tuple(rb) < tuple(ra)) else (va, ra)
    return value, row, na + nb


def oracle_max(objective: str, cfg: OracleConfig) -> OracleResult:
    """Maximize a direct (non-closed-form) objective over the configured grid.

    Ties on the maximum value resolve to the lexicographically smallest
    parameter vector, so parallel or re-chunked sweeps reproduce the result.
    The cut-set objective sweeps the 3-simplex lattice of 4-atom joints.  The
    other three read ``_BEST[cfg]``, the memo of one sweep of the input
    lattice (see the module docstring): after :func:`verify_characterization`
    or another of them at ``cfg`` this makes no kernel call, and on an empty
    memo it sweeps the lattice once for all three, calling no closed form.
    The size is checked on every call, before the memo is read.  A caller
    that patches ``_kernels.input_stats`` must call ``_BEST.clear()`` first.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if objective == "cutset_symmetric_direct":  # block i holds the joints of first entry i / (steps - 1)
        check_size(_lattice_size(4, cfg.steps), "grid", cfg.budget)  # before the rows of every block
        rows = [_lattice_size(3, cfg.steps - i) for i in range(cfg.steps)]
        each = lambda joints: _best_row((joints,), bounds._symmetric(*_kernels.cutset_stats(joints).T))
        value, key, n_eval = _sharded(each, _better, lambda: _simplex_lattice(4, cfg.steps), rows)
    else:
        check_size(cfg.grid_size, "grid", cfg.budget)
        if cfg not in _BEST:
            _sweep_lattice(cfg, characterize=False)
        value, key, n_eval = _BEST[cfg][objective]
    return OracleResult(
        objective=objective,
        value=value,
        argmax_params=tuple(float(v) for v in key),
        n_evaluated=n_eval,
        config=cfg,
    )


def _sweep_lattice(cfg: OracleConfig, characterize: bool):
    """Sweep ``cfg``'s input lattice once: store each lattice objective's best in ``_BEST``, and return the report.

    The report is the :func:`_characterize` report of the whole lattice, or
    None when ``characterize`` is false.
    """
    each = partial(_sweep, characterize=characterize)
    blocks = list(_input_blocks(cfg))  # views of one q set, which forked shards share
    best, report = _sharded(each, _merge_sweeps, lambda: blocks, [len(p) for (p, _, _), _ in blocks])
    _BEST[cfg] = dict(zip(_OBJECTIVE_FORMS, best))
    return report


def _sweep(chunk, characterize: bool):
    """A chunk's :func:`_best_row` for each lattice objective, and its :func:`_characterize` report if asked.

    ``chunk`` is a ``(block, users)`` pair of :func:`_input_blocks`.  The
    columns read are, with ``characterize``, those of ``_CHECKED_COLUMNS``,
    which hold ``_OBJECTIVE_COLUMNS``, else ``_OBJECTIVE_COLUMNS`` alone.
    """
    block, users = chunk
    s = _block_stats(block, users, _CHECKED_COLUMNS if characterize else _OBJECTIVE_COLUMNS)
    best = tuple(_best_row(block, form(*map(s.get, names))) for names, form in _OBJECTIVE_FORMS.values())
    return best, _characterize(block, s, users) if characterize else None


#: the columns that read one user's input law alone: H(X1|T) at (P(t), q1), and H(X2|T) at (P(t), q2)
_PER_USER = ("h_x1_given_t", "h_x2_given_t")


def _block_stats(block, users, columns: tuple[str, ...]) -> dict:
    """The block's ``columns``, by name.

    One ``input_stats`` call over the block gives the columns outside
    ``_PER_USER``, and one at the block's ``users`` (of :func:`_input_blocks`)
    gives the ``_PER_USER`` columns, which both column sets of :func:`_sweep`
    read, gathered to the block's rows.  A block whose users are its own
    rows (``t_card`` 3) takes every column from its one call: a second would
    rebuild P(t, x1) and P(t, x2) at the same rows, and a column's bits do
    not depend on the others asked with it.
    """
    p, v1, v2, at1, at2 = users
    if isinstance(at1, slice):
        return dict(zip(columns, _kernels.input_stats(*block, columns).T))
    joint = tuple(name for name in columns if name not in _PER_USER)
    s = dict(zip(joint, _kernels.input_stats(*block, joint).T))
    h1, h2 = _kernels.input_stats(p, v1, v2, _PER_USER).T
    s["h_x1_given_t"], s["h_x2_given_t"] = h1[at1], h2[at2]
    return s


def _merge_sweeps(a, b):
    """The merge of two :func:`_sweep` results: :func:`_better` for each objective, and :func:`_merge_reports`."""
    (best_a, report_a), (best_b, report_b) = a, b
    report = None if report_a is None else _merge_reports(report_a, report_b)
    return tuple(map(_better, best_a, best_b)), report


_INEQUALITIES = ("h_x1_given_t", "h_x2_given_t", "i_x1_y_given_x2", "i_x2_y_given_x1", "i_x1x2_y", "h_y_erasure")
_IDENTITIES = ("half_h_x1", "half_h_x2")
#: the ``input_stats`` columns the characterization reads
_CHECKED_COLUMNS = _INEQUALITIES + ("h_x1_given_y_x2_t", "h_x2_given_y_x1_t")
#: a cap counts as tight at a lattice point when the exact value is within this of it
_EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class CharacterizationReport:
    """Max violations of the closed-form caps over an input lattice."""

    config: OracleConfig
    n_evaluated: int
    max_violation: dict
    equality_count: dict

    def to_dict(self) -> dict:
        return {
            "grid": {
                "t_card": self.config.t_card,
                "steps": self.config.steps,
                "evaluations": self.n_evaluated,
            },
            "max_violation": dict(self.max_violation),
            "equality_count": dict(self.equality_count),
            "worst": self.worst_violation,
        }

    @property
    def worst_violation(self) -> float:
        return max(self.max_violation.values())


def verify_characterization(cfg: OracleConfig) -> CharacterizationReport:
    """Check every closed-form cap and identity over the configured lattice.

    For each lattice distribution the exact information quantities (both
    channels) are compared against the (u1, u2, u) caps; the report carries
    the largest violation of each inequality and how often it is tight.  The
    same sweep stores the lattice objectives' results in ``_BEST``.
    """
    check_size(cfg.grid_size, "grid", cfg.budget)
    n, viol, eq = _sweep_lattice(cfg, characterize=True)
    return CharacterizationReport(config=cfg, n_evaluated=n, max_violation=viol, equality_count=eq)


def _characterize(block, s: dict, users) -> tuple[int, dict, dict]:
    """The rows of a ``(p, q1, q2)`` block, each check's largest violation over them, and each cap's tight rows.

    ``s`` maps each name of ``_CHECKED_COLUMNS`` to the block's column.  u is
    taken at the block's rows; u1 and u2, which the caps of H(X1|T) and
    H(X2|T) alone read, at the block's ``users`` of :func:`_input_blocks`,
    and those caps are gathered to the block's rows.
    """
    p_v, v1, v2, at1, at2 = users
    u = pair_u(*block)
    h1, h2, mu = bounds._CAPS["erasure-fb"](user_u(p_v, v1), user_u(p_v, v2), u)  # h(phi(2 u1)), h(phi(2 u2)), mu(u)
    h1, h2 = h1[at1], h2[at2]
    half_h = bounds._half_h(u)
    caps = dict(zip(_INEQUALITIES, (h1, h2, half_h, half_h, bounds._h_mid(u), mu)))
    viol, eq = {}, {}
    for name, cap in caps.items():  # each gap is reduced as soon as it is formed
        gap = s[name] - cap
        viol[name], eq[name] = float(gap.max()), int(np.count_nonzero(gap >= -_EQUALITY_TOL))
    viol["half_h_x1"] = float(np.abs(s["h_x1_given_y_x2_t"] - 0.5 * s["h_x1_given_t"]).max())
    viol["half_h_x2"] = float(np.abs(s["h_x2_given_y_x1_t"] - 0.5 * s["h_x2_given_t"]).max())
    return len(u), viol, eq


def _merge_reports(a, b):
    """The merge of two :func:`_characterize` results: counts add, and ``max`` keeps the first of equal maxima.

    So a maximum of zero keeps the sign of the earliest block that reaches it.
    """
    (na, va, ea), (nb, vb, eb) = a, b
    return na + nb, {k: max(va[k], vb[k]) for k in va}, {k: ea[k] + eb[k] for k in ea}
