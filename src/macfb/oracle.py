"""Brute-force verification of the closed-form characterizations.

The oracles evaluate the bounds' original information-theoretic expressions by
exact enumeration (through the kernel layer, whose semantics match
``macfb.channel``) over lattices of conditionally independent inputs, never
the closed-form (u1, u2, u) characterizations they are checking.  Those are
taken from ``macfb.bounds``, the functions that build the regions, only to
be compared with the enumeration.

A sweep of at least ``_SHARD_MIN_ROWS`` rows is split into shards, one per
CPU this process may run on and at most one per block of the sweep: shard i
of w takes blocks i, i + w, i + 2w, ...  Shard 0 runs in this process and
the others in children made with ``os.fork``; each reduces its blocks to a
small partial result (maxima with their argmax or first block, and counts),
sends it back through a pipe as a pickle, and leaves through ``os._exit``.
The partials merge by max and sum, exactly and in an order-free way (an
argmax tie goes to the smaller row, a tie of maxima to the earlier block),
so every result is bit for bit that of one process, whatever the number of
shards.  Smaller sweeps, and every sweep where ``os.fork`` is missing, run
in this process alone.  A function wrapped or monkeypatched in this process
(a counter on ``_kernels.input_stats``, say) also runs in the children, but
what it records there is lost with them.  On Python 3.12 and later
``os.fork`` warns in a process with threads, as numpy's OpenBLAS pool makes
this one; the sharding has been run on Python 3.11 only.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from . import _kernels, bounds
from ._budget import BUDGET_ENV_VAR, DEFAULT_BUDGET, BudgetExceededError, check_size, env_budget
from .channel import JointInputDistribution
from .feasible import u_triples

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

OBJECTIVES = (
    "db1_symmetric_direct",
    "cl_symmetric_direct",
    "erasure_sum_direct",
    "cutset_symmetric_direct",
)

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
    a Latin hypercube drawn from ``seed``.  ``budget`` only bounds the size.
    """

    t_card: int = 2
    steps: int = 21
    seed: int = 0
    budget: int | None = None

    def __post_init__(self):
        if self.t_card not in (1, 2, 3):
            raise ValueError("t_card must be 1, 2 or 3")
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        if self.budget is None:
            object.__setattr__(self, "budget", env_budget())

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
    k, g = cfg.t_card, np.linspace(0.0, 1.0, cfg.steps)
    if k == 3:  # a full lattice of six q axes is out of reach
        q = _latin_hypercube(np.random.default_rng(cfg.seed), cfg.steps**3, 6)
    else:
        q = np.stack([x.ravel() for x in np.meshgrid(*[g] * (2 * k), indexing="ij")], axis=1)
    for p_rows in _simplex_lattice(k, cfg.steps):
        for p in p_rows:
            for start in range(0, len(q), _CHUNK):
                block = q[start : start + _CHUNK]
                yield np.broadcast_to(p, (len(block), k)), block[:, :k], block[:, k:]


def _grid_blocks(cfg: OracleConfig) -> int:
    """The number of chunks :func:`iter_input_grid` yields: the q set in ``_CHUNK`` rows at each P(t) point."""
    n_p = _lattice_size(cfg.t_card, cfg.steps)
    return n_p * -(-(cfg.grid_size // n_p) // _CHUNK)


def _latin_hypercube(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    cells = (np.arange(n)[:, None] + rng.uniform(size=(n, dim))) / n
    for j in range(dim):
        cells[:, j] = cells[rng.permutation(n), j]
    return cells


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _sharded(reduce: Callable, blocks: Callable[[], Iterator], n_rows: int, n_blocks: int) -> list:
    """``reduce`` of each shard's blocks of the sweep ``blocks()``, in shard order (see the module docstring).

    ``blocks()`` makes a new iterator over the sweep's ``n_blocks`` blocks of
    ``n_rows`` rows in all.  A child's exception is raised here, with its
    type and message.  No child outlives the call: on every way out, the
    children still running are killed and every child is waited for.
    """
    w = min(_cpus(), n_blocks) if n_rows >= _SHARD_MIN_ROWS and hasattr(os, "fork") else 1
    if w == 1:
        return [reduce(blocks())]

    import signal  # here, so that ``import macfb`` imports nothing more

    def shard(i):
        return reduce(islice(blocks(), i, None, w))

    running, pipes = [], []
    try:
        for i in range(1, w):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(shard, i, write_end)
            finally:
                os.close(write_end)
            running.append(pid)
        partials = [shard(0)]
        for pid, read_end in zip(list(running), pipes):
            payload = b"".join(iter(lambda: os.read(read_end, 1 << 16), b""))
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            if not payload:
                raise RuntimeError(f"oracle shard process {pid} ended with wait status {status} and no result")
            ok, value = pickle.loads(payload)  # written by _serve in a fork of this process
            if not ok:
                raise value
            partials.append(value)
        return partials
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read_end in pipes:
            os.close(read_end)


def _serve(shard: Callable, i: int, write_end: int):
    """In a forked child: send ``(True, shard(i))``, or ``(False, exception)``, through ``write_end``; never returns.

    The child leaves only through ``os._exit``, so it runs no ``atexit``
    handler and flushes no stdio buffer it inherited.  Every exception,
    ``KeyboardInterrupt`` too, is sent to the parent, which raises it.
    """
    status = 1
    try:
        try:
            out = (True, shard(i))
        except BaseException as exc:  # the parent raises it
            out = (False, exc)
        with open(write_end, "wb", closefd=False) as f:
            pickle.dump(out, f)
        status = 0
    finally:
        os._exit(status)


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


#: each lattice objective: the ``input_stats`` columns it reads, and its value from them
_OBJECTIVE_FORMS = {
    "db1_symmetric_direct": (
        ("h_x1_given_t", "h_x2_given_t", "i_x1_y_given_x2", "i_x1x2_y"),
        lambda h1, h2, i1, isum: bounds._symmetric(np.minimum(i1, h1), 0.5 * h2, isum),
    ),
    "cl_symmetric_direct": (
        ("h_x1_given_t", "h_x2_given_t", "i_x1x2_y"),
        lambda h1, h2, isum: bounds._symmetric(0.5 * h1, 0.5 * h2, isum),
    ),
    "erasure_sum_direct": (("h_y_erasure",), lambda h_y: h_y),
}


def _lattice_max(chunks) -> tuple[float, np.ndarray, int]:
    """The best value over ``(parts, values)`` chunks, its parameter row, and the number of rows.

    A chunk's parameter rows are its ``parts`` side by side; they are joined
    only for the rows where the chunk reaches the best value so far.  Ties
    resolve to the lexicographically smallest row, so re-chunked sweeps
    reproduce the result.
    """
    best_val, best_key, n_eval = -np.inf, None, 0
    for parts, vals in chunks:
        n_eval += len(vals)
        m = float(vals.max())
        if m < best_val:
            continue
        hit = vals == m
        rows = np.concatenate([x[hit] for x in parts], axis=1)
        key = rows[np.lexsort(rows.T[::-1])[0]]
        if m > best_val or tuple(key) < tuple(best_key):
            best_val, best_key = m, key
    return best_val, best_key, n_eval


def oracle_max(objective: str, cfg: OracleConfig) -> OracleResult:
    """Maximize a direct (non-closed-form) objective over the configured grid.

    Ties on the maximum value resolve to the lexicographically smallest
    parameter vector, so parallel or re-chunked sweeps reproduce the result.
    The cut-set objective sweeps the 3-simplex lattice of 4-atom joints.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if objective == "cutset_symmetric_direct":
        n_rows = _lattice_size(4, cfg.steps)
        check_size(n_rows, "grid", cfg.budget)
        partials = _sharded(
            lambda joints: _lattice_max(((j,), bounds._symmetric(*_kernels.cutset_stats(j).T)) for j in joints),
            lambda: _simplex_lattice(4, cfg.steps), n_rows, cfg.steps,
        )
    else:
        check_size(cfg.grid_size, "grid", cfg.budget)
        columns, form = _OBJECTIVE_FORMS[objective]
        partials = _sharded(
            lambda chunks: _lattice_max(
                ((p, q1, q2), form(*_kernels.input_stats(p, q1, q2, columns).T)) for p, q1, q2 in chunks
            ),
            lambda: iter_input_grid(cfg), cfg.grid_size, _grid_blocks(cfg),
        )
    # each shard's best row is a chunk of one row, so the tie rule is the one of a single sweep
    value, key, _ = _lattice_max(((key[None],), np.array([value])) for value, key, _ in partials)
    n_eval = sum(n for _, _, n in partials)
    return OracleResult(
        objective=objective,
        value=value,
        argmax_params=tuple(float(v) for v in key),
        n_evaluated=n_eval,
        config=cfg,
    )


_INEQUALITIES = ("h_x1_given_t", "h_x2_given_t", "i_x1_y_given_x2", "i_x2_y_given_x1", "i_x1x2_y", "h_y_erasure")
_IDENTITIES = ("half_h_x1", "half_h_x2")
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
    the largest violation of each inequality and how often it is tight.
    """
    check_size(cfg.grid_size, "grid", cfg.budget)
    partials = _sharded(_characterize, lambda: enumerate(iter_input_grid(cfg)), cfg.grid_size, _grid_blocks(cfg))
    # each maximum is that of the first block to reach it, as in one sweep in
    # block order, which fixes the sign of a maximum of zero
    viol = {
        name: max((v[name] for _, v, _ in partials), key=lambda value_block: (value_block[0], -value_block[1]))[0]
        for name in _INEQUALITIES + _IDENTITIES
    }
    eq = {name: sum(e[name] for _, _, e in partials) for name in _INEQUALITIES}
    n = sum(n for n, _, _ in partials)
    return CharacterizationReport(config=cfg, n_evaluated=n, max_violation=viol, equality_count=eq)


def _characterize(blocks) -> tuple[int, dict, dict]:
    """The rows of numbered ``(i, (p, q1, q2))`` blocks, and over them each check's largest violation.

    A violation comes with the first block that reaches it, and each cap
    with the number of rows where it is tight.
    """
    viol = {name: (-np.inf, -1) for name in _INEQUALITIES + _IDENTITIES}
    eq = {name: 0 for name in _INEQUALITIES}
    n = 0
    columns = _INEQUALITIES + ("h_x1_given_y_x2_t", "h_x2_given_y_x1_t")
    for i, (p, q1, q2) in blocks:
        s = dict(zip(columns, _kernels.input_stats(p, q1, q2, columns).T))
        u1, u2, u = u_triples(p, q1, q2)
        # the erasure triple form is the raw terms h(phi(2 u1)), h(phi(2 u2)), mu(u)
        h1, h2, mu = bounds._erasure_caps(u1, u2, u)
        half_h = bounds._half_h(u)
        caps = {
            "h_x1_given_t": h1,
            "h_x2_given_t": h2,
            "i_x1_y_given_x2": half_h,
            "i_x2_y_given_x1": half_h,
            "i_x1x2_y": bounds._h_mid(u),
            "h_y_erasure": mu,
        }
        gaps = {name: s[name] - cap for name, cap in caps.items()}
        for name, gap in gaps.items():
            eq[name] += int(np.count_nonzero(gap >= -_EQUALITY_TOL))
        gaps["half_h_x1"] = np.abs(s["h_x1_given_y_x2_t"] - 0.5 * s["h_x1_given_t"])
        gaps["half_h_x2"] = np.abs(s["h_x2_given_y_x1_t"] - 0.5 * s["h_x2_given_t"])
        for name, gap in gaps.items():
            m = float(gap.max())
            if m > viol[name][0]:
                viol[name] = (m, i)
        n += len(u)
    return n, viol, eq
