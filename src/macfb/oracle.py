"""Brute-force verification of the closed-form characterizations.

The oracles evaluate the bounds' original information-theoretic expressions by
exact enumeration (through the kernel layer, whose semantics match
``macfb.channel``) over lattices of conditionally independent inputs, never
the closed-form (u1, u2, u) characterizations they are checking.  Those are
taken from ``macfb.bounds``, the functions that build the regions, only to
be compared with the enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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


def _latin_hypercube(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    cells = (np.arange(n)[:, None] + rng.uniform(size=(n, dim))) / n
    for j in range(dim):
        cells[:, j] = cells[rng.permutation(n), j]
    return cells


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
        check_size(_lattice_size(4, cfg.steps), "grid", cfg.budget)
        value, key, n_eval = _lattice_max(
            ((j,), bounds._symmetric(*_kernels.cutset_stats(j).T)) for j in _simplex_lattice(4, cfg.steps)
        )
    else:
        check_size(cfg.grid_size, "grid", cfg.budget)
        columns, form = _OBJECTIVE_FORMS[objective]
        value, key, n_eval = _lattice_max(
            ((p, q1, q2), form(*_kernels.input_stats(p, q1, q2, columns).T))
            for p, q1, q2 in iter_input_grid(cfg)
        )
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
    viol = {name: -np.inf for name in _INEQUALITIES + _IDENTITIES}
    eq = {name: 0 for name in _INEQUALITIES}
    n = 0
    columns = _INEQUALITIES + ("h_x1_given_y_x2_t", "h_x2_given_y_x1_t")
    for p, q1, q2 in iter_input_grid(cfg):
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
        for name, cap in caps.items():
            gap = s[name] - cap
            viol[name] = max(viol[name], float(gap.max()))
            eq[name] += int(np.count_nonzero(gap >= -_EQUALITY_TOL))
        half_x1 = np.abs(s["h_x1_given_y_x2_t"] - 0.5 * s["h_x1_given_t"])
        half_x2 = np.abs(s["h_x2_given_y_x1_t"] - 0.5 * s["h_x2_given_t"])
        viol["half_h_x1"] = max(viol["half_h_x1"], float(half_x1.max()))
        viol["half_h_x2"] = max(viol["half_h_x2"], float(half_x2.max()))
        n += len(u)
    return CharacterizationReport(config=cfg, n_evaluated=n, max_violation=viol, equality_count=eq)
