"""The evaluation budget that bounds every grid, curve and sample count.

Sweeps compare their size with the budget before they allocate anything and
raise :class:`BudgetExceededError` when it is larger.  ``MACFB_BUDGET`` (a
positive integer) overrides the default budget; unset or empty means the
default.  :func:`is_integer` is the type check of the integer fields of
``OracleConfig`` and ``RegionSpec``, which size their grids.
"""

from __future__ import annotations

import numbers
import os

DEFAULT_BUDGET = 100_000_000
BUDGET_ENV_VAR = "MACFB_BUDGET"


class BudgetExceededError(RuntimeError):
    """Requested grid is larger than the evaluation budget."""


class InvalidBudgetError(ValueError):
    """``MACFB_BUDGET`` is set to something other than a positive integer."""


def env_budget() -> int:
    """The budget ``MACFB_BUDGET`` sets, or the default when it is unset or empty."""
    raw = os.environ.get(BUDGET_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise InvalidBudgetError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def check_size(size: int, what: str, budget: int | None = None) -> None:
    """Raise :class:`BudgetExceededError` if ``size`` evaluations exceed ``budget`` (default: the environment's)."""
    if budget is None:
        budget = env_budget()
    if size > budget:
        raise BudgetExceededError(
            f"{what} of {size} evaluations exceeds budget {budget} (set {BUDGET_ENV_VAR} to raise it)"
        )


def is_integer(value) -> bool:
    """True for an integer, numpy's included, that is not a ``bool``, which ``numbers.Integral`` admits."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
