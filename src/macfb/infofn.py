"""Entropy and composite functions used by every bound in the package.

All logarithms are base 2 and ``0 * log 0 == 0`` throughout.  The closed
forms share one contract, kept by :func:`_closed_form`: an argument within
``CLAMP_TOL`` of its interval [0, hi] is clamped into it (float drift at
simplex corners), and one further out, or NaN, raises :class:`DomainError`
naming it; the result is a ``float`` when every argument is a scalar or 0-d
array, else an array of the broadcast shape.  A form's array body, its
``unchecked`` attribute, takes only values that a checked function produced.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "CLAMP_TOL",
    "DomainError",
    "InvalidDistributionError",
    "as_probability_vector",
    "plogp",
    "entropy_k",
    "binary_entropy",
    "phi",
    "phi_inv",
    "f2",
    "f2_hessian",
    "f2_hessian_rows",
    "xi",
    "g_fn",
    "mu_fn",
]

#: slack allowed before a domain violation becomes an error
CLAMP_TOL = 1e-12


class DomainError(ValueError):
    """Argument outside the function's domain by more than ``CLAMP_TOL``."""


class InvalidDistributionError(ValueError):
    """Vector is not a probability distribution within tolerance."""


def _clamp_interval(s, hi: float, name: str):
    """Clamp ``s`` into [0, hi], raising if it is out by more than CLAMP_TOL; a scalar comes back as ``np.float64``.

    An array already inside [0, hi] comes back as it is, not copied.
    """
    arr = np.asarray(s, dtype=float)
    if arr.size:
        least, most = arr.min(), arr.max()
        # asked as "inside", so NaN, which makes both NaN and fails every comparison, is rejected
        if not (least >= -CLAMP_TOL and most <= hi + CLAMP_TOL):
            raise DomainError(f"{name} must lie in [0, {hi}], got {s!r}")
        if least < 0.0 or most > hi:
            arr = np.clip(arr, 0.0, hi)
    return arr[()] if arr.ndim == 0 else arr


def _closed_form(**domains):
    """Give an array body this module's contract; ``domains`` maps each argument, in order, to its ``hi``."""
    def wrap(body):
        @functools.wraps(body)
        def checked(*args):
            clamped = [_clamp_interval(a, hi, name) for a, (name, hi) in zip(args, domains.items())]
            # a missing or surplus argument reaches the body, which raises TypeError
            out = body(*clamped, *args[len(domains):])
            return out if any(isinstance(c, np.ndarray) for c in clamped) else float(out)
        checked.unchecked = body
        return checked
    return wrap


def as_probability_vector(entries) -> np.ndarray:
    """Validate and return ``entries`` as a probability vector.

    Entries must lie in [0, 1] (within ``CLAMP_TOL``) and sum to 1 within 1e-12.
    """
    p = np.asarray(entries, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("probability vector must be a nonempty 1-D array")
    if not (np.all(p >= -CLAMP_TOL) and np.all(p <= 1.0 + CLAMP_TOL)):
        raise InvalidDistributionError(f"entries outside [0, 1]: {entries!r}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-12:
        raise InvalidDistributionError(f"entries sum to {total!r}, not 1")
    return np.clip(p, 0.0, 1.0)


def plogp(p: np.ndarray) -> np.ndarray:
    """``p log2 p`` elementwise for a float array, 0 where ``p = 0``; every entropy here sums these."""
    # log2(1) = 0 stands in for p = 0; multiplying by p keeps the sign of a zero and NaN
    logs = np.where(p > 0.0, p, 1.0)
    np.log2(logs, out=logs)
    logs *= p
    return logs


def entropy_k(p) -> float:
    """Entropy in bits of a finite distribution."""
    vec = as_probability_vector(p)
    return float(0.0 - plogp(vec).sum())


@_closed_form(s=1)
def binary_entropy(s):
    """h(s) = -s log2 s - (1-s) log2 (1-s); symmetric about 1/2."""
    # 0 - (p log p) - ((1-p) log (1-p)) in place: subtracting from +0.0
    # keeps h(0) = h(1) = +0.0, and one table fewer keeps the heap smaller
    out = plogp(s)
    np.subtract(0.0, out, out=out)
    out -= plogp(1.0 - s)
    return out


@_closed_form(s=1)
def phi(s):
    """Lower-branch inverse of s -> 2s(1-s), extended symmetrically past 1/2.

    phi(s) = (1 - sqrt(1-2s))/2 on [0, 1/2] and (1 - sqrt(2s-1))/2 on
    (1/2, 1]; both branches meet at phi(1/2) = 1/2 and the range is [0, 1/2].
    """
    return (1.0 - np.sqrt(np.abs(1.0 - 2.0 * s))) / 2.0


@_closed_form(y=0.5)
def phi_inv(y):
    """Inverse of phi on its increasing branch: y -> 2y(1-y) for y in [0, 1/2]."""
    return 2.0 * y * (1.0 - y)


@_closed_form(x=0.5, y=0.5)
def f2(x, y):
    """f(x, y) = phi(x) + phi(y) - 2 phi(x) phi(y) = (1 - sqrt((1-2x)(1-2y)))/2.

    Defined for x, y in [0, 1/2]; symmetric, jointly convex, range [0, 1/2].
    """
    return (1.0 - np.sqrt((1.0 - 2.0 * x) * (1.0 - 2.0 * y))) / 2.0


@_closed_form(x=0.5, y=0.5)
def f2_hessian_rows(x, y):
    """Hessians of f2 at the interior points (x[i], y[i]), x, y in [0, 1/2), for 1-D arrays: shape (n, 2, 2).

    Each is singular (one zero eigenvalue) with nonnegative trace
    everywhere, which is the convexity certificate tested in the property
    suite.
    """
    if np.any(x >= 0.5) or np.any(y >= 0.5):
        raise DomainError("Hessian requires interior points x, y < 1/2")
    rx, ry = 1.0 - 2.0 * x, 1.0 - 2.0 * y
    off = -1.0 / (2.0 * np.sqrt(rx * ry))
    return np.stack([np.sqrt(ry) / (2.0 * rx**1.5), off, off, np.sqrt(rx) / (2.0 * ry**1.5)], axis=-1).reshape(-1, 2, 2)


def f2_hessian(x: float, y: float) -> np.ndarray:
    """Hessian of f2 at an interior point (x, y), x, y in [0, 1/2): :func:`f2_hessian_rows` of one row."""
    return f2_hessian_rows([x], [y])[0]


@_closed_form(u1=0.25, u2=0.25)
def xi(u1, u2):
    """xi(u1, u2) = (1 - f2(2 u1, 2 u2)) / 2, jointly concave on [0, 1/4]^2."""
    return (1.0 - f2.unchecked(2.0 * u1, 2.0 * u2)) / 2.0


@_closed_form(u1=0.25, u2=0.25)
def g_fn(u1, u2):
    """g(u1, u2) = h((1 - f2(2 u1, 2 u2)) / 2) / 2.

    Monotone decreasing and jointly concave on [0, 1/4]^2.
    """
    return binary_entropy.unchecked(xi.unchecked(u1, u2)) / 2.0


@_closed_form(s=1)
def mu_fn(s):
    """mu(s) = h(s) + 1 - s; concave on [0, 1], maximized at s = 1/3."""
    return binary_entropy.unchecked(s) + 1.0 - s
