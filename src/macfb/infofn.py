"""Entropy and composite functions used by every bound in the package.

All logarithms are base 2 and ``0 * log 0 == 0`` throughout.  Every function
accepts scalars or numpy arrays and is pure; inputs that stray outside their
domain by at most ``CLAMP_TOL`` are clamped (float drift at simplex corners),
anything further out raises :class:`DomainError`.
"""

from __future__ import annotations

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
    """Clamp ``s`` into [0, hi], raising if it is out by more than CLAMP_TOL."""
    arr = np.asarray(s, dtype=float)
    # asked as "all inside", so NaN, which fails every comparison, is rejected
    if not (np.all(arr >= -CLAMP_TOL) and np.all(arr <= hi + CLAMP_TOL)):
        raise DomainError(f"{name} must lie in [0, {hi}], got {s!r}")
    clipped = np.clip(arr, 0.0, hi)
    return clipped if arr.shape else float(clipped)


def as_probability_vector(entries, tol: float = CLAMP_TOL) -> np.ndarray:
    """Validate and return ``entries`` as a probability vector.

    Entries must lie in [0, 1] (within ``tol``) and sum to 1 within 1e-12.
    """
    p = np.asarray(entries, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("probability vector must be a nonempty 1-D array")
    if not (np.all(p >= -tol) and np.all(p <= 1.0 + tol)):
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


def binary_entropy(s):
    """h(s) = -s log2 s - (1-s) log2 (1-s); symmetric about 1/2."""
    s = _clamp_interval(s, 1, "s")
    arr = np.asarray(s, dtype=float)
    # 0 - (p log p) - ((1-p) log (1-p)) in place: subtracting from +0.0
    # keeps h(0) = h(1) = +0.0, and one table fewer keeps the heap smaller
    out = plogp(arr)
    np.subtract(0.0, out, out=out)
    out -= plogp(1.0 - arr)
    return out if arr.shape else float(out)


def phi(s):
    """Lower-branch inverse of s -> 2s(1-s), extended symmetrically past 1/2.

    phi(s) = (1 - sqrt(1-2s))/2 on [0, 1/2] and (1 - sqrt(2s-1))/2 on
    (1/2, 1]; both branches meet at phi(1/2) = 1/2 and the range is [0, 1/2].
    """
    s = _clamp_interval(s, 1, "s")
    arr = np.asarray(s, dtype=float)
    inner = np.where(arr <= 0.5, 1.0 - 2.0 * arr, 2.0 * arr - 1.0)
    out = (1.0 - np.sqrt(np.maximum(inner, 0.0))) / 2.0
    return out if arr.shape else float(out)


def phi_inv(y):
    """Inverse of phi on its increasing branch: y -> 2y(1-y) for y in [0, 1/2]."""
    y = _clamp_interval(y, 0.5, "y")
    arr = np.asarray(y, dtype=float)
    out = 2.0 * arr * (1.0 - arr)
    return out if arr.shape else float(out)


def f2(x, y):
    """f(x, y) = phi(x) + phi(y) - 2 phi(x) phi(y) = (1 - sqrt((1-2x)(1-2y)))/2.

    Defined for x, y in [0, 1/2]; symmetric, jointly convex, range [0, 1/2].
    """
    x = _clamp_interval(x, 0.5, "x")
    y = _clamp_interval(y, 0.5, "y")
    ax, ay = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    prod = np.maximum((1.0 - 2.0 * ax) * (1.0 - 2.0 * ay), 0.0)
    out = (1.0 - np.sqrt(prod)) / 2.0
    return out if (ax.shape or ay.shape) else float(out)


def f2_hessian(x: float, y: float) -> np.ndarray:
    """Hessian of f2 at an interior point (x, y), x, y in [0, 1/2).

    Singular (one zero eigenvalue) with nonnegative trace everywhere, which
    is the convexity certificate tested in the property suite.
    """
    x = _clamp_interval(float(x), 0.5, "x")
    y = _clamp_interval(float(y), 0.5, "y")
    if x >= 0.5 or y >= 0.5:
        raise DomainError("Hessian requires interior points x, y < 1/2")
    rx, ry = 1.0 - 2.0 * x, 1.0 - 2.0 * y
    off = -1.0 / (2.0 * np.sqrt(rx * ry))
    return np.array(
        [
            [np.sqrt(ry) / (2.0 * rx**1.5), off],
            [off, np.sqrt(rx) / (2.0 * ry**1.5)],
        ]
    )


def xi(u1, u2):
    """xi(u1, u2) = (1 - f2(2 u1, 2 u2)) / 2, jointly concave on [0, 1/4]^2."""
    u1 = _clamp_interval(u1, 0.25, "u1")
    u2 = _clamp_interval(u2, 0.25, "u2")
    a1, a2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    out = (1.0 - np.asarray(f2(2.0 * a1, 2.0 * a2))) / 2.0
    return out if (a1.shape or a2.shape) else float(out)


def g_fn(u1, u2):
    """g(u1, u2) = h((1 - f2(2 u1, 2 u2)) / 2) / 2.

    Monotone decreasing and jointly concave on [0, 1/4]^2.
    """
    val = binary_entropy(xi(u1, u2))
    arr = np.asarray(val)
    out = arr / 2.0
    return out if arr.shape else float(out)


def mu_fn(s):
    """mu(s) = h(s) + 1 - s; concave on [0, 1], maximized at s = 1/3."""
    s = _clamp_interval(s, 1, "s")
    arr = np.asarray(s, dtype=float)
    out = np.asarray(binary_entropy(arr)) + 1.0 - arr
    return out if arr.shape else float(out)
