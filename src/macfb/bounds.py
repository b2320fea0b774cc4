"""Rate-region generators for the binary additive noisy and erasure channels.

Each bound maps its parameters to a :class:`RateConstraintSet` (a pentagon
``R1 <= r1_max``, ``R2 <= r2_max``, ``R1 + R2 <= sum_max`` in the nonnegative
quadrant); region boundaries are assembled by sweeping the parameter domain,
collecting pentagon corners, Pareto-filtering the union, and sharpening the
result with a per-direction local refinement pass.

The refinement maximizes the pentagon support in each of the 181 sweep
directions from the two best points of a fixed coarse grid (independent of
``grid_n``).  Each start runs Nelder-Mead, a coordinate golden-section polish
and a Nelder-Mead restart.  All 362 problems of a family are solved together
as numpy arrays by :func:`_refine`, which evaluates the vectorized caps.

The grid phase keeps its arrays but skips work.  Each Pareto filter of a
sweep-sized point set first drops the points that a point in an r1-bin
further right already dominates, then runs the exact lexsort filter on the
rest, so it keeps the same points.  The dbpc sweep computes the caps that do
not depend on ``u`` once, not once per slice.  dbpc2 is dbpc1 mirrored, and
the dbpc intersection takes the support values of both curves in all sweep
directions in one divide-and-conquer pass over each curve
(:func:`macfb.geometry.support_values`).

Regions
-------
cutset        outer bound, arbitrary input correlation (4-atom joint sweep)
dbpc1, dbpc2  dependence-balance outer bounds (genie = one of the inputs)
dbpc          their intersection, taken in sweep-direction space
cover-leung   achievable region (conditionally independent inputs, binary T)
erasure-fb    feedback capacity region of Y = X1 + X2
erasure-nofb  no-feedback pentagon of Y = X1 + X2
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _kernels
from ._budget import check_size
from .channel import JointInputDistribution
from .feasible import InvalidTripleError, UTriple, in_P
# support_value is unused here but stays a module attribute: perfbench/tracing.py wraps it
from .geometry import BoundaryCurve, pareto_filter, support_value, support_values  # noqa: F401
from .infofn import CLAMP_TOL, DomainError, binary_entropy, f2, mu_fn, phi

__all__ = [
    "Region",
    "RegionSpec",
    "RateConstraintSet",
    "SWEEP_LAMBDAS",
    "db_pc1_constraints",
    "db_pc2_constraints",
    "cover_leung_constraints",
    "cover_leung_witness",
    "erasure_fb_constraints",
    "erasure_fb_witness",
    "erasure_fb_constraints_at_triple",
    "erasure_nofb_constraints",
    "cutset_region_noisy",
    "region_boundary",
]

#: default sweep directions (1-degree resolution over the quarter turn)
SWEEP_LAMBDAS = np.linspace(0.0, 1.0, 181)


class Region(enum.Enum):
    CUTSET = "cutset"
    DBPC1 = "dbpc1"
    DBPC2 = "dbpc2"
    DBPC = "dbpc"
    COVER_LEUNG = "cover-leung"
    ERASURE_FB = "erasure-fb"
    ERASURE_NOFB = "erasure-nofb"


@dataclass(frozen=True)
class RegionSpec:
    which: Region
    grid_n: int = 201

    def __post_init__(self):
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")


@dataclass(frozen=True)
class RateConstraintSet:
    """{(R1, R2) >= 0 : R1 <= r1_max, R2 <= r2_max, R1 + R2 <= sum_max}.

    An absent cap (``None``) means that constraint is not imposed.
    """

    r1_max: float | None
    r2_max: float | None
    sum_max: float | None

    def __post_init__(self):
        for name, cap in (("r1_max", self.r1_max), ("r2_max", self.r2_max), ("sum_max", self.sum_max)):
            if cap is not None and (not np.isfinite(cap) or cap < -1e-12):
                raise ValueError(f"{name} must be finite and nonnegative, got {cap}")
            if cap is not None and cap < 0.0:
                object.__setattr__(self, name, 0.0)

    def _caps(self) -> tuple[float, float, float]:
        inf = np.inf
        return (
            inf if self.r1_max is None else self.r1_max,
            inf if self.r2_max is None else self.r2_max,
            inf if self.sum_max is None else self.sum_max,
        )

    def corners(self) -> list[tuple[float, float]]:
        """Vertices of the pentagon, including the axis intercepts."""
        a, b, c = self._caps()
        x_max = min(a, c)
        y_max = min(b, c)
        if not np.isfinite(x_max) or not np.isfinite(y_max):
            raise ValueError("corners need all-finite caps")
        pts = [
            (x_max, 0.0),
            (0.0, y_max),
            (x_max, min(b, c - x_max)),
            (min(a, c - y_max), y_max),
        ]
        return [(float(x), float(y)) for x, y in pts]

    def support(self, lam: float) -> float:
        """max of lam*R1 + (1-lam)*R2 over the set."""
        return max(lam * x + (1.0 - lam) * y for x, y in self.corners())

    def contains(self, r1: float, r2: float, tol: float = 1e-12) -> bool:
        a, b, c = self._caps()
        return r1 >= -tol and r2 >= -tol and r1 <= a + tol and r2 <= b + tol and r1 + r2 <= c + tol

    def dominates(self, other: "RateConstraintSet", tol: float = 1e-12) -> bool:
        """True if every cap of ``other`` is at most the matching cap here."""
        sa, sb, sc = self._caps()
        oa, ob, oc = other._caps()
        return oa <= sa + tol and ob <= sb + tol and oc <= sc + tol


def _require_in_S(u1: float, u2: float) -> tuple[float, float]:
    if not (-CLAMP_TOL <= u1 <= 0.25 + CLAMP_TOL and -CLAMP_TOL <= u2 <= 0.25 + CLAMP_TOL):
        raise DomainError(f"(u1, u2) = ({u1}, {u2}) outside [0, 1/4]^2")
    return min(max(u1, 0.0), 0.25), min(max(u2, 0.0), 0.25)


def db_pc1_constraints(t: UTriple) -> RateConstraintSet:
    """Genie reveals X1: R1 <= min(h(u)/2, h(phi(2u1))), R2 <= h(phi(2u2))/2."""
    if not in_P(t):
        raise InvalidTripleError(f"{t} is not in P")
    u1, u2, u = t
    return RateConstraintSet(
        r1_max=min(0.5 * binary_entropy(u), binary_entropy(phi(2.0 * u1))),
        r2_max=0.5 * binary_entropy(phi(2.0 * u2)),
        sum_max=binary_entropy((1.0 - u) / 2.0),
    )


def db_pc2_constraints(t: UTriple) -> RateConstraintSet:
    """Genie reveals X2: mirror image of :func:`db_pc1_constraints`."""
    if not in_P(t):
        raise InvalidTripleError(f"{t} is not in P")
    u1, u2, u = t
    return RateConstraintSet(
        r1_max=0.5 * binary_entropy(phi(2.0 * u1)),
        r2_max=min(0.5 * binary_entropy(u), binary_entropy(phi(2.0 * u2))),
        sum_max=binary_entropy((1.0 - u) / 2.0),
    )


def cover_leung_constraints(u1: float, u2: float) -> RateConstraintSet:
    u1, u2 = _require_in_S(u1, u2)
    return RateConstraintSet(
        r1_max=0.5 * binary_entropy(phi(2.0 * u1)),
        r2_max=0.5 * binary_entropy(phi(2.0 * u2)),
        sum_max=binary_entropy((1.0 - f2(2.0 * u1, 2.0 * u2)) / 2.0),
    )


def _binary_t_witness(u1: float, u2: float) -> JointInputDistribution:
    p1 = phi(2.0 * u1)
    p2 = phi(2.0 * u2)
    return JointInputDistribution(
        p_t=np.array([0.5, 0.5]),
        q1=np.array([p1, 1.0 - p1]),
        q2=np.array([p2, 1.0 - p2]),
    )


def cover_leung_witness(u1: float, u2: float) -> JointInputDistribution:
    """Binary uniform-T input attaining the Cover-Leung caps with equality."""
    u1, u2 = _require_in_S(u1, u2)
    return _binary_t_witness(u1, u2)


def erasure_fb_constraints(u1: float, u2: float) -> RateConstraintSet:
    u1, u2 = _require_in_S(u1, u2)
    f = f2(2.0 * u1, 2.0 * u2)
    return RateConstraintSet(
        r1_max=binary_entropy(phi(2.0 * u1)),
        r2_max=binary_entropy(phi(2.0 * u2)),
        sum_max=mu_fn(f),
    )


def erasure_fb_witness(u1: float, u2: float) -> JointInputDistribution:
    """Binary uniform-T input attaining the erasure feedback caps with equality."""
    u1, u2 = _require_in_S(u1, u2)
    return _binary_t_witness(u1, u2)


def erasure_fb_constraints_at_triple(t: UTriple) -> RateConstraintSet:
    """Erasure caps evaluated at a feasible triple (sum cap mu(u), not mu(f2)).

    This is the three-variable form whose projection onto the lower face
    ``u = f2(2u1, 2u2)`` is checked by the equivalence suite.
    """
    if not in_P(t):
        raise InvalidTripleError(f"{t} is not in P")
    u1, u2, u = t
    return RateConstraintSet(
        r1_max=binary_entropy(phi(2.0 * u1)),
        r2_max=binary_entropy(phi(2.0 * u2)),
        sum_max=mu_fn(u),
    )


def erasure_nofb_constraints() -> RateConstraintSet:
    return RateConstraintSet(r1_max=1.0, r2_max=1.0, sum_max=1.5)


# ---------------------------------------------------------------------------
# Region boundary assembly
# ---------------------------------------------------------------------------


def _corners(a, b, c):
    """The two upper pentagon corners (x_max, y_at_x) and (x_at_y, y_max) for arrays of caps."""
    x_max = np.minimum(a, c)
    y_at_x = np.clip(np.minimum(b, c - x_max), 0.0, None)
    y_max = np.minimum(b, c)
    x_at_y = np.clip(np.minimum(a, c - y_max), 0.0, None)
    return x_max, y_at_x, x_at_y, y_max


def _corner_points(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Upper pentagon corners for arrays of caps; shape (2n, 2).

    Axis intercepts are always dominated by these corners, so the Pareto
    frontier of the union is unchanged by omitting them here.
    """
    x_max, y_at_x, x_at_y, y_max = _corners(a, b, c)
    return np.concatenate(
        [np.stack([x_max, y_at_x], axis=1), np.stack([x_at_y, y_max], axis=1)], axis=0
    )


def _support_of_corners(corners, lam):
    """Pentagon support value(s) in direction (lam, 1-lam), from :func:`_corners`."""
    x_max, y_at_x, x_at_y, y_max = corners
    return np.maximum(
        lam * x_max + (1.0 - lam) * y_at_x, lam * x_at_y + (1.0 - lam) * y_max
    )


def _pareto_points(pts: np.ndarray) -> np.ndarray:
    return pareto_filter(pts).points


def _db_fixed_caps(u1: np.ndarray, u2: np.ndarray, mirror: bool):
    """The u-independent parts of the dependence-balance caps.

    Returns h(phi(2 u_g)) of the input the genie reveals (u1, or u2 when
    ``mirror``) and h(phi(2 u_o)) / 2 of the other input.
    """
    genie, other = (u2, u1) if mirror else (u1, u2)
    return binary_entropy(phi(2.0 * genie)), 0.5 * binary_entropy(phi(2.0 * other))


def _db_caps(fixed, u: np.ndarray, mirror: bool):
    """Vectorized caps of the dependence-balance pentagon family at ``u``.

    ``fixed`` is :func:`_db_fixed_caps` of the same (u1, u2).
    """
    h_genie, half_other = fixed
    capped = np.minimum(0.5 * binary_entropy(u), h_genie)
    csum = binary_entropy((1.0 - u) / 2.0)
    if mirror:
        return half_other, capped, csum
    return capped, half_other, csum


def _sweep_db(grid_n: int, mirror: bool) -> np.ndarray:
    check_size(grid_n**3, "dbpc sweep")
    g = np.linspace(0.0, 0.25, grid_n)
    u1, u2 = np.meshgrid(g, g, indexing="ij")
    u1, u2 = u1.ravel(), u2.ravel()
    lo = f2(2.0 * u1, 2.0 * u2)
    span = 1.0 - (u1 + u2) - lo
    fixed = _db_fixed_caps(u1, u2, mirror)
    chunks = []
    for w in np.linspace(0.0, 1.0, grid_n):
        a, b, c = _db_caps(fixed, lo + w * span, mirror)
        chunks.append(_pareto_points(_corner_points(a, b, c)))
    return np.concatenate(chunks, axis=0)


def _sweep_product_region(grid_n: int, caps_fn) -> np.ndarray:
    check_size(grid_n**2, "(u1, u2) sweep")
    g = np.linspace(0.0, 0.25, grid_n)
    u1, u2 = np.meshgrid(g, g, indexing="ij")
    a, b, c = caps_fn(u1.ravel(), u2.ravel())
    return _corner_points(a, b, c)


def _cl_caps(u1: np.ndarray, u2: np.ndarray):
    return (
        0.5 * binary_entropy(phi(2.0 * u1)),
        0.5 * binary_entropy(phi(2.0 * u2)),
        binary_entropy((1.0 - f2(2.0 * u1, 2.0 * u2)) / 2.0),
    )


def _erasure_caps(u1: np.ndarray, u2: np.ndarray):
    f = f2(2.0 * u1, 2.0 * u2)
    return binary_entropy(phi(2.0 * u1)), binary_entropy(phi(2.0 * u2)), mu_fn(f)


def _simplex_grid(grid_n: int):
    """Yield (n, 4) chunks covering the 3-simplex lattice with grid_n per axis."""
    g = np.linspace(0.0, 1.0, grid_n)
    for a in g:
        b = g[g <= 1.0 - a + 1e-15]
        bb, cc = np.meshgrid(b, g, indexing="ij")
        mask = cc <= 1.0 - a - bb + 1e-15
        bb, cc = bb[mask], cc[mask]
        dd = np.clip(1.0 - a - bb - cc, 0.0, None)
        yield np.stack([np.full_like(bb, a), bb, cc, dd], axis=1)


def _sweep_cutset(grid_n: int) -> np.ndarray:
    # points of the 3-simplex lattice: C(grid_n + 2, 3)
    check_size(grid_n * (grid_n + 1) * (grid_n + 2) // 6, "cutset sweep")
    chunks = []
    for joint in _simplex_grid(grid_n):
        stats = _kernels.cutset_stats(joint, _kernels.KIND_NOISY)
        pts = _corner_points(stats[:, 0], stats[:, 1], stats[:, 2])
        chunks.append(_pareto_points(pts))
    return np.concatenate(chunks, axis=0)


# ---------------------------------------------------------------------------
# Per-direction refinement
# ---------------------------------------------------------------------------

_RHO, _CHI, _PSI, _SIGMA = 1.0, 2.0, 0.5, 0.5
_NM_MAXITER = 500
_NM_XATOL = 1e-11
_NM_FATOL = 1e-14
_GOLD = (np.sqrt(5.0) - 1.0) / 2.0


def _sort_simplex(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(fsim, axis=1, kind="stable")
    return np.take_along_axis(sim, order[:, :, None], axis=1), np.take_along_axis(fsim, order, axis=1)


def _nelder_mead(fun, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nelder-Mead from a small interior start simplex around each row of ``x0``.

    The unbounded method with reflection 1, expansion 2, contraction 1/2 and
    shrink 1/2.  A row stops once its simplex spans at most 1e-11 in x and
    1e-14 in f, or after 499 steps.  Returns each row's best vertex, clipped
    to the box, and its value.
    """
    p, n = x0.shape
    h = 0.02 * (hi - lo)
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    for i in range(n):
        v = x0[:, i]
        sim[:, i + 1, i] = np.where(v + h[i] > hi[i], v - h[i], v + h[i])
    fsim = fun(sim.reshape(-1, n), np.repeat(np.arange(p), n + 1)).reshape(p, n + 1)
    sim, fsim = _sort_simplex(sim, fsim)
    act = np.arange(p)
    for _ in range(_NM_MAXITER - 1):
        s, f = sim[act], fsim[act]
        done = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _NM_XATOL) & (
            np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= _NM_FATOL
        )
        act, s, f = act[~done], s[~done], f[~done]
        if not act.size:
            break
        # vertex by vertex, in the scalar method's order, so every row rounds alike
        xbar = s[:, 0]
        for k in range(1, n):
            xbar = xbar + s[:, k]
        xbar = xbar / n
        worst = s[:, -1]
        xr = (1 + _RHO) * xbar - _RHO * worst
        fr = fun(xr, act)
        new_x, new_f = xr, fr.copy()
        shrink = np.zeros(len(act), dtype=bool)

        e = np.flatnonzero(fr < f[:, 0])
        if e.size:
            xe = (1 + _RHO * _CHI) * xbar[e] - _RHO * _CHI * worst[e]
            fe = fun(xe, act[e])
            ok = fe < fr[e]
            new_x[e[ok]], new_f[e[ok]] = xe[ok], fe[ok]
        contract = ~(fr < f[:, 0]) & ~(fr < f[:, -2])
        o = np.flatnonzero(contract & (fr < f[:, -1]))
        if o.size:
            xc = (1 + _PSI * _RHO) * xbar[o] - _PSI * _RHO * worst[o]
            fc = fun(xc, act[o])
            ok = fc <= fr[o]
            new_x[o[ok]], new_f[o[ok]] = xc[ok], fc[ok]
            shrink[o[~ok]] = True
        c = np.flatnonzero(contract & ~(fr < f[:, -1]))
        if c.size:
            xcc = (1 - _PSI) * xbar[c] + _PSI * worst[c]
            fcc = fun(xcc, act[c])
            ok = fcc < f[c, -1]
            new_x[c[ok]], new_f[c[ok]] = xcc[ok], fcc[ok]
            shrink[c[~ok]] = True

        keep = ~shrink
        s[keep, -1], f[keep, -1] = new_x[keep], new_f[keep]
        k = np.flatnonzero(shrink)
        if k.size:
            best = s[k, :1]
            s[k, 1:] = best + _SIGMA * (s[k, 1:] - best)
            f[k, 1:] = fun(s[k, 1:].reshape(-1, n), np.repeat(act[k], n)).reshape(-1, n)
        sim[act], fsim[act] = _sort_simplex(s, f)
    return np.clip(sim[:, 0], lo, hi), fsim.min(axis=1)


def _golden(fun, x: np.ndarray, i: int, a: np.ndarray, b: np.ndarray, rows: np.ndarray, tol: float = 1e-11):
    """Golden-section minimum of ``fun`` along coordinate ``i`` of each row of ``x`` over [a, b]."""

    def along(v, k):
        y = x[k]
        y[:, i] = v
        return fun(y, rows[k])

    a, b = a.copy(), b.copy()
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    every = np.arange(len(rows))
    fc, fd = along(c, every), along(d, every)
    act = np.flatnonzero(b - a > tol)
    while act.size:
        left = fc[act] <= fd[act]
        l, r = act[left], act[~left]
        b[l], d[l], fd[l] = d[l], c[l], fc[l]
        c[l] = b[l] - _GOLD * (b[l] - a[l])
        a[r], c[r], fc[r] = c[r], d[r], fd[r]
        d[r] = a[r] + _GOLD * (b[r] - a[r])
        fv = along(np.where(left, c[act], d[act]), act)
        fc[l], fd[r] = fv[left], fv[~left]
        act = act[b[act] - a[act] > tol]
    mid = 0.5 * (a + b)
    return mid, along(mid, every)


def _polish(fun, x: np.ndarray, fx: np.ndarray, lo: np.ndarray, hi: np.ndarray, step0: float):
    """Five rounds of coordinate golden section in brackets of half-width step0 / 2**round."""
    for r in range(5):
        d = step0 * 0.5**r
        for i in range(x.shape[1]):
            a = np.maximum(lo[i], x[:, i] - d)
            b = np.minimum(hi[i], x[:, i] + d)
            k = np.flatnonzero(b - a >= 1e-13)
            v, fv = _golden(fun, x[k], i, a[k], b[k], k)
            ok = fv < fx[k]
            x[k[ok], i], fx[k[ok]] = v[ok], fv[ok]
    return x, fx


def _keep_better(x, fx, xn, fn):
    take = fn < fx
    return np.where(take[:, None], xn, x), np.where(take, fn, fx)


def _refine(fun, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray, step0: float) -> tuple[np.ndarray, np.ndarray]:
    """Local minimum of ``fun`` over the box [lo, hi] from each row of ``x0``.

    ``fun(x, rows)`` returns the objective of problem ``rows[j]`` at
    ``x[j]``.  Each problem runs Nelder-Mead, then a coordinate golden-section
    polish (a simplex collapses when it is clipped at the box), then one
    Nelder-Mead restart from the polished point, keeping the best point seen.
    Every step evaluates only the problems still active, each on its own row,
    so a problem's result does not depend on the rest of the batch.
    Returns the minimizers (p, n) and their values (p,).
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    fx = fun(x, np.arange(len(x)))
    x, fx = _keep_better(x, fx, *_nelder_mead(fun, x, lo, hi))
    x, fx = _polish(fun, x, fx, lo, hi, step0)
    return _keep_better(x, fx, *_nelder_mead(fun, x, lo, hi))


@dataclass(frozen=True)
class _RegionFamily:
    """Parameter box and caps of one pentagon family, for refinement.

    ``caps`` maps parameter rows (m, n) to the cap arrays (a, b, c).
    """

    caps: Callable[[np.ndarray], tuple]
    coarse_params: np.ndarray
    coarse_caps: tuple
    lo: np.ndarray
    hi: np.ndarray
    step0: float

    def seeds(self, lambdas, n_starts: int) -> np.ndarray:
        """Indices of the ``n_starts`` best coarse points per direction; shape (len(lambdas), n_starts).

        Each row is the tail of ``np.argsort`` of the direction's supports.
        When the best ``n_starts + 1`` supports are distinct, that tail is
        fixed by the values alone and a partial sort finds it; on a tie only
        the full sort's order among equal values gives the same seeds.
        """
        corners = _corners(*self.coarse_caps)
        k = n_starts + 1
        seeds = np.empty((len(lambdas), n_starts), dtype=np.intp)
        for i, lam in enumerate(lambdas):
            vals = _support_of_corners(corners, lam)
            top = np.argpartition(vals, -k)[-k:]
            top = top[np.argsort(vals[top])]
            if not np.all(np.diff(vals[top]) > 0.0):
                top = np.argsort(vals)
            seeds[i] = top[-n_starts:]
        return seeds

    def neg_support(self, lam: np.ndarray):
        """Objective of problems with directions ``lam``: minus the pentagon support."""
        return lambda x, rows: -_support_of_corners(_corners(*self.caps(x)), lam[rows])

    def refined_points(self, lambdas=SWEEP_LAMBDAS, n_starts: int = 2) -> np.ndarray:
        """Pentagon corners at the refined optimum of each direction, from the best grid points."""
        seeds = self.seeds(lambdas, n_starts)
        fun = self.neg_support(np.repeat(lambdas, n_starts))
        x, f = _refine(fun, self.coarse_params[seeds.ravel()], self.lo, self.hi, self.step0)
        # per direction, the first seed attaining the lowest value
        best = np.argmin(f.reshape(len(lambdas), n_starts), axis=1)
        x = x.reshape(len(lambdas), n_starts, -1)[np.arange(len(lambdas)), best]
        return _corner_points(*self.caps(x))


def _box_family(caps_of, hi: tuple[float, ...], coarse_n: int) -> _RegionFamily:
    """Family over the box [0, hi] with a coarse grid of ``coarse_n`` points per axis.

    ``caps_of`` takes one array per parameter, clipped into the box.
    """
    hi = np.array(hi)
    axes = [np.linspace(0.0, h, coarse_n) for h in hi]
    params = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=1)

    def caps(x):
        return caps_of(*np.clip(x, 0.0, hi).T)

    return _RegionFamily(caps, params, caps(params), lo=np.zeros(len(hi)), hi=hi, step0=0.25 / (coarse_n - 1))


def _db_param_caps(u1, u2, w, mirror: bool):
    """Caps at (u1, u2, w); u runs from f2(2u1, 2u2) at w = 0 to 1 - u1 - u2 at w = 1."""
    lo = f2(2.0 * u1, 2.0 * u2)
    return _db_caps(_db_fixed_caps(u1, u2, mirror), lo + w * (1.0 - (u1 + u2) - lo), mirror)


def _db_family(mirror: bool) -> _RegionFamily:
    return _box_family(partial(_db_param_caps, mirror=mirror), (0.25, 0.25, 1.0), coarse_n=41)


def _cutset_param_caps(z: np.ndarray):
    """Cut-set caps of the joint softmax(0, z1, z2, z3)."""
    e = np.exp(z)
    tot = 1.0 + e[:, 0] + e[:, 1] + e[:, 2]
    joint = np.concatenate([1.0 / tot[:, None], e / tot[:, None]], axis=1)
    stats = _kernels.cutset_stats(joint, _kernels.KIND_NOISY)
    return stats[:, 0], stats[:, 1], stats[:, 2]


def _cutset_family(coarse_n: int = 31) -> _RegionFamily:
    joints = np.concatenate(list(_simplex_grid(coarse_n)), axis=0)
    # parameterize free of the simplex constraint: softmax of (0, z1, z2, z3)
    z = np.log(np.clip(joints, 1e-12, None))
    stats = _kernels.cutset_stats(joints, _kernels.KIND_NOISY)
    return _RegionFamily(
        _cutset_param_caps,
        z[:, 1:] - z[:, :1],
        (stats[:, 0], stats[:, 1], stats[:, 2]),
        lo=np.full(3, -40.0),
        hi=np.full(3, 40.0),
        step0=1.0,
    )


def _concave_upper_hull(pts: np.ndarray) -> np.ndarray:
    """Upper concave envelope of Pareto-sorted points (time-sharing hull)."""
    hull: list[np.ndarray] = []
    for p in pts:
        while len(hull) >= 2:
            o, q = hull[-2], hull[-1]
            cross = (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0])
            if cross >= 0.0:  # q below or on chord o-p: not a hull vertex
                hull.pop()
            else:
                break
        hull.append(p)
    return np.asarray(hull)


@lru_cache(maxsize=4)
def _cutset_points(grid_n: int) -> np.ndarray:
    pts = _sweep_cutset(grid_n)
    refined = _cutset_family().refined_points()
    return np.concatenate([pts, refined], axis=0)


def cutset_region_noisy(grid_n: int = 201) -> BoundaryCurve:
    """Cut-set boundary: sweep of all 4-atom input joints plus refinement."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    return pareto_filter(_cutset_points(grid_n), label=Region.CUTSET.value)


@lru_cache(maxsize=4)
def _dbpc_points(grid_n: int) -> np.ndarray:
    pts = _sweep_db(grid_n, mirror=False)
    refined = _db_family(False).refined_points()
    return np.concatenate([pts, refined], axis=0)


def _dbpc_curves(grid_n: int) -> tuple[BoundaryCurve, BoundaryCurve]:
    """The dbpc1 and dbpc2 boundaries.

    The two genie choices give exact mirror-image regions, so dbpc2 is dbpc1
    with r1 and r2 swapped, read in reverse order.
    """
    c1 = pareto_filter(_dbpc_points(grid_n), label=Region.DBPC1.value)
    return c1, BoundaryCurve(points=c1.points[::-1, ::-1], label=Region.DBPC2.value)


def _intersection_curve(grid_n: int) -> BoundaryCurve:
    """Direction-space intersection: pointwise min of the two support functions."""
    c1, c2 = _dbpc_curves(grid_n)
    lams = SWEEP_LAMBDAS
    m = np.minimum(support_values(c1, lams), support_values(c2, lams))
    # candidate vertices: intersections of every pair of support lines (some
    # lines are redundant, so binding pairs need not be adjacent in lambda),
    # plus the axis anchors
    i, j = np.triu_indices(len(lams), k=1)
    l1, l2 = lams[i], lams[j]
    det = l1 - l2
    x = (m[i] * (1.0 - l2) - m[j] * (1.0 - l1)) / det
    y = (l1 * m[j] - l2 * m[i]) / det
    ok = (x >= -1e-12) & (y >= -1e-12)
    cand = np.concatenate(
        [np.stack([x[ok], y[ok]], axis=1), [(m[-1], 0.0), (0.0, m[0])]], axis=0
    )
    cand = np.clip(cand, 0.0, None)
    feas = np.ones(len(cand), dtype=bool)
    for l, mv in zip(lams, m):
        feas &= l * cand[:, 0] + (1.0 - l) * cand[:, 1] <= mv + 1e-9
    return pareto_filter(cand[feas], label=Region.DBPC.value)


@lru_cache(maxsize=4)
def _product_points(grid_n: int, which: str) -> np.ndarray:
    caps_xy = _cl_caps if which == "cl" else _erasure_caps
    pts = _sweep_product_region(grid_n, caps_xy)
    refined = _box_family(caps_xy, (0.25, 0.25), coarse_n=101).refined_points()
    return np.concatenate([pts, refined], axis=0)


def _product_curve(grid_n: int, which: str, label: str, hull: bool) -> BoundaryCurve:
    curve = pareto_filter(_product_points(grid_n, which), label=label)
    if hull:
        return BoundaryCurve(points=_concave_upper_hull(curve.points), label=label)
    return curve


def region_boundary(spec: RegionSpec) -> BoundaryCurve:
    """Boundary curve of the requested region at the requested grid size."""
    which, g = spec.which, spec.grid_n
    if which is Region.CUTSET:
        return cutset_region_noisy(g)
    if which is Region.DBPC1:
        return _dbpc_curves(g)[0]
    if which is Region.DBPC2:
        return _dbpc_curves(g)[1]
    if which is Region.DBPC:
        return _intersection_curve(g)
    if which is Region.COVER_LEUNG:
        return _product_curve(g, "cl", which.value, hull=True)
    if which is Region.ERASURE_FB:
        return _product_curve(g, "erasure", which.value, hull=True)
    if which is Region.ERASURE_NOFB:
        corners = np.asarray(erasure_nofb_constraints().corners())
        return pareto_filter(corners, label=which.value)
    raise ValueError(f"unknown region {which!r}")
