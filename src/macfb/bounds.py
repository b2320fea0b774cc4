"""Rate-region generators for the binary additive noisy and erasure channels.

Each bound maps its parameters to a :class:`RateConstraintSet` (a pentagon
``R1 <= r1_max``, ``R2 <= r2_max``, ``R1 + R2 <= sum_max`` in the nonnegative
quadrant), and a region is the union of its family's pentagons.

Every cap is defined once, vectorized, from the terms h(phi(2 ui)), h(u)/2,
h((1-u)/2) and mu(u): dbpc1 (:func:`_db_staged`; dbpc2 is its mirror),
Cover-Leung (:func:`_cl_staged`) and the erasure feedback caps in triple
form (:func:`_erasure_staged`); :func:`_symmetric` reads a pentagon's
symmetric rate off its caps.  The definition is staged: given u1, the
variable the solve's outer search moves, it takes the terms of u1 alone
once (h(phi(2 u1)) and 2 u1) and returns the caps as a function of the
rest.  So the root finder over u2, about 10 calls per call over u1,
evaluates only the terms that move with it.
Those terms, of shape ``(n,)``, broadcast against the rest at shape
``(m, n)``.  ``_CAPS`` holds each family's caps at a triple (u1, u2,
u), keyed like the exact pentagons of ``oracle._PENTAGONS``.  The constraint
sets, ``symrate``, the oracle and the checks read it, and each row looks its
staged form up here at call time, so the checks see what builds the regions.

The best pentagon in each of the 181 sweep directions is found by a direct
solve.  The caps of every family are concave in convex coordinates, and a
pentagon's support is a minimum of nonnegative combinations of its caps, so
each direction asks for the maximum of a concave function.  Each family is
reduced to two variables (x, y) over a box without losing its optimum:

- dbpc1: the (u1, u2) box with u = f2(2u1, 2u2), P's lower face
  (:func:`_db_pair_staged`);
- cutset: the flip-symmetric joints (s, y(1-2s), (1-y)(1-2s), s), on
  which y = 1/2 is optimal in every direction (:func:`_cutset_caps`), so
  s alone is searched;
- cover-leung: the (u1, u2) box;
- erasure-fb: the (u1, u2) box with the sum cap mu(max(1/3, f2)), the
  triple form with u maximized out.

Maximizing over y keeps concavity in x, and every solve runs along a
curve y(x), for all 181 directions at once.  In cover-leung, erasure-fb
and dbpc1 the optimum over u2 at each u1 lies on Gamma, the curve where
the sum cap meets the unsaturated caps, in every direction, and the root
finder gives Gamma's u2 (:func:`_on_gamma`).  Along Gamma the cover-leung
and erasure-fb supports peak smoothly, and their corner is the root of
the support's slope there, of closed-form derivatives of the caps
(:func:`_solve_corner`).  Golden section over x of the support at a point
of the curve (:func:`_curve_max`) is left to cutset, whose curve is
y = 1/2, and dbpc1, whose support along Gamma is not unimodal.  dbpc1 is
solved along the arcs of its boundary (:func:`_solve_db`): along Gamma,
and by one golden section over u along the arc where r1 is saturated,
which starts at the vertex V, a root along Gamma.  Each family in
``_FAMILIES`` is its staged caps on its own (x, y) box and its solve.

Since every region is convex, it is fixed by its support values, and no
region sweeps a parameter grid:

- The outer bounds are the polygons of their solved support lines
  (:func:`macfb.geometry._support_polygon`): cut-set, dbpc1, dbpc2 (dbpc1
  mirrored) and dbpc, whose support in each direction is the smaller of
  dbpc1's and dbpc2's.  Such a polygon contains every solved pentagon.
- The inner regions, Cover-Leung and erasure-fb, are hulls of attained
  pentagon corners, so they claim only what some input reaches
  (:func:`_inner_curve`).  They hull the solved corners and the exact
  boundary curve of the union: the top corner at grid_n values of u1 and
  on either side of each solved u1, each a point of Gamma, and its mirror.
  grid_n matters to no other region.

Regions
-------
cutset        outer bound, arbitrary input correlation
dbpc1, dbpc2  dependence-balance outer bounds (genie = one of the inputs)
dbpc          their intersection, taken in sweep-direction space
cover-leung   achievable region (conditionally independent inputs, binary T)
erasure-fb    feedback capacity region of Y = X1 + X2
erasure-nofb  no-feedback pentagon of Y = X1 + X2
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from . import _kernels, _search
from ._budget import check_size, is_integer
from .channel import JointInputDistribution
from .feasible import InvalidTripleError, UTriple, in_P, lower_face_u2
from .geometry import SWEEP_LAMBDAS, BoundaryCurve, _concave_upper_hull, _support_polygon, pareto_filter
from .infofn import CLAMP_TOL, _clamp_interval, binary_entropy, f2, mu_fn, phi

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
        if not isinstance(self.which, Region):
            raise ValueError(f"which must be a Region, got {self.which!r}")
        if not is_integer(self.grid_n) or self.grid_n < 2:
            raise ValueError(f"grid_n must be an integer of at least 2, got {self.grid_n!r}")


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
            if cap is not None and (not np.isfinite(cap) or cap < -CLAMP_TOL):
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

    def _upper_corners(self) -> tuple[float, float, float, float]:
        """:func:`_corners` of the caps, which must bound the set."""
        with np.errstate(invalid="ignore"):  # inf - inf, when the set is unbounded
            x_max, y_at_x, x_at_y, y_max = (float(v) for v in _corners(*self._caps()))
        if not np.isfinite(x_max) or not np.isfinite(y_max):
            raise ValueError("corners need all-finite caps")
        return x_max, y_at_x, x_at_y, y_max

    def corners(self) -> list[tuple[float, float]]:
        """Vertices of the pentagon, including the axis intercepts."""
        x_max, y_at_x, x_at_y, y_max = self._upper_corners()
        return [(x_max, 0.0), (0.0, y_max), (x_max, y_at_x), (x_at_y, y_max)]

    def support(self, lam: float) -> float:
        """max of lam*R1 + (1-lam)*R2 over the set, for lam in [0, 1]."""
        if not 0.0 <= lam <= 1.0:  # NaN too
            raise ValueError("lambda must lie in [0, 1]")
        self._upper_corners()  # raises unless the set is bounded
        return float(_support_of_caps(np.array(self._caps())[:, None], lam, 1.0 - lam)[0])

    def contains(self, r1: float, r2: float) -> bool:
        a, b, c = self._caps()
        tol = CLAMP_TOL
        return r1 >= -tol and r2 >= -tol and r1 <= a + tol and r2 <= b + tol and r1 + r2 <= c + tol

    def dominates(self, other: "RateConstraintSet") -> bool:
        """True if every cap of ``other`` is at most the matching cap here, within ``CLAMP_TOL``."""
        sa, sb, sc = self._caps()
        oa, ob, oc = other._caps()
        return oa <= sa + CLAMP_TOL and ob <= sb + CLAMP_TOL and oc <= sc + CLAMP_TOL


def _require_in_S(u1: float, u2: float) -> tuple[float, float]:
    return _clamp_interval(u1, 0.25, "u1"), _clamp_interval(u2, 0.25, "u2")


def _require_in_P(t: UTriple) -> UTriple:
    if not in_P(t):
        raise InvalidTripleError(f"{t} is not in P")
    return t


# ---------------------------------------------------------------------------
# Closed-form terms and the cap families built from them (see the docstring)
# ---------------------------------------------------------------------------


def _h_phi(x):
    """h(phi(2 x)): the cap of H(Xi|T) at ui = x; phi's range [0, 1/2] needs no second check."""
    return binary_entropy.unchecked(phi(2.0 * x))


def _half_h(u):
    """h(u)/2: the cap of I(X1;Y|X2) and of I(X2;Y|X1) on the noisy adder."""
    return 0.5 * binary_entropy(u)


def _h_mid(u):
    """h((1 - u)/2): the cap of I(X1,X2;Y) on the noisy adder; mu(u) caps H(Y) on the erasure adder."""
    return binary_entropy((1.0 - u) / 2.0)


def _db_staged(u1):
    """The dbpc1 caps (genie = X1) at u1: ``caps(u2, u)`` gives them at (u1, u2, u), broadcast together.

    h(phi(2 u1)) is taken here once.
    """
    r1 = _h_phi(u1)
    return lambda u2, u: (np.minimum(_half_h(u), r1), 0.5 * _h_phi(u2), _h_mid(u))


def _db_pair_staged(u1):
    """The dbpc1 caps on P's lower face u = f2(2 u1, 2 u2), as ``caps(u2)`` at (u1, u2); 2 u1 is taken once.

    The optimum over P lies on this face.  A triple (u1, u2, u) with
    u <= 1/2 has the face point (u1, lower_face_u2(u1, u), u), whose u2 is
    no lower, so its caps are no lower; one with u > 1/2 is dominated by
    (u1, 1/4, 1/2), since h(u)/2 <= 1/2 and h((1 - u)/2) falls in u.
    """
    caps, two_u1 = _db_staged(u1), 2.0 * u1
    return lambda u2: caps(u2, f2(two_u1, 2.0 * u2))


def _cl_staged(u1):
    """The Cover-Leung caps at u1: ``caps(u2)`` at (u1, u2), broadcast together; h(phi(2 u1))/2 and 2 u1 are taken once."""
    r1, two_u1 = 0.5 * _h_phi(u1), 2.0 * u1
    return lambda u2: (r1, 0.5 * _h_phi(u2), _h_mid(f2(two_u1, 2.0 * u2)))


def _erasure_staged(u1):
    """The erasure feedback caps of the triple form at u1: ``caps(u2, u)`` gives h(phi(2 u1)), h(phi(2 u2)), mu(u).

    h(phi(2 u1)) is taken here once.
    """
    r1 = _h_phi(u1)
    return lambda u2, u: (r1, _h_phi(u2), mu_fn(u))


def _erasure_pair_staged(u1, floor: float):
    """The erasure caps at u = max(floor, f2(2 u1, 2 u2)), as ``caps(u2)`` at (u1, u2); 2 u1 is taken once.

    At floor 0 it is the pair form.  At floor 1/3 it is the band form, the
    triple form with u maximized out: mu is concave and peaks at 1/3, and
    the band's upper face is at least 1/2.
    """
    caps, two_u1 = _erasure_staged(u1), 2.0 * u1
    return lambda u2: caps(u2, np.maximum(floor, f2(two_u1, 2.0 * u2)))


def _gamma_slopes(scale: float, sum_slope, u1, u2):
    """(r1 a', r2 b', r1 F_u1, r2 F_u2) at (u1, u2), broadcast together, for F = a + b - c and r = sqrt(1 - 4u).

    The caps are a = scale h(phi(2 u1)), b = scale h(phi(2 u2)) and a sum
    cap c of f = f2(2 u1, 2 u2) = (1 - r1 r2)/2 alone, whose dc/df is
    ``sum_slope(r1 r2)``.  phi(2u) = (1 - r)/2, so d phi(2u)/du = 1/r and
    h'(phi(2u)) = log2((1 + r)/(1 - r)), +inf at u = 0; df/du1 = r2/r1 and
    df/du2 = r1/r2.  So a' = scale h'(phi(2 u1))/r1 and c_u1 = c_f r2/r1,
    and the same with the users swapped.  Each product is finite except r1
    a' and r1 F_u1 at u1 = 0, which are +inf.
    """
    r1, r2 = np.sqrt(1.0 - 4.0 * u1), np.sqrt(1.0 - 4.0 * u2)
    c_f = sum_slope(r1 * r2)
    a, b = (scale * np.log2((1.0 + r) / (1.0 - r)) for r in (r1, r2))
    return a, b, a - c_f * r2, b - c_f * r1


def _cl_slopes(u1, u2):
    """:func:`_gamma_slopes` of the Cover-Leung caps: c = h((1 - f)/2) = h((1 + rho)/4), rho = r1 r2.

    So c_f = -h'((1 + rho)/4)/2 = -log2((3 - rho)/(1 + rho))/2.
    """
    return _gamma_slopes(0.5, lambda rho: -0.5 * np.log2((3.0 - rho) / (1.0 + rho)), u1, u2)


def _erasure_band_slopes(u1, u2):
    """:func:`_gamma_slopes` of the erasure band caps: c = mu(max(1/3, f)), f = (1 - rho)/2, rho = r1 r2.

    So c_f = mu'(f) = log2((1 - f)/(2f)) = log2((1 + rho)/(2 - 2 rho)) above
    the floor, and 0 below it; mu' vanishes at 1/3, so c_f is continuous.
    """
    return _gamma_slopes(
        1.0, lambda rho: np.where(rho < 1.0 / 3.0, np.log2((1.0 + rho) / (2.0 - 2.0 * rho)), 0.0), u1, u2
    )


#: each family's caps (r1, r2, sum) at the triple (u1, u2, u), keyed like ``oracle._PENTAGONS``;
#: each row looks its staged form up on this module when called, and cover-leung reads no u
_CAPS = {
    "dbpc1": lambda u1, u2, u: _db_staged(u1)(u2, u),
    "dbpc2": lambda u1, u2, u: itemgetter(1, 0, 2)(_db_staged(u2)(u1, u)),  # dbpc1, the users swapped
    "cover-leung": lambda u1, u2, u=None: _cl_staged(u1)(u2),
    "erasure-fb": lambda u1, u2, u: _erasure_staged(u1)(u2, u),
}


def _symmetric(r1, r2, total):
    """The largest R with (R, R) in the pentagon of caps (r1, r2, total): min(r1, r2, total / 2).

    ``total / 2`` is freed before the outer minimum is allocated.  Nested
    the other way, one more batch-sized array stays alive, and the oracle
    benchmark's peak RSS rose from 51 to 55 MB.
    """
    return np.minimum(r1, np.minimum(r2, total / 2.0))


def _pentagon(caps) -> RateConstraintSet:
    return RateConstraintSet(*(float(c) for c in caps))


def db_pc1_constraints(t: UTriple) -> RateConstraintSet:
    """Genie reveals X1: R1 <= min(h(u)/2, h(phi(2u1))), R2 <= h(phi(2u2))/2, R1 + R2 <= h((1-u)/2)."""
    return _pentagon(_CAPS["dbpc1"](*_require_in_P(t)))


def db_pc2_constraints(t: UTriple) -> RateConstraintSet:
    """Genie reveals X2: mirror image of :func:`db_pc1_constraints`."""
    return _pentagon(_CAPS["dbpc2"](*_require_in_P(t)))


def cover_leung_constraints(u1: float, u2: float) -> RateConstraintSet:
    return _pentagon(_CAPS["cover-leung"](*_require_in_S(u1, u2)))


def _binary_t_witness_rows(u1, u2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, q1, q2), each (n, 2), of the binary uniform-T inputs Pr(Xi = 0 | T) = (phi(2 ui), 1 - phi(2 ui))."""
    p1, p2 = (phi(2.0 * np.asarray(x, dtype=float)) for x in (u1, u2))
    return np.full((len(p1), 2), 0.5), np.stack([p1, 1.0 - p1], axis=1), np.stack([p2, 1.0 - p2], axis=1)


def cover_leung_witness(u1: float, u2: float) -> JointInputDistribution:
    """Binary uniform-T input attaining the Cover-Leung caps, and the erasure feedback caps, with equality."""
    u1, u2 = _require_in_S(u1, u2)
    p, q1, q2 = _binary_t_witness_rows([u1], [u2])
    return JointInputDistribution(p_t=p[0], q1=q1[0], q2=q2[0])


def erasure_fb_constraints(u1: float, u2: float) -> RateConstraintSet:
    u1, u2 = _require_in_S(u1, u2)
    return _pentagon(_erasure_pair_staged(u1, 0.0)(u2))


#: the Cover-Leung construction attains the erasure feedback caps too
erasure_fb_witness = cover_leung_witness


def erasure_fb_constraints_at_triple(t: UTriple) -> RateConstraintSet:
    """Erasure caps evaluated at a feasible triple (sum cap mu(u), not mu(f2)).

    This is the three-variable form whose projection onto the lower face
    ``u = f2(2u1, 2u2)`` is checked by the equivalence suite.
    """
    return _pentagon(_CAPS["erasure-fb"](*_require_in_P(t)))


def erasure_nofb_constraints() -> RateConstraintSet:
    return RateConstraintSet(r1_max=1.0, r2_max=1.0, sum_max=1.5)


# ---------------------------------------------------------------------------
# Region boundary assembly
# ---------------------------------------------------------------------------


def _corners(a, b, c):
    """The two upper pentagon corners (x_max, y_at_x) and (x_at_y, y_max) for arrays of caps."""
    x_max = np.minimum(a, c)
    y_at_x = np.maximum(np.minimum(b, c - x_max), 0.0)
    y_max = np.minimum(b, c)
    x_at_y = np.maximum(np.minimum(a, c - y_max), 0.0)
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


def _support_of_caps(caps, lam, rest):
    """The support value(s) in direction (lam, rest), rest = 1 - lam, of the pentagons of array ``caps``.

    It is the larger of ``lam x + rest y`` at the two corners of
    :func:`_corners`, computed in place on those fresh corners: ``caps`` are
    left as they are, and no other array is allocated, so ``lam`` and
    ``rest`` must broadcast to the corners' shape.  Each sum adds its terms
    in the other order, which changes no bit.
    """
    x_max, y_at_x, x_at_y, y_max = _corners(*caps)
    x_max *= lam
    y_at_x *= rest
    y_at_x += x_max
    y_max *= rest
    x_at_y *= lam
    x_at_y += y_max
    return np.maximum(y_at_x, x_at_y, out=y_at_x)


# ---------------------------------------------------------------------------
# Per-direction solve
# ---------------------------------------------------------------------------


def _swapped(lams: np.ndarray) -> np.ndarray:
    """The directions below 1/2, which a family symmetric under swapping the users solves with the users swapped."""
    return lams < 0.5


def _cutset_joint(s, y) -> np.ndarray:
    """The joints (s, y (1 - 2s), (1 - y)(1 - 2s), s) of (P(00), P(01), P(10), P(11)) at (s, y), broadcast together."""
    r = 1.0 - 2.0 * s
    p01 = y * r
    # each atom is contiguous, so cutset_stats reads the joints' rows without a copy
    joint = np.empty((4,) + np.shape(p01))
    joint[0], joint[1], joint[2], joint[3] = s, p01, (1.0 - y) * r, s
    return np.moveaxis(joint, 0, -1)


def _cutset_caps(s, y):
    """Cut-set caps on the flip-symmetric joints at (s, y), broadcast together; each cap has their shape.

    The flip (x1, x2) -> (1 - x1, 1 - x2) keeps all three caps, which are
    concave in the joint, so a joint averaged with its flip (P(00) = P(11))
    has caps no lower.

    On these joints y = 1/2 is optimal at every s.  P(X2 = 0) = s + P(10)
    = 1 - P(X1 = 0), so H(X1) = H(X2), and the per-user caps are one:
    I(X1;Y|X2) = H(X1|X2)/2 = H(X2|X1)/2 = I(X2;Y|X1).  P(Y) = (s, 1 - s,
    1 - s, s)/2, so the sum cap I(X1,X2;Y) = h(s) depends on s alone.  The
    per-user cap is concave in y, and the swap X1 <-> X2 maps y to 1 - y,
    so it peaks at y = 1/2.  A pentagon's support in any direction, and its
    symmetric rate, never fall when a cap rises, so at each s the joint
    (s, (1 - 2s)/2, (1 - 2s)/2, s) is the best of the flip-symmetric ones.
    """
    joint = _cutset_joint(s, y)
    return tuple(c.reshape(joint.shape[:-1]) for c in _kernels.cutset_stats(joint.reshape(-1, 4)).T)


def _on_gamma(stage_of, u1: np.ndarray, r1=None) -> tuple[np.ndarray, tuple]:
    """Gamma at each u1, where the sum cap meets the unsaturated caps: the root u2 of b - (c - r1), and the caps there.

    ``stage_of`` stages a family's caps (a, b, c) on the (u1, u2) box, and
    ``r1(u1)`` is its unsaturated r1 cap; left out, it is the r1 cap a
    itself, which in cover-leung and erasure-fb does not saturate.  b rises
    in u2 and c does not, so min(b, c - r1) peaks where the difference,
    which rises, crosses zero (:func:`macfb._search._crossing_max`).  No
    direction is read: on both symmetric families a <= c (a <= 1/2 < h(1/4)
    <= c, and a <= 1 < 3/2 <= c), so with weights w1 >= w2 the support is
    w1 a + w2 min(b, c - a), whose maximum over u2 lies on Gamma.  Returns
    u2 and the caps at (u1, u2), each of u1's shape.
    """
    shape, u1 = np.shape(u1), np.ravel(u1)
    caps, n = stage_of(u1), len(u1)
    unsaturated = None if r1 is None else r1(u1)

    def top(t):
        a, b, c = caps(0.25 * t)
        rest = c - (a if unsaturated is None else unsaturated)
        return np.stack([np.minimum(b, rest), b - rest])

    # the root is sought over t = 4 u2 in [0, 1]: the bracket rule of _crossing_max is
    # absolute, and on [0, 1/4] it stops at other bits, which move the inner regions' points
    t, _ = _search._crossing_max(top, np.zeros(n), np.ones(n))
    u2 = 0.25 * t
    return u2.reshape(shape), tuple(np.reshape(c, shape) for c in caps(u2))


def _curve_max(curve, x_hi: float, w1: np.ndarray, w2: np.ndarray):
    """The best point of a curve in the weights (w1, w2), one problem per entry.

    ``curve(x)`` gives, at points x of shape ``(m, n)``, the curve's y and
    the caps at (x, y), each of x's shape.  Golden section over x in
    [0, x_hi] of the support at the curve's point; its y travels with the
    value.  Returns the maximizers x and y and the support there.
    """

    def support(x):
        y, caps = curve(x)
        return np.stack([_support_of_caps(caps, w1, w2), y])

    x, (f, y) = _search._golden_max(support, np.zeros(len(w1)), np.full(len(w1), x_hi))
    return x, y, f


def _solve_half(stage_of, x_hi: float, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve of staged caps whose optimum over y is y = 1/2 in every direction: the best point of that line."""
    return _curve_max(lambda x: (np.full(x.shape, 0.5), stage_of(x)(0.5)), x_hi, lams, 1.0 - lams)


def _corner_slope(slopes, u1, u2, w1, w2):
    """The slope of the support w1 a + w2 b along Gamma at its points (u1, u2), times a positive finite factor.

    On Gamma F = a + b - c = 0, so du2/du1 = -F_u1/F_u2 and the slope is w1
    a' + w2 b' du2/du1, or w1 a' where Gamma's root sits at an end of [0,
    1/4] and u2 does not move.  In the terms (A, B, P, Q) = (r1 a', r2 b',
    r1 F_u1, r2 F_u2) of ``slopes`` (:func:`_gamma_slopes`), r2 cancels and
    r1 times the slope is w1 A - w2 B P / Q.  Over 1 + A, which is +inf at
    u1 = 0, A and P tend to 1 there, so the slope's +inf at u1 = 0 and
    -inf at u1 = 1/4 become finite, and the root finder keeps its regula
    falsi steps.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b, p, q = slopes(u1, u2)
        steep = np.isinf(a)
        a, p = (np.where(steep, 1.0, v / (1.0 + a)) for v in (a, p))
        moving = np.where((u2 > 0.0) & (u2 < 0.25), b * p / q, 0.0)
    return w1 * a - w2 * moving


def _solve_corner(slopes, stage_of, x_hi: float, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve of a user-symmetric family's staged caps on the (u1, u2) box along Gamma, as a root of the support's slope.

    A direction lam >= 1/2 takes the weights (lam, 1 - lam).  A direction
    below 1/2 takes (1 - lam, lam): cover-leung and erasure-fb are symmetric
    under swapping the users, so its support at (u1, u2) is that of
    direction lam at (u2, u1).  Its point is swapped back, so every point is
    the optimum at (u1, u2) itself.

    The support along Gamma (:func:`_on_gamma`) peaks smoothly, where its
    slope (:func:`_corner_slope`, of the closed-form ``slopes``) falls
    through zero.  So one :func:`macfb._search._crossing_max` over u1 in
    [0, x_hi], with minus the slope as its difference, solves every
    direction; the support and Gamma's u2 travel with u1 as rows of its
    output.  The search answers with an end of its last bracket, and its
    objective picks that end: one where the difference vanishes to the
    root finder's tolerance is the root itself; otherwise both ends lie
    within the bracket's 1e-12 of the root, and the support is flat to
    rounding there, so the end of higher support is taken.  Taking the end
    of higher support always can answer up to 1.9e-10 from the root, and
    taking the end of smaller difference put one erasure-fb support 1.1e-16
    below a golden-section solve's.
    """
    swapped = _swapped(lams)
    w1, w2 = np.where(swapped, 1.0 - lams, lams), np.where(swapped, lams, 1.0 - lams)

    def support(u1):
        u2, caps = _on_gamma(stage_of, u1)
        d = -_corner_slope(slopes, u1, u2, w1, w2)
        f = _support_of_caps(caps, w1, w2)
        return np.stack([np.where(np.abs(d) <= _search._ROOT_TOL, np.inf, f), d, f, u2])

    n = len(lams)
    x, (_, _, f, y) = _search._crossing_max(support, np.zeros(n), np.full(n, x_hi))
    return np.where(swapped, y, x), np.where(swapped, x, y), f


def _db_vertex(stage_of, x_hi: float) -> float:
    """u_v, the u of dbpc1's vertex V, where Gamma meets the saturation of r1.

    Along Gamma, with r1 = h(phi(2 u1)) unsaturated, the difference
    h(phi(2 u1)) - h(u)/2 rises in u1, and V is its root
    (:func:`macfb._search._crossing_max`, with Gamma's root inside); u
    travels with it.  No direction is read, so V is the same in every batch.
    """

    def saturation(u1):
        u = f2(2.0 * u1, 2.0 * _on_gamma(stage_of, u1, _h_phi)[0])
        d = _h_phi(u1) - _half_h(u)
        return np.stack([-np.abs(d), d, u])

    _, (_, _, u) = _search._crossing_max(saturation, np.zeros(1), np.full(1, x_hi))
    return float(u[0])


def _db_arc(lams: np.ndarray, u_v: float) -> tuple[np.ndarray, np.ndarray]:
    """The points (u1, u2) of arc A that support the directions ``lams``.

    On arc A r1 is saturated at h(u)/2 and the sum cap is active, so the
    corner is A(u) = (h(u)/2, h((1 - u)/2) - h(u)/2), attained for u in
    [u_v, 1/2].  Its support G(u) = (2 lam - 1) h(u)/2 + (1 - lam) h((1 -
    u)/2) is concave, and golden section finds its maximum over [u_v, 1/2].
    The face point at that u with the largest u2 that saturates r1 is the
    root of h(phi(2 u1)) - h(u)/2, which rises in u1 on [0, u (1 - u)]; the
    saturated end of its last bracket is taken.
    """
    n = len(lams)
    u, _ = _search._golden_max(
        lambda u: (2.0 * lams - 1.0) * _half_h(u) + (1.0 - lams) * _h_mid(u), np.full(n, u_v), np.full(n, 0.5)
    )
    half_h = _half_h(u)

    def saturation(u1):
        d = _h_phi(u1) - half_h
        return np.stack([np.minimum(d, 0.0), d])

    u1, _ = _search._crossing_max(saturation, np.zeros(n), u * (1.0 - u))
    return u1, lower_face_u2(u1, u)


def _solve_db(stage_of, x_hi: float, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dbpc1's solve on the (u1, u2) box, along the arcs of its boundary.

    Its optimum lies on one of them.  Take lam >= 1/2: both upper corners of
    a pentagon have x <= r1 <= h(u)/2 and x + y <= h((1 - u)/2), and h(u)/2
    <= 1/2 < h(1/4) <= h((1 - u)/2), so its support is at most G(u) of
    :func:`_db_arc`, with equality on arc A.  Arc A ends at the vertex V
    (u_v = 0.3466865...), where it meets Gamma, the curve on which r1 is
    unsaturated and the sum cap is active.  Golden section over u1 along
    Gamma (:func:`_curve_max` of :func:`_on_gamma`, with r1 = h(phi(2 u1)))
    gives each direction's best point there, and V is a root along Gamma
    (:func:`_db_vertex`); :func:`_db_arc` gives the best point of arc A.
    Each direction keeps the better of the two, whose support is taken at
    its own point.
    """
    x, y, f = _curve_max(lambda u1: _on_gamma(stage_of, u1, _h_phi), x_hi, lams, 1.0 - lams)
    x_a, y_a = _db_arc(lams, _db_vertex(stage_of, x_hi))
    f_a = _support_of_caps(stage_of(x_a)(y_a), lams, 1.0 - lams)
    on_arc = f_a > f
    return np.where(on_arc, x_a, x), np.where(on_arc, y_a, y), np.where(on_arc, f_a, f)


#: (staged caps: x -> caps(y) at (x, y), broadcast together, upper end of x, solve) for
#: each pentagon family; each looks its caps and slopes up on this module when called.
#: Cover-leung, erasure-fb and dbpc1 are solved on their own (u1, u2) along Gamma
#: (:func:`_on_gamma`), and cutset at y = 1/2 (:func:`_cutset_caps`).
_FAMILIES = {
    "dbpc1": (lambda u1: _db_pair_staged(u1), 0.25, _solve_db),
    "cutset": (lambda s: lambda y: _cutset_caps(s, y), 0.5, _solve_half),
    "cover-leung": (lambda u1: _cl_staged(u1), 0.25, lambda *solve: _solve_corner(_cl_slopes, *solve)),
    "erasure-fb": (
        lambda u1: _erasure_pair_staged(u1, 1.0 / 3.0), 0.25, lambda *solve: _solve_corner(_erasure_band_slopes, *solve)
    ),
}


def _solve_family(family: str, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solve of a family in the directions ``lams``: the maximizers x and y and the support there."""
    stage_of, x_hi, solve = _FAMILIES[family]
    return solve(stage_of, x_hi, lams)


@lru_cache(maxsize=None)
def _solution(family: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solve of every sweep direction of a family; cached, so read-only.

    It does not depend on grid_n.
    """
    solution = _solve_family(family, SWEEP_LAMBDAS)
    for a in solution:
        a.flags.writeable = False
    return solution


def _solved_points(family: str) -> np.ndarray:
    """Pentagon corners at the optimum of each sweep direction."""
    x, y, _ = _solution(family)
    return _corner_points(*_FAMILIES[family][0](x)(y))


def cutset_region_noisy() -> BoundaryCurve:
    """Cut-set boundary: the polygon of the solved support lines."""
    return _support_polygon(_solution("cutset")[2], Region.CUTSET.value)


#: the face curve of an inner region is also taken this far on either side of each solved u1.
#: The solved corners are roots of the slope, exact to rounding, but the hull's chords from
#: them to the grid's samples, 1/800 apart at grid 201, cut under the face; these points sample
#: the face near each corner.  Without them, at grid 201, the hull falls by up to 3.8e-7
#: (cover-leung) and 4.2e-7 (erasure-fb) on 3,601 probe directions, and by 1.5e-8 and 3.1e-8
#: even for lam in [1/4, 3/4].  It falls most near lam = 0 and 1, whose corners crowd toward
#: u1 = 1/4, where the sum cap, and so the corner, moves like sqrt(1/4 - u1).
_FLANK = 1e-6


def _inner_curve(family: str, grid_n: int) -> BoundaryCurve:
    """Hull of an inner region's face curve, its mirror and the solved corners.

    In cover-leung and erasure-fb the r1 cap a rises with u1, the r2 cap b
    with u2, and the sum cap c rises in neither.  So at each u1 the union's
    top corner at r1 = a(u1) is the maximum over u2 of min(b, c - a), on
    Gamma (:func:`_on_gamma`); both families are symmetric, so the mirror
    gives the other face.  The face is
    taken at grid_n values of u1 and ``_FLANK`` on either side of each
    solved u1, which samples it near each corner.  Every point is an
    attained pentagon corner.
    """
    check_size(grid_n, "inner face curve")
    stage_of, x_hi, _ = _FAMILIES[family]
    x = _solution(family)[0]
    u1 = np.concatenate([np.linspace(0.0, x_hi, grid_n), np.clip(np.concatenate([x - _FLANK, x + _FLANK]), 0.0, x_hi)])
    face = _corner_points(*_on_gamma(stage_of, u1)[1])
    pts = pareto_filter(np.concatenate([face, face[:, ::-1], _solved_points(family)])).points
    return BoundaryCurve(points=_concave_upper_hull(pts), label=family)


def region_boundary(spec: RegionSpec) -> BoundaryCurve:
    """Boundary curve of the requested region; ``grid_n`` matters only to cover-leung and erasure-fb."""
    which = spec.which
    if which is Region.CUTSET:
        return cutset_region_noisy()
    if which in (Region.DBPC1, Region.DBPC2):
        # the two genie choices give mirror-image regions
        c1 = _support_polygon(_solution("dbpc1")[2], Region.DBPC1.value)
        if which is Region.DBPC1:
            return c1
        return BoundaryCurve(points=c1.points[::-1, ::-1], label=which.value)
    if which is Region.DBPC:
        m = _solution("dbpc1")[2]
        # dbpc2's support in direction lam is dbpc1's in direction 1 - lam
        return _support_polygon(np.minimum(m, m[::-1]), which.value)
    if which in (Region.COVER_LEUNG, Region.ERASURE_FB):
        return _inner_curve(which.value, spec.grid_n)
    if which is Region.ERASURE_NOFB:
        corners = np.asarray(erasure_nofb_constraints().corners())
        return pareto_filter(corners, label=which.value)
    raise ValueError(f"unknown region {which!r}")
