"""Batched searches: many one-variable concave problems at once.

:func:`_golden_max` maximizes a unimodal function over an interval for
each problem by golden section.  :func:`_crossing_max` maximizes one that
peaks where a rising difference crosses zero, such as the minimum of a
rising and a falling function, by a bracketing root finder.

Both take ``fun(x)``, whose points ``x`` are the rows of an ``(m, n)``
array, one column per problem, so a term with one value per problem, of
shape ``(n,)``, broadcasts over them.  Its output is the objective at the
points, or a stack of rows whose first is the objective (for
:func:`_crossing_max` always a stack, whose second row is the difference);
the rows after these travel with the objective.  Both return the
maximizers and ``fun``'s whole output there.  So an objective may itself
run a search at its points, passing them all, flattened, to one inner
search, and return that search's maximizer as a row of its own.

The golden-section search looks one step ahead: each call evaluates a
step's new point together with both points the next step can ask for, so
it takes two steps per call and visits every point of plain golden
section; the next step takes its new point and value from them.  Golden
section takes a number of steps fixed by its bracket's width, the same for
every problem: 26 calls over [0, 1/4].
"""

from __future__ import annotations

import math

import numpy as np

_GOLD = (np.sqrt(5.0) - 1.0) / 2.0
_TOL = 1e-11
#: the stopping rules of :func:`_crossing_max`: a difference within _ROOT_TOL of 0, or a bracket of
#: at most _BRACKET_TOL.  They were chosen when the cover-leung and erasure-fb solves ran it over y
#: inside golden section over x: 212 and 233 calls, and no support at the 181 directions fell below
#: golden section's (they rose by up to 8.0e-14 and 2.8e-14).  Stopping at adjacent floats took 353
#: and 370 calls for supports within 4e-16 of these; a 1e-11 bracket lowered one cover-leung support
#: by 2.1e-13.  Those solves now run it at both levels, over u1 on the slope of the support and
#: over y at each of its points, in 120 and 130 calls.
_ROOT_TOL = 1e-15
_BRACKET_TOL = 1e-12


def _objective(v):
    """The objective of ``fun``'s output: the output itself, or the first row of a stack."""
    return v if v.ndim == 1 else v[0]


def _candidates(a, b, c, d):
    """The new point of a golden-section step from (a, b, c, d): ``d - G (d - a)`` if it moves left, else ``c + G (b - c)``.

    A left move makes (a, d) the bracket and a right move (c, b), and the
    new point is ``b - G (b - a)`` or ``a + G (b - a)`` of that bracket.
    """
    return d - _GOLD * (d - a), c + _GOLD * (b - c)


def _golden_step(a, b, c, d, left, new=None):
    """The bracket (a, b, c, d) after one golden-section step, each problem moving left where ``left`` is True.

    A problem that moves left keeps ``a``, and its ``b``, ``d`` and ``c``
    become ``d``, ``c`` and the left candidate of :func:`_candidates`; one
    that moves right keeps ``b``, and its ``a``, ``c`` and ``d`` become
    ``c``, ``d`` and the right candidate.  ``new`` passes the candidates if
    they are known.
    """
    new_c, new_d = _candidates(a, b, c, d) if new is None else new
    return np.where(left, a, c), np.where(left, d, b), np.where(left, new_c, d), np.where(left, c, new_d)


def _evaluate(fun, points):
    """``fun`` at several arrays of points, one per problem each, as the rows of one array, split back per row."""
    out = fun(np.array(points))
    return [out[..., i, :] for i in range(len(points))]


def _golden_max(fun, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of a unimodal function over [lo, hi], one problem per entry of ``lo`` and ``hi``.

    ``fun(x)`` returns the objective at points ``x`` of shape ``(m, n)``,
    problem ``j`` in column ``j``, or a stack whose first entry is the
    objective and whose others travel with it.  Every bracket of a batch
    must have the same width ``w = hi - lo``, or ``ValueError`` is raised.
    Golden section shrinks a bracket by ``_GOLD`` per step, so the steps
    that take it to at most ``_TOL``, ``ceil(log(_TOL / w) / log(_GOLD))``,
    are fixed in advance (Kiefer, Proc. AMS 4, 1953), and every problem
    takes them all; a problem's result does not depend on the rest of the
    batch.  The answer is the best of the two last interior points and the
    two ends, so an optimum on an end is found exactly.  Returns the
    maximizers and ``fun``'s output there.

    A step's new point is known before its value, and the step after it can
    only ask for one of its two :func:`_candidates`.  So each call evaluates
    a step's new point and both candidates of the next step, which then
    takes its new point and value from them; the last call of an odd count
    evaluates only its step's new point.  Every problem visits every point,
    and returns exactly the result, of plain golden section in about half
    the calls.
    """
    width = np.max(hi - lo, initial=0.0)
    if np.any(hi - lo != width):
        raise ValueError(f"the brackets of one search must have one width, got {np.min(hi - lo):g} to {width:g}")
    steps = math.ceil(math.log(_TOL / width) / math.log(_GOLD)) if width > _TOL else 0
    a, b = lo, hi
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    vc, vd, v_lo, v_hi = _evaluate(fun, [c, d, lo, hi])
    for remaining in range(steps, 0, -2):
        # a problem moves left where c is at least as good as d; its new point is c if so, else d
        left = _objective(vc) >= _objective(vd)
        a, b, c, d = _golden_step(a, b, c, d, left)
        # the next step's candidates, unless this step is the last
        new = _candidates(a, b, c, d) if remaining > 1 else ()
        vx, *values = _evaluate(fun, [np.where(left, c, d), *new])
        vc, vd = np.where(left, vx, vd), np.where(left, vc, vx)
        if new:
            left = _objective(vc) >= _objective(vd)
            a, b, c, d = _golden_step(a, b, c, d, left, new)
            vc, vd = np.where(left, values[0], vd), np.where(left, vc, values[1])
    k = np.argmax(np.stack([_objective(v) for v in (vc, vd, v_lo, v_hi)]), axis=0)
    return np.choose(k, [c, d, lo, hi]), np.choose(k, [vc, vd, v_lo, v_hi])


def _crossing_max(fun, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum over [lo, hi] of an objective that peaks where a rising difference crosses zero, one problem per entry.

    ``fun(x)`` returns, at points ``x`` of shape ``(m, n)``, a stack whose
    first two rows are the objective and a difference that is nondecreasing
    in x, with the objective rising where the difference is negative and
    falling where it is positive; any further rows travel with them.  The
    minimum of a rising and a falling function is such an objective, with
    their difference.  If the difference is >= 0 at lo, the maximum is at
    lo; if it is <= 0 at hi, at hi.  Otherwise the bracket [a, b], a
    difference < 0 at a and >= 0 at b, shrinks onto the root by Illinois
    steps: regula falsi, which halves the difference kept at an end that
    stays for a second step in a row (Dowell and Jarratt, BIT 11, 1971),
    and bisection where that step's point is not inside the bracket.  A
    problem stops at a difference within ``_ROOT_TOL`` of 0 or a bracket of
    at most ``_BRACKET_TOL``, and its answer is the end of higher
    objective.  Every call evaluates every problem, each in its own column,
    and a stopped problem keeps its state, so a problem's result does not
    depend on the rest of the batch.  Returns the maximizers and ``fun``'s
    output there.
    """
    out_a, out_b = _evaluate(fun, [lo, hi])
    d_a, d_b = out_a[1], out_b[1]
    at_lo = d_a >= 0.0
    at_hi = ~at_lo & (d_b <= 0.0)
    # an optimum on an end closes the bracket there
    a, out_a = np.where(at_hi, hi, lo), np.where(at_hi, out_b, out_a)
    b, out_b = np.where(at_lo, lo, hi), np.where(at_lo, out_a, out_b)
    active = b - a > _BRACKET_TOL
    # the problems whose last step replaced a, and those whose last step replaced b
    to_a = to_b = np.zeros(a.shape, dtype=bool)
    while active.any():
        width = b - a
        # any point outside the bracket is replaced next: a closed bracket's
        # regula falsi point is 0/0, and one of tiny differences can overflow
        with np.errstate(all="ignore"):
            x = a - d_a * (width / (d_b - d_a))
        x = np.where((a < x) & (x < b), x, a + 0.5 * width)
        out = fun(x[None])[:, 0]
        left = out[1] < 0.0
        was_a, was_b = to_a, to_b
        to_a, to_b = active & left, active & ~left
        # the Illinois step: an end kept for a second step in a row keeps half its difference
        d_b = np.where(to_a & was_a, 0.5 * d_b, d_b)
        d_a = np.where(to_b & was_b, 0.5 * d_a, d_a)
        a, d_a, out_a = np.where(to_a, x, a), np.where(to_a, out[1], d_a), np.where(to_a, out, out_a)
        b, d_b, out_b = np.where(to_b, x, b), np.where(to_b, out[1], d_b), np.where(to_b, out, out_b)
        active &= (np.abs(out[1]) > _ROOT_TOL) & (b - a > _BRACKET_TOL)
    better = out_b[0] > out_a[0]
    return np.where(better, b, a), np.where(better, out_b, out_a)
