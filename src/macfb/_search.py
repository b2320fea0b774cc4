"""Batched golden-section search: many one- and two-variable concave problems at once.

:func:`_golden_max` maximizes a unimodal function over an interval for
each problem.  :func:`_solve` maximizes a function of (x, y) over a box
whose best value over y is unimodal in x: a golden-section search over x,
whose every step runs a golden-section search over y, finds the optimum.

The search looks one step ahead: each call evaluates a step's new point
together with both points the next step can ask for, so it takes two steps
per call and visits every point of plain golden section; the next step
takes its new point and value from them.  The outer search passes its three
points per problem to one inner search, whose maximizer over y travels with
the value, so a nested solve of 181 problems makes about 750 calls instead
of about 3,200.

The points of one call are the rows of an ``(m, n)`` array, one column per
problem, so a term with one value per problem, of shape ``(n,)``,
broadcasts over them.  The objective of :func:`_solve` is staged:
``fun(x)`` is called once per outer call and returns the inner objective
``g(y)``.  So whatever depends on x alone is computed once per outer call,
not in each of the about 28 inner calls that follow it.
"""

from __future__ import annotations

import numpy as np

_GOLD = (np.sqrt(5.0) - 1.0) / 2.0
_TOL = 1e-11


def _objective(v):
    """The objective of ``fun``'s output: the output itself, or the first row of a stack."""
    return np.atleast_2d(v)[0]


def _candidates(a, b, c, d):
    """The new point of a golden-section step from (a, b, c, d): ``d - G (d - a)`` if it moves left, else ``c + G (b - c)``.

    A left move makes (a, d) the bracket and a right move (c, b), and the
    new point is ``b - G (b - a)`` or ``a + G (b - a)`` of that bracket.
    """
    return d - _GOLD * (d - a), c + _GOLD * (b - c)


def _golden_step(a, b, c, d, vc, vd, move, values=None, new=None):
    """One golden-section update of the brackets of the problems in mask ``move``.

    A problem that moves left keeps ``a``, and its ``b``, ``d`` and ``c``
    become ``d``, ``c`` and the left candidate of :func:`_candidates`; one
    that moves right keeps ``b``, and its ``a``, ``c`` and ``d`` become
    ``c``, ``d`` and the right candidate.  ``new`` passes the candidates if
    they are known, and ``values`` their values; without values a moved
    problem's new point has none yet.  Returns the new (a, b, c, d, vc, vd)
    and, for every problem, whether it moves left if it moves.
    """
    new_c, new_d = _candidates(a, b, c, d) if new is None else new
    v_new_c, v_new_d = (vc, vd) if values is None else values
    left = _objective(vc) >= _objective(vd)
    moved = (
        np.where(left, a, c),
        np.where(left, d, b),
        np.where(left, new_c, d),
        np.where(left, c, new_d),
        np.where(left, v_new_c, vd),
        np.where(left, vc, v_new_d),
    )
    if not move.all():
        moved = tuple(np.where(move, after, before) for after, before in zip(moved, (a, b, c, d, vc, vd)))
    return (*moved, left)


def _evaluate(fun, points):
    """``fun`` at several arrays of points, one per problem each, as the rows of one array, split back per row."""
    out = fun(np.array(points))
    return [out[..., i, :] for i in range(len(points))]


def _golden_max(fun, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of a unimodal function over [lo, hi], one problem per entry of ``lo`` and ``hi``.

    ``fun(x)`` returns the objective at points ``x`` of shape ``(m, n)``,
    problem ``j`` in column ``j``, or a stack whose first entry is the
    objective and whose others travel with it.  Golden section shrinks each
    bracket to at most ``_TOL``; the answer is the best of the two last
    interior points and the two ends, so an optimum on an end is found
    exactly.  Every call evaluates every problem, each in its own column,
    and a problem whose bracket is done keeps its state, so a problem's
    result does not depend on the rest of the batch.  Returns the
    maximizers and ``fun``'s output there.

    A step's new point is known before its value, and the step after it can
    only ask for one of its two :func:`_candidates`.  So each call evaluates
    a step's new point and both candidates of the next step, which then
    takes its new point and value from them.  Every problem visits every
    point, and returns exactly the result, of plain golden section in about
    half the calls.  A step in which every problem moves makes one
    ``np.where`` per array of the state.
    """
    a, b = lo, hi
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    vc, vd, v_lo, v_hi = _evaluate(fun, [c, d, lo, hi])
    # pending: the problems whose last step's new point, c if it moved left, else d, is still unevaluated
    pending = b - a > _TOL
    a, b, c, d, vc, vd, left = _golden_step(a, b, c, d, vc, vd, pending)
    while pending.any():
        again = pending & (b - a > _TOL)
        new = _candidates(a, b, c, d)
        vx, *values = _evaluate(fun, [np.where(left, c, d), *new])
        vc, vd = np.where(pending & left, vx, vc), np.where(pending & ~left, vx, vd)
        a, b, c, d, vc, vd, _ = _golden_step(a, b, c, d, vc, vd, again, values, new)
        pending = again & (b - a > _TOL)
        a, b, c, d, vc, vd, left = _golden_step(a, b, c, d, vc, vd, pending)
    k = np.argmax(np.stack([_objective(v) for v in (vc, vd, v_lo, v_hi)]), axis=0)
    return np.choose(k, [c, d, lo, hi]), np.choose(k, [vc, vd, v_lo, v_hi])


def _solve(fun, x_hi: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize an objective over (x, y) in [0, x_hi] x [0, 1] for each of ``n`` problems.

    ``fun(x)`` takes an outer call's points, flattened (problem ``i % n`` at
    ``x[i]``), and returns ``g(y)``, the objective at (x, y) for y of shape
    ``(m, len(x))``; it must be concave in (x, y).  Then the best value over
    y is concave in x, so both golden-section levels search a unimodal
    function: the outer one over x, the inner one over y for every outer
    point at once.  Returns the maximizers x and y and the value there.
    """

    def best_y(x):
        y, f = _golden_max(fun(x.ravel()), np.zeros(x.size), np.ones(x.size))
        return np.stack([f, y]).reshape(2, *x.shape)

    x, (f, y) = _golden_max(best_y, np.zeros(n), np.full(n, x_hi))
    return x, y, f
