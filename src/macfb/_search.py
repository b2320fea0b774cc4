"""Batched golden-section search: many one- and two-variable concave problems as numpy rows.

:func:`_golden_max` maximizes a unimodal function over an interval, one
problem per row.  :func:`_solve` maximizes a function of (x, y) over a box
whose best value over y is unimodal in x: a golden-section search over x,
whose every step runs a golden-section search over y, finds the optimum.

The search looks one step ahead: each call evaluates a step's new point
together with both points the next step can ask for, so it takes two steps
per call and visits exactly the points of plain golden section.  The outer
search passes its three points per problem to one inner search, so a nested
solve of 181 problems makes about 850 calls instead of about 3,200.
"""

from __future__ import annotations

import numpy as np

_GOLD = (np.sqrt(5.0) - 1.0) / 2.0
_TOL = 1e-11


def _golden_step(a, b, c, d, fc, fd, act):
    """One golden-section update of the brackets of rows ``act``, in place.

    Returns the mask of the rows, among ``act``, that moved left: their new
    point is ``c``, the others' is ``d``.  The new point's value is not set.
    """
    left = fc[act] >= fd[act]
    l, r = act[left], act[~left]
    b[l], d[l], fd[l] = d[l], c[l], fc[l]
    c[l] = b[l] - _GOLD * (b[l] - a[l])
    a[r], c[r], fc[r] = c[r], d[r], fd[r]
    d[r] = a[r] + _GOLD * (b[r] - a[r])
    return left


def _evaluate(fun, points, rows):
    """``fun`` at several arrays of points in one call, split back per array."""
    ends = np.cumsum([len(x) for x in points])[:-1]
    return np.split(fun(np.concatenate(points), np.concatenate(rows)), ends)


def _golden_max(fun, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum of a unimodal function over [lo, hi], one problem per row.

    ``fun(x, rows)`` returns the objective of problems ``rows`` at ``x``.
    Golden section shrinks each bracket to at most ``_TOL``; the answer is the
    best of the two last interior points and the two ends, so an optimum on
    an end is found exactly.  Every call evaluates only the problems still
    active, each on its own row, so a problem's result does not depend on the
    rest of the batch.  Returns the maximizers and their values.

    A step's new point is known before its value, and the step after it can
    only ask for ``d - G (d - a)`` (if it moves left) or ``c + G (b - c)``
    (if it moves right).  The candidates are computed by the same
    expressions as the step, so every problem visits exactly the points, and
    returns exactly the result, of plain golden section in about half the
    calls.
    """
    every = np.arange(len(lo))
    a, b = lo.copy(), hi.copy()
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    fc, fd = _evaluate(fun, [c, d], [every, every])
    act = np.flatnonzero(b - a > _TOL)
    left = _golden_step(a, b, c, d, fc, fd, act)
    while act.size:
        # act: the rows whose last step's point is still unevaluated
        nxt = act[b[act] - a[act] > _TOL]
        x = np.where(left, c[act], d[act])
        to_left = d[nxt] - _GOLD * (d[nxt] - a[nxt])
        to_right = c[nxt] + _GOLD * (b[nxt] - c[nxt])
        fx, f_left, f_right = _evaluate(fun, [x, to_left, to_right], [act, nxt, nxt])
        fc[act[left]], fd[act[~left]] = fx[left], fx[~left]
        went = _golden_step(a, b, c, d, fc, fd, nxt)
        fc[nxt[went]], fd[nxt[~went]] = f_left[went], f_right[~went]
        act = nxt[b[nxt] - a[nxt] > _TOL]
        left = _golden_step(a, b, c, d, fc, fd, act)
    fs = np.stack([fc, fd, *_evaluate(fun, [lo, hi], [every, every])])
    k = np.argmax(fs, axis=0)
    return np.stack([c, d, lo, hi])[k, every], fs[k, every]


def _solve(fun, x_hi: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize ``fun`` over (x, y) in [0, x_hi] x [0, 1] for each of ``n`` problems.

    ``fun(x, y, rows)`` returns the objective of problems ``rows`` at (x, y);
    it must be concave in (x, y).  Then the best value over y is concave in
    x, so both golden-section levels search a unimodal function: the outer
    one over x, the inner one over y for every problem at once.  Returns the
    maximizers x and y and the value there.
    """

    def best_y(x, rows):
        return _golden_max(lambda y, k: fun(x[k], y, rows[k]), np.zeros(len(rows)), np.ones(len(rows)))

    x, _ = _golden_max(lambda x, rows: best_y(x, rows)[1], np.zeros(n), np.full(n, x_hi))
    y, f = best_y(x, np.arange(n))
    return x, y, f
