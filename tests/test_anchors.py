"""Exact anchors for the headline numbers, computed with ``decimal`` alone.

Each anchor is derived here from its closed form or by bisection, at 50
digits, with no numpy and nothing from ``macfb``, so the anchors share no code
with what they check.  Each tolerance is the float64 error measured when it
was set plus a margin, and it bounds the error on both sides: a number that
rises above its anchor claims a rate that no input reaches.
"""

from decimal import Decimal, localcontext
from operator import sub

import pytest

from macfb import _kernels, bounds, oracle, symrate

ONE, TWO = Decimal(1), Decimal(2)


def _log2(x):
    return x.ln() / TWO.ln()


def _h(p):
    """Binary entropy in bits, with 0 log 0 = 0."""
    return -sum(q * _log2(q) for q in (p, ONE - p) if q > 0)


def _phi(s):
    """The inverse of s -> 2 s (1 - s) on [0, 1/2], for s in [0, 1/2]."""
    return (ONE - (ONE - TWO * s).sqrt()) / TWO


def _f2(x, y):
    return (ONE - ((ONE - TWO * x) * (ONE - TWO * y)).sqrt()) / TWO


def _mu(s):
    return _h(s) + ONE - s


def _root(g, lo, hi, steps=180):
    """The root of ``g`` on [lo, hi] by bisection; g(lo) and g(hi) differ in sign."""
    rising = g(hi) > 0
    for _ in range(steps):
        mid = (lo + hi) / TWO
        lo, hi = (lo, mid) if (g(mid) > 0) == rising else (mid, hi)
    return (lo + hi) / TWO


def _balance_caps(s):
    """The dbpc1 caps (r1, r2) on the balance path, where r2 is half the sum cap.

    u1 = s/2, phi(2 u2) = (1 - phi(s)) / (3 - 2 phi(s)) and u = f2(2 u1, 2 u2).
    """
    p1 = _phi(s)
    p2 = (ONE - p1) / (3 - TWO * p1)
    u = _f2(s, TWO * p2 * (ONE - p2))
    return min(_h(u) / TWO, _h(p1)), _h(p2) / TWO


def _anchors() -> dict:
    with localcontext() as ctx:
        ctx.prec = 50
        cl_u = (TWO.sqrt() - ONE) / TWO
        db_s = _root(lambda s: sub(*_balance_caps(s)), Decimal(0), ONE / TWO)
        # on u1 = u2 = u the per-user cap h(phi(2u)) meets half the sum cap
        # mu(2u) on [1/6, 1/4], where 2u > 1/3 leaves the band floor inactive
        erasure_u = _root(lambda u: _h(_phi(TWO * u)) - _mu(TWO * u) / TWO, ONE / 6, ONE / 4)
        return {
            # at the joint (1/3, 1/6, 1/6, 1/3), I(X1;Y|X2) = h(1/3)/2 and
            # (H(Y) - 1)/2 are both (log2 3 - 2/3)/2
            "cutset-joint": (ONE / 3, ONE / 6, ONE / 6, ONE / 3),
            "cutset": (_log2(Decimal(3)) - TWO / 3) / TWO,
            # f2(2u, 2u) = 2u on the diagonal, and h(phi(2u))/2 meets
            # h((1 - 2u)/2)/2 where phi(2u) = (1 - 2u)/2: u = (sqrt 2 - 1)/2
            "cover-leung-u": cl_u,
            "cover-leung": _h(ONE - ONE / TWO.sqrt()) / TWO,
            "dbpc": _balance_caps(db_s)[1],
            "erasure-fb": _h(_phi(TWO * erasure_u)),
        }


ANCHORS = _anchors()

#: the largest float64 error allowed for each number; the measured error follows each
CUTSET_RATE_TOL = 4e-13  # symrate, the region solve at λ = 1/2, and symrate's joint's exact rate: -3.30e-13
CUTSET_JOINT_TOL = 5e-13  # symrate's optimal joint: ±3.30e-13
CL_RATE_TOL = 9e-13  # symrate, and its witness's exact rate: -7.47e-13
CL_U_TOL = 1.5e-12  # symrate's u1* = u2*: +1.17e-12
CL_SUPPORT_TOL = 1e-13  # the region solve at λ = 1/2, and its witness's exact support: -8.0e-14
DB_RATE_TOL = 1e-14  # symrate: -6.2e-15
ERASURE_SUPPORT_TOL = 1e-14  # the region solve at λ = 1/2, and its witness's exact support: -8.1e-15

#: λ = 1/2 among the sweep directions
HALF = 90


def _assert_within(got, exact, tol):
    err = float(Decimal(float(got)) - exact)
    assert abs(err) <= tol, err


def _witness_support(family):
    """The exact pentagon's support at λ = 1/2 of the binary uniform-T input the region solve finds there.

    The solve's (x, y) is (u1, u2); the caps are the witness's exact
    quantities from ``input_stats``, not the closed form.
    """
    x, y, _ = bounds._solution(family)
    rows = bounds._binary_t_witness_rows(x[HALF : HALF + 1], y[HALF : HALF + 1])
    columns, pentagon = oracle._PENTAGONS[family]
    caps = pentagon(*_kernels.input_stats(*rows, columns).T)
    return bounds._support_of_caps(caps, 0.5, 0.5)[0]


@pytest.mark.parametrize("name, digits", [
    ("cutset", "0.4591479170272447574"),
    ("cover-leung", "0.4362146699282340367"),
    ("dbpc", "0.4532985217466861547"),
    ("erasure-fb", "0.7911324902345476821"),
])
def test_anchor_digits(name, digits):
    # each anchor to 19 digits, as first derived; the README rounds them to 5
    assert ANCHORS[name].quantize(Decimal(digits)) == Decimal(digits), ANCHORS[name]
    assert bounds.SWEEP_LAMBDAS[HALF] == 0.5


def test_cutset_symmetric_rate():
    rate, joint = symrate.cutset_symmetric_argmax()
    _assert_within(rate, ANCHORS["cutset"], CUTSET_RATE_TOL)
    for got, exact in zip(joint, ANCHORS["cutset-joint"], strict=True):
        _assert_within(got, exact, CUTSET_JOINT_TOL)
    _assert_within(bounds._solution("cutset")[2][HALF], ANCHORS["cutset"], CUTSET_RATE_TOL)
    # the joint's exact mutual informations from the kernel
    c1, c2, c3 = _kernels.cutset_stats(joint[None])[0]
    _assert_within(min(c1, c2, c3 / 2), ANCHORS["cutset"], CUTSET_RATE_TOL)


def test_cover_leung_symmetric_rate():
    sol = symrate.solve_cl_symmetric()
    _assert_within(sol.rate, ANCHORS["cover-leung"], CL_RATE_TOL)
    _assert_within(sol.u1_star, ANCHORS["cover-leung-u"], CL_U_TOL)
    _assert_within(sol.u2_star, ANCHORS["cover-leung-u"], CL_U_TOL)
    _assert_within(bounds._solution("cover-leung")[2][HALF], ANCHORS["cover-leung"], CL_SUPPORT_TOL)
    # the witnesses' exact entropies and mutual information from the kernel
    w, columns = sol.witness, ("h_x1_given_t", "h_x2_given_t", "i_x1x2_y")
    h1, h2, i = _kernels.input_stats(w.p_t[None], w.q1[None], w.q2[None], columns)[0]
    _assert_within(min(h1 / 2, h2 / 2, i / 2), ANCHORS["cover-leung"], CL_RATE_TOL)
    _assert_within(_witness_support("cover-leung"), ANCHORS["cover-leung"], CL_SUPPORT_TOL)


def test_dbpc_balance_point():
    _assert_within(symrate.solve_db_symmetric().rate, ANCHORS["dbpc"], DB_RATE_TOL)


def test_erasure_fb_diagonal_support():
    _assert_within(bounds._solution("erasure-fb")[2][HALF], ANCHORS["erasure-fb"], ERASURE_SUPPORT_TOL)
    _assert_within(_witness_support("erasure-fb"), ANCHORS["erasure-fb"], ERASURE_SUPPORT_TOL)
