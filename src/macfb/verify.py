"""Named verification suites behind ``macfb verify`` (and reused by tests).

Each suite returns a plain dict: {"suite", "checks": [...], "passed"}; a check
is {"name", "samples", "max_violation", "tolerance", "passed"}.  The checks are
array expressions over one enumeration, :func:`macfb._kernels.input_stats`,
and the vectorized caps of :mod:`macfb.bounds`.  All sampling is driven by a
single seeded generator, and random inputs keep their per-sample draw order
(P(t), q1, q2), so runs are reproducible bit for bit.

The lemma and equivalence suites, and the grid of the mu argmax, run in
blocks of ``_BLOCK`` rows: each block draws its inputs from its span of the
seeded stream (:class:`_Stream`), and each check's maximum is folded across
the blocks, so their memory does not grow with ``samples`` and every draw and
value is the one the whole arrays would give.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import _kernels, bounds, feasible, geometry, oracle, symrate
from ._budget import check_size
from .infofn import binary_entropy, f2, f2_hessian_rows, g_fn, mu_fn, phi

__all__ = ["SUITES", "SuiteOptionError", "run_suite", "lemma_suite", "characterization_suite", "dominance_suite", "equivalence_suite"]

DEFAULT_SEED = 0
#: random inputs the characterization suite checks its witnesses and the half-entropy identity on
_WITNESS_SAMPLES = 100
#: random inputs, and as many binary uniform-T witnesses, in the dominance suite's soundness check
_SOUNDNESS_SAMPLES = 200
#: rows per block of the lemma and equivalence checks and of the mu grid: what a suite holds does not grow with samples
_BLOCK = 8_192
#: points of the grid that the argmax of mu is taken on
_GRID = 1_000_000


def _blocks(count: int):
    """The (start, stop) row ranges of ``range(count)``, ``_BLOCK`` rows each but the last."""
    return ((start, min(start + _BLOCK, count)) for start in range(0, count, _BLOCK))


def _fold_max(count: int, violations) -> list[float]:
    """The largest entry of each array that ``violations(start, stop)`` gives, over the blocks of ``range(count)``.

    The block maxima are folded with ``np.maximum``: a NaN in any block stays
    NaN, so a failing check stays failing, and of +0.0 and -0.0 the later
    block's is kept, as ``np.max`` keeps the later of tied entries in a short
    array.  An array that is empty in every block gives -inf; no rows at all
    is an error, as the maximum of an empty array is.
    """
    if count < 1:
        raise ValueError(f"cannot take a maximum over {count} samples")
    worst = -np.inf
    for start, stop in _blocks(count):
        worst = np.maximum(worst, [np.max(v, initial=-np.inf) for v in violations(start, stop)])
    return [float(w) for w in worst]


def _grid(start: int, stop: int, count: int) -> np.ndarray:
    """Points ``start:stop`` of ``np.linspace(0.0, 1.0, count)``, bit for bit: k times its step, and 1.0 last."""
    x = np.arange(start, stop, dtype=float) * (1.0 / (count - 1))
    if stop == count:
        x[-1] = 1.0
    return x


def _grid_argmax(f, count: int) -> float:
    """The point of ``np.linspace(0.0, 1.0, count)`` where ``f`` is largest, the first of equal maxima."""
    best = []
    for start, stop in _blocks(count):
        x = _grid(start, stop, count)
        values = f(x)
        i = int(np.argmax(values))
        best.append((values[i], x[i]))
    # np.argmax takes the first block with the largest maximum (or the first NaN), as it would over the whole grid
    return float(best[int(np.argmax([v for v, _ in best]))][1])


class _Stream:
    """Consecutive spans of one seeded PCG64 stream, each read one block of columns at a time.

    ``span(lo, hi, rows, count)`` takes the stream's next ``rows * count``
    draws, which ``rng.uniform(lo, hi, (rows, count))`` would take whole after
    the earlier spans, and returns ``read(start, stop)``: the rows of columns
    ``start:stop`` of that array, bit for bit, as a list of 1-D arrays, so
    that each row can be freed on its own.  A uniform double is one 64-bit
    draw, so ``read`` resets the bit generator to the seed's state, advances
    it to each row's first draw in the block, and draws the row's block.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._seeded = self._rng.bit_generator.state
        self._taken = 0

    def span(self, lo: float, hi: float, rows: int, count: int):
        offset = self._taken
        self._taken += rows * count

        def read(start: int, stop: int) -> list[np.ndarray]:
            return [self._draw(lo, hi, offset + r * count + start, stop - start) for r in range(rows)]

        return read

    def _draw(self, lo: float, hi: float, at: int, n: int) -> np.ndarray:
        bits = self._rng.bit_generator
        bits.state = self._seeded
        bits.advance(at)
        return self._rng.uniform(lo, hi, n)


def _away_from_fold(s):
    """Uniform draws on [0, 1 - 2e-4] moved to [0, 1] outside the band (0.5 - 1e-4, 0.5 + 1e-4)."""
    # the radical in f2/phi is ill-conditioned where its argument crosses
    # 1/2 (s near 1/2); sampling outside a 1e-4 band keeps float noise an
    # order of magnitude below the 1e-12 gate, and the fold point itself
    # is covered by exact spot checks
    return np.where(s < 0.5 - 1e-4, s, s + 2e-4)


def _check(name: str, samples: int, violation: float, tol: float) -> dict:
    return {
        "name": name,
        "samples": int(samples),
        "max_violation": float(violation),
        "tolerance": float(tol),
        "passed": bool(violation <= tol),
    }


def lemma_suite(seed: int = DEFAULT_SEED, samples: int = 100_000) -> dict:
    """Analytic properties of the composite functions, by seeded sampling."""
    check_size(samples, "lemma sampling")
    n_h = min(samples, 2000)
    # the stream's spans in draw order, each as rng.uniform(lo, hi, (rows, count)) would take it
    stream = _Stream(seed)
    pairs = stream.span(0.0, 1.0 - 2e-4, 2, samples)
    convex = stream.span(0.0, 0.5, 4, samples)
    hessian = stream.span(0.0, 0.49, 2, n_h)
    monotone = stream.span(0.0, 0.25, 4, samples)
    concave = stream.span(0.0, 0.25, 2, samples)
    mus = stream.span(0.0, 1.0, 2, samples)
    singles = stream.span(0.0, 1.0 - 2e-4, 1, samples)
    linear = stream.span(0.0, 0.25, 2, samples)

    def violations(start, stop):
        # a generator that drops each input once its last check is yielded, so
        # a block holds one check's inputs and temporaries at a time
        s1, s2 = map(_away_from_fold, pairs(start, stop))
        yield f2(2.0 * s1 * (1.0 - s1), 2.0 * s2 * (1.0 - s2)) - (s1 + s2 - 2.0 * s1 * s2)
        yield (binary_entropy(phi(s1)) + binary_entropy(phi(s2))) / 2.0 - binary_entropy(phi((s1 + s2) / 2.0))
        del s1, s2
        x, y, xp, yp = convex(start, stop)
        yield f2((x + xp) / 2.0, (y + yp) / 2.0) - (f2(x, y) + f2(xp, yp)) / 2.0
        del x, y, xp, yp
        a1, a2, b2, step = monotone(start, stop)
        yield g_fn(np.minimum(a1 + step, 0.25), b2) - g_fn(a1, b2)
        del b2, step
        c1, c2 = concave(start, stop)
        yield (g_fn(a1, a2) + g_fn(c1, c2)) / 2.0 - g_fn((a1 + c1) / 2.0, (a2 + c2) / 2.0)
        del a1, a2, c1, c2
        m1, m2 = mus(start, stop)
        yield (mu_fn(m1) + mu_fn(m2)) / 2.0 - mu_fn((m1 + m2) / 2.0)
        del m1, m2
        (s,) = map(_away_from_fold, singles(start, stop))
        yield np.abs(phi(2.0 * s * (1.0 - s)) - np.minimum(s, 1.0 - s))
        yield np.abs(binary_entropy(phi(2.0 * s * (1.0 - s))) - binary_entropy(s))
        yield np.abs(binary_entropy(phi(s)) - binary_entropy(phi(1.0 - s)))
        del s
        w1, w2 = linear(start, stop)
        yield (w1 + w2) - f2(2.0 * w1, 2.0 * w2)

    def hessian_violations(start, stop):
        eig = np.linalg.eigvalsh(f2_hessian_rows(*hessian(start, stop)))
        return -eig[:, 0], np.abs(eig).min(axis=1)

    noise, hmid, convexity, monotony, concavity, mu_concavity, ident, hident, hsym, dominance = _fold_max(
        samples, violations
    )
    fold = abs(phi(0.5) - 0.5) + abs(f2(0.5, 0.5) - 0.5)
    argmax = _grid_argmax(mu_fn, _GRID)
    return _suite("lemmas", [
        _check("pairwise-noise-lower-bound", samples, noise, 1e-12),
        _check("fold-point-exact", 1, fold, 0.0),
        _check("f2-midpoint-convexity", samples, convexity, 1e-12),
        _check("f2-hessian-psd-rank1", n_h, max(*_fold_max(n_h, hessian_violations)), 1e-6),
        _check("g-monotone-decreasing", samples, monotony, 1e-12),
        _check("g-midpoint-concavity", samples, concavity, 1e-12),
        _check("mu-midpoint-concavity", samples, mu_concavity, 1e-12),
        _check("mu-argmax-at-one-third", _GRID, abs(argmax - 1.0 / 3.0), 1e-5),
        _check("phi-folding-identity", samples, ident, 1e-12),
        _check("entropy-phi-identity", samples, hident, 1e-12),
        _check("entropy-phi-symmetry", samples, hsym, 1e-12),
        _check("entropy-phi-midpoint-concavity", samples, hmid, 1e-12),
        _check("f2-dominates-linear-sum", samples, dominance, 1e-12),
    ])


def _random_inputs(rng: np.random.Generator, n: int, t_card: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, q1, q2), each (n, t_card): P(t) ~ Dirichlet(1, ..., 1), q1 and q2 uniform, drawn input by input."""
    draws = [(rng.dirichlet(np.ones(t_card)), rng.uniform(size=t_card), rng.uniform(size=t_card)) for _ in range(n)]
    return tuple(np.array(draws).reshape(n, 3, t_card).transpose(1, 0, 2))


def _worst_gap(exact, caps) -> float:
    """The largest |exact - cap| over the matching entries of two tuples of arrays."""
    return float(np.abs(np.subtract(exact, caps)).max())


def characterization_suite(
    seed: int = DEFAULT_SEED,
    t_cards: tuple[int, ...] = (1, 2),
    steps: int = 11,
) -> dict:
    """Closed-form caps vs exact quantities: lattice sweep plus witnesses."""
    if len(set(t_cards)) < len(t_cards):
        raise ValueError(f"t_cards repeats a value: {t_cards}")
    rng = np.random.default_rng(seed)
    checks = []
    for t_card in t_cards:
        rep = oracle.verify_characterization(oracle.OracleConfig(t_card=t_card, steps=steps, seed=seed))
        for name in oracle._INEQUALITIES:
            checks.append(_check(f"cap-{name}-tcard{t_card}", rep.n_evaluated, rep.max_violation[name], 1e-10))
        for name in oracle._IDENTITIES:
            checks.append(_check(f"identity-{name}-tcard{t_card}", rep.n_evaluated, rep.max_violation[name], 1e-12))
        # violation = 1 - min(count): nonpositive iff every cap is tight somewhere
        checks.append(
            _check(f"equality-cases-missing-tcard{t_card}", rep.n_evaluated,
                   1.0 - min(rep.equality_count.values()), 0.0)
        )

    # one kernel call: binary uniform-T witnesses at (u1, u2) and (u1*, u2*), then random inputs
    n = _WITNESS_SAMPLES
    u1, u2 = rng.uniform(0.0, 0.25, (n, 2)).T
    sol = symrate.solve_db_symmetric()
    witnesses = bounds._binary_t_witness_rows(np.append(u1, sol.u1_star), np.append(u2, sol.u2_star))
    p, q1, q2 = (np.concatenate(rows) for rows in zip(witnesses, _random_inputs(rng, n, 2)))
    columns = ("h_x1_given_t", "h_x2_given_t", "i_x1x2_y", "h_y_erasure", "h_x1_given_y_x2_t")
    s = dict(zip(columns, _kernels.input_stats(p, q1, q2, columns).T))
    h1, h2, isum = s["h_x1_given_t"], s["h_x2_given_t"], s["i_x1x2_y"]
    u = f2(2.0 * u1, 2.0 * u2)  # a witness's triple is (u1, u2, f2(2 u1, 2 u2)), on the lower face
    for family, check in (("cover-leung", "cover-leung"), ("erasure-fb", "erasure")):
        names, pentagon = oracle._PENTAGONS[family]
        worst = _worst_gap(pentagon(*(s[c][:n] for c in names)), bounds._CAPS[family](u1, u2, u))
        checks.append(_check(f"witness-attains-{check}-caps", n, worst, 1e-10))
    r1, r2, total = bounds._CAPS["dbpc1"](sol.u1_star, sol.u2_star, sol.u_star)
    worst_db = _worst_gap((h1[n], 0.5 * h2[n], 0.5 * isum[n]), (r1, r2, 0.5 * total))
    checks.append(_check("witness-attains-balance-point-caps", 1, worst_db, 1e-10))
    worst_half = _worst_gap(s["h_x1_given_y_x2_t"][n + 1:], 0.5 * h1[n + 1:])
    checks.append(_check("half-entropy-identity-random", n, worst_half, 1e-12))

    return _suite("characterization", checks)


def _soundness_check(rng: np.random.Generator, samples: int) -> dict:
    """Each exact pentagon of ``oracle._PENTAGONS`` at inputs against its row of ``bounds._CAPS`` at their (u1, u2, u).

    The inputs are ``samples`` random ones and ``samples`` binary uniform-T
    witnesses, which attain I(X1,X2;Y) = h((1-u)/2) on the noisy adder and
    H(Y) = mu(u) on the erasure adder, so a lowered sum cap shows too.
    """
    drawn = _random_inputs(rng, samples, 2)
    witnesses = bounds._binary_t_witness_rows(*rng.uniform(0.0, 0.25, (samples, 2)).T)
    p, q1, q2 = (np.concatenate(rows) for rows in zip(drawn, witnesses))
    s = dict(zip(oracle._INEQUALITIES, _kernels.input_stats(p, q1, q2, oracle._INEQUALITIES).T))
    u1, u2, u = feasible.u_triples(p, q1, q2)
    worst = max(
        float((exact - cap).max())
        for family, (columns, pentagon) in oracle._PENTAGONS.items()
        for exact, cap in zip(pentagon(*(s[c] for c in columns)), bounds._CAPS[family](u1, u2, u))
    )
    return _check("true-pentagons-inside-closed-form", len(p), worst, 1e-10)


def dominance_suite(seed: int = DEFAULT_SEED) -> dict:
    """Region orderings at the sweep directions, plus pentagon soundness."""
    rng = np.random.default_rng(seed)
    checks = []

    cl = bounds.region_boundary(bounds.RegionSpec(bounds.Region.COVER_LEUNG))
    db = bounds.region_boundary(bounds.RegionSpec(bounds.Region.DBPC))
    cs = bounds.region_boundary(bounds.RegionSpec(bounds.Region.CUTSET))
    gap_db_cl = geometry.curve_gap(db, cl)
    gap_cs_db = geometry.curve_gap(cs, db)
    checks.append(_check("cover-leung-inside-dbpc", len(bounds.SWEEP_LAMBDAS), -gap_db_cl[0], 1e-3))
    checks.append(_check("dbpc-inside-cutset", len(bounds.SWEEP_LAMBDAS), -gap_cs_db[0], 1e-3))
    # violation = 1e-6 - gap: nonpositive iff the cut-set support is strictly larger
    sym_gap = geometry.support_value(cs, 0.5) - geometry.support_value(db, 0.5)
    checks.append(_check("cutset-strictly-above-dbpc-at-symmetric", 1, 1e-6 - sym_gap, 0.0))

    checks.append(_soundness_check(rng, _SOUNDNESS_SAMPLES))

    return _suite("dominance", checks)


def equivalence_suite(seed: int = DEFAULT_SEED, samples: int = 1000) -> dict:
    """Projection onto the lower feasibility face dominates cap by cap."""
    check_size(samples, "equivalence sampling")
    # the draws of feasible.sample_triple_rows(samples, rng): u1, then u2, then u's place in its band
    stream = _Stream(seed)
    pairs, places = stream.span(0.0, 0.25, 2, samples), stream.span(0.0, 1.0, 1, samples)

    def violations(start, stop):
        u1, u2, u = feasible.band_triple_rows(*pairs(start, stop), places(start, stop)[0])
        u1b, u2b = feasible.lower_face_projections(u1, u2, u)
        at_t, proj = bounds._CAPS["erasure-fb"](u1, u2, u), bounds._erasure_pair_staged(u1b, 0.0)(u2b)
        face = u <= 0.5
        return (*(a - b for a, b in zip(at_t, proj)), np.abs(f2(2.0 * u1b[face], 2.0 * u2b[face]) - u[face]))

    worst_r1, worst_r2, worst_sum, worst_face = _fold_max(samples, violations)
    checks = [
        _check("projection-r1-cap-dominates", samples, worst_r1, 1e-9),
        _check("projection-r2-cap-dominates", samples, worst_r2, 1e-9),
        _check("projection-sum-cap-dominates", samples, worst_sum, 1e-9),
        _check("projection-lands-on-lower-face", samples, worst_face, 1e-10),
    ]
    return _suite("equivalence", checks)


def _suite(name: str, checks: list[dict]) -> dict:
    return {"suite": name, "checks": checks, "passed": all(c["passed"] for c in checks)}


SUITES = {
    "lemmas": lemma_suite,
    "characterization": characterization_suite,
    "dominance": dominance_suite,
    "equivalence": equivalence_suite,
}


class SuiteOptionError(ValueError):
    """An option given to a suite that does not take it."""

    def __init__(self, option: str, suite: str):
        super().__init__(f"suite {suite!r} does not take option {option!r}")
        self.option, self.suite = option, suite


#: each suite's keyword options with their defaults, read from its signature
_OPTIONS = {
    name: {k: p.default for k, p in inspect.signature(suite).parameters.items()} for name, suite in SUITES.items()
}


def _run_one(name: str, kwargs: dict) -> dict:
    args = dict(_OPTIONS[name])
    args.update({k: kwargs[k] for k in args if kwargs.get(k) is not None})
    if "t_cards" in args:
        args["t_cards"] = tuple(args["t_cards"])
    return SUITES[name](**args)


def run_suite(name: str, **kwargs) -> dict:
    """Run one suite, or ``"all"``; an option that is absent or None takes the suite's default.

    An option no suite run takes raises :class:`SuiteOptionError` before any runs.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    names = list(SUITES) if name == "all" else [name]
    taken = set().union(*(_OPTIONS[n] for n in names))
    for option, value in kwargs.items():
        if value is not None and option not in taken:
            raise SuiteOptionError(option, name)
    reports = [_run_one(n, kwargs) for n in names]
    if name != "all":
        return reports[0]
    checks = [c for r in reports for c in r["checks"]]
    return {"suite": "all", "checks": checks, "passed": all(r["passed"] for r in reports)}
