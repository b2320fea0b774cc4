"""The block-wise sampled suites: block inputs, the fold of each check's maximum, and memory."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from macfb import feasible, verify

#: bound on the traced peak of one sampled suite call.  Measured with
#: 8,192-row blocks (numpy 2.4.6): 0.50 MiB for lemmas at 5,000 samples,
#: 0.82 MiB at 200,000, and 1.03 MiB for equivalence at 200,000.  The
#: whole-array suites took 32.4, 65.1 and 23.1 MiB there.
TRACED_PEAK_BOUND = 2 * 2**20


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _read_whole(read, rows, count):
    """Each row of a span, read block by block and joined."""
    blocks = [read(start, stop) for start, stop in verify._blocks(count)]
    return [np.concatenate([block[r] for block in blocks]) for r in range(rows)]


def _recorded_spans(monkeypatch, suite, seed, samples):
    """The spans ``suite`` takes from its stream, in order, as (lo, hi, rows, count, read)."""
    spans = []

    class Recording(verify._Stream):
        def span(self, lo, hi, rows, count):
            read = super().span(lo, hi, rows, count)
            spans.append((lo, hi, rows, count, read))
            return read

    monkeypatch.setattr(verify, "_Stream", Recording)
    monkeypatch.setattr(verify, "_GRID", 10)  # the grid draws nothing; small blocks of the full one are slow
    suite(seed, samples)
    return spans


def _whole_lemma_draws(rng, samples):
    """The whole-array lemma suite's draws, in its order (the Hessian check's are its two n_h calls)."""
    n_h = min(samples, 2000)
    return [
        rng.uniform(0.0, 1.0 - 2e-4, (2, samples)),
        rng.uniform(0.0, 0.5, (4, samples)),
        rng.uniform(0.0, 0.49, n_h),
        rng.uniform(0.0, 0.49, n_h),
        rng.uniform(0.0, 0.25, (3, samples)),
        rng.uniform(0.0, 0.25, samples),
        rng.uniform(0.0, 0.25, (2, samples)),
        rng.uniform(0.0, 1.0, (2, samples)),
        rng.uniform(0.0, 1.0 - 2e-4, samples),
        rng.uniform(0.0, 0.25, (2, samples)),
    ]


class TestBlockInputs:
    def test_grid_blocks_are_slices_of_the_linspace(self):
        whole = np.linspace(0.0, 1.0, verify._GRID)
        blocks = list(verify._blocks(verify._GRID))
        assert blocks[-1][1] - blocks[-1][0] < verify._BLOCK  # a short last block, ending at 1.0
        for start, stop in blocks:
            assert _bits(verify._grid(start, stop, verify._GRID)) == _bits(whole[start:stop])

    def test_grid_blocks_of_a_small_grid(self, monkeypatch):
        monkeypatch.setattr(verify, "_BLOCK", 3)
        for count in (2, 3, 10):
            whole = np.linspace(0.0, 1.0, count)
            for start, stop in verify._blocks(count):
                assert _bits(verify._grid(start, stop, count)) == _bits(whole[start:stop])

    @pytest.mark.parametrize("seed, samples", [(0, 17), (3, 21)])
    def test_lemma_spans_read_in_blocks_are_the_whole_draws(self, monkeypatch, seed, samples):
        # blocks of 7 rows: two block boundaries and a short last block, for
        # the n_h = samples Hessian draws too
        monkeypatch.setattr(verify, "_BLOCK", 7)
        spans = _recorded_spans(monkeypatch, verify.lemma_suite, seed, samples)
        read = np.concatenate([np.concatenate(_read_whole(r, rows, n)) for _, _, rows, n, r in spans])
        whole = _whole_lemma_draws(np.random.default_rng(seed), samples)
        assert _bits(read) == _bits(np.concatenate([w.ravel() for w in whole]))
        # the draws moved off the fold, block by block: the pairs' span and the single one
        for (_, _, _, n, read), drawn in ((spans[0], whole[0]), (spans[6], whole[8][None])):
            moved = verify._away_from_fold(drawn)
            for start, stop in verify._blocks(n):
                assert _bits([verify._away_from_fold(row) for row in read(start, stop)]) == _bits(moved[:, start:stop])

    def test_equivalence_spans_read_in_blocks_are_the_sampled_triples(self, monkeypatch):
        monkeypatch.setattr(verify, "_BLOCK", 7)
        samples = 17
        spans = _recorded_spans(monkeypatch, verify.equivalence_suite, 5, samples)
        (_, _, _, _, pairs), (_, _, _, _, places) = spans
        triples = feasible.band_triple_rows(*_read_whole(pairs, 2, samples), *_read_whole(places, 1, samples))
        expected = feasible.sample_triple_rows(samples, np.random.default_rng(5))
        assert _bits(triples) == _bits(expected)

    @pytest.mark.parametrize("block", [999, 4096])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, block):
        # 2,500 samples: blocks end inside the n_h = 2000 Hessian draws and in
        # every span, and the 1,000,000-point grid is cut too
        expected = [json.dumps(verify.lemma_suite(4, 2500)), json.dumps(verify.equivalence_suite(4, 2500))]
        monkeypatch.setattr(verify, "_BLOCK", block)
        assert [json.dumps(verify.lemma_suite(4, 2500)), json.dumps(verify.equivalence_suite(4, 2500))] == expected


class TestFold:
    def test_fold_is_the_whole_max(self, monkeypatch):
        monkeypatch.setattr(verify, "_BLOCK", 4)
        a = np.random.default_rng(1).normal(size=(3, 10))
        assert _bits(verify._fold_max(10, lambda s, t: tuple(a[:, s:t]))) == _bits(np.max(a, axis=1))

    @pytest.mark.parametrize("where", [0, 5, 9])
    def test_a_nan_in_any_block_stays_nan(self, monkeypatch, where):
        # a failing check stays failing: NaN <= tol is false
        monkeypatch.setattr(verify, "_BLOCK", 4)
        a = np.random.default_rng(2).normal(size=10)
        a[where] = np.nan
        (worst,) = verify._fold_max(10, lambda s, t: (a[s:t],))
        assert np.isnan(worst) and np.isnan(np.max(a))
        assert not verify._check("c", 10, worst, 1e-12)["passed"]

    def test_signed_zeros_tied_across_blocks_fold_as_the_whole_max(self, monkeypatch):
        # every placement of +0.0 and -0.0 in an array of 8 entries: np.max
        # keeps the later of tied entries in arrays this short (beyond 8 it
        # picks by SIMD lane, which no fold can follow)
        monkeypatch.setattr(verify, "_BLOCK", 3)
        for i, j in itertools.permutations(range(8), 2):
            a = -np.arange(1.0, 9.0)
            a[i], a[j] = 0.0, -0.0
            (worst,) = verify._fold_max(8, lambda s, t: (a[s:t],))
            assert _bits(worst) == _bits(np.max(a)), (i, j)

    def test_empty_in_every_block_stays_minus_inf(self, monkeypatch):
        # the lower-face check when no block has a row with u <= 1/2
        monkeypatch.setattr(verify, "_BLOCK", 4)
        u = np.linspace(0.6, 0.9, 10)
        face = lambda s, t: (u[s:t][u[s:t] <= 0.5] - 0.5,)
        assert verify._fold_max(10, face) == [-np.inf]
        u[6] = 0.25
        assert verify._fold_max(10, face) == [-0.25]

    @pytest.mark.parametrize("suite", [verify.lemma_suite, verify.equivalence_suite])
    def test_no_samples_is_an_error(self, suite):
        with pytest.raises(ValueError, match="maximum over 0 samples"):
            suite(0, 0)

    def test_grid_argmax_takes_the_first_of_equal_maxima(self, monkeypatch):
        monkeypatch.setattr(verify, "_BLOCK", 4)
        grid = np.linspace(0.0, 1.0, 11)
        for f in (lambda x: -np.abs(x - 0.5), lambda x: np.minimum(x, 0.3), lambda x: np.where(x > 0.55, np.nan, x)):
            assert verify._grid_argmax(f, 11) == grid[np.argmax(f(grid))]


def _traced_peak(suite, samples) -> int:
    """Bytes a call allocates at its peak beyond what was live before it, as tracemalloc sees numpy's arrays."""
    suite(0, 10)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        suite(0, samples)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_sampled_suites_memory_does_not_grow_with_samples():
    small = _traced_peak(verify.lemma_suite, 5000)
    large = _traced_peak(verify.lemma_suite, 200_000)
    equivalence = _traced_peak(verify.equivalence_suite, 200_000)
    assert max(small, large, equivalence) < TRACED_PEAK_BOUND, (small, large, equivalence)
    assert abs(large - small) < 2**20, (small, large)
