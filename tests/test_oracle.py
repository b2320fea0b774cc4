import hashlib
import json
import math
import multiprocessing
import operator
import os
import subprocess
import sys
from functools import reduce
from itertools import accumulate, groupby

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import macfb.oracle as oracle_mod
from macfb import _kernels, bounds, feasible, infofn, symrate, verify
from macfb.geometry import SWEEP_LAMBDAS
from macfb.infofn import DomainError
from macfb.oracle import (
    BudgetExceededError,
    OracleConfig,
    oracle_max,
    verify_characterization,
)

LOG2_3 = math.log2(3.0)

#: the objectives that read the memo of their input lattice's sweep
_LATTICE_OBJECTIVES = tuple(oracle_mod._OBJECTIVE_FORMS)

# values computed by these oracles and frozen as regressions
FROZEN = {
    ("cl_symmetric_direct", 1, 11): 0.40563906222956647,
    ("cl_symmetric_direct", 2, 11): 0.43436062316970203,
    ("db1_symmetric_direct", 2, 11): 0.44812192229223835,
    ("erasure_sum_direct", 2, 11): 1.5849263727797276,
    ("cutset_symmetric_direct", 1, 21): 0.45383973865154614,
}

#: sha256 of ``json.dumps(oracle_max(objective, OracleConfig(t_card=2, steps=5)).to_dict())``
ORACLE_JSON_SHA256 = {
    "db1_symmetric_direct": "df75f9c6472089fd593b5f4d031b525b7ba8cd05541a3825afda5acfe05af62d",
    "cl_symmetric_direct": "3e07214b362ac83dc9c9b250a7f18e5eeff7d97fd874705b2b2608a041c7faf8",
    "erasure_sum_direct": "ee270a877d4769805a044b10f62853f64a0a99483b7471393c8cda0e409037b5",
    "cutset_symmetric_direct": "3f36d745d47d6be2044bacf741abbb27b88045e33723f007bbe92ce2b08238a9",
}
#: sha256 of ``json.dumps(verify_characterization(OracleConfig(t_card=1, steps=9)).to_dict())``
CHARACTERIZATION_JSON_SHA256 = "94df042dc9bbf57adfa50d0796a746cf54fc41862a58c47b36544ce5ba7a6377"


def _sha256_of_json(record: dict) -> str:
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts and ends with no lattice's best rows in the memo, so each first call sweeps."""
    oracle_mod._BEST.clear()
    yield
    oracle_mod._BEST.clear()


@pytest.fixture
def shards(monkeypatch):
    """Shard every sweep, whatever its size: ``shards(n)`` sets the CPU count to ``n``."""
    monkeypatch.setattr(oracle_mod, "_SHARD_MIN_ROWS", 0)
    return lambda n: monkeypatch.setattr(oracle_mod, "_cpus", lambda: n)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(t_card=4)
        with pytest.raises(ValueError):
            OracleConfig(steps=1)

    @pytest.mark.parametrize(
        "name, value", [("t_card", 2.0), ("t_card", "2"), ("t_card", True), ("steps", 5.5), ("steps", 21.0), ("steps", True)]
    )
    def test_t_card_and_steps_must_be_integers(self, name, value):
        # checked here, not first by math.comb inside a sweep
        with pytest.raises(ValueError, match=f"{name} must be .*, got {value!r}"):
            OracleConfig(**{name: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # checked here, not first inside a t_card-3 sweep by numpy
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            OracleConfig(t_card=3, seed=seed)

    @pytest.mark.parametrize("budget", [0, -5, 1.5, True])
    def test_explicit_budget_must_be_a_positive_integer(self, budget):
        # as MACFB_BUDGET must be, and never reported as "exceeds budget -5"
        with pytest.raises(ValueError, match=f"budget must be a positive integer, got {budget!r}"):
            OracleConfig(budget=budget)

    def test_a_numpy_integer_seed_and_a_budget_of_the_grid_size(self):
        cfg = OracleConfig(t_card=np.int64(3), steps=np.int64(2), seed=np.int64(0), budget=24)
        assert verify_characterization(cfg).n_evaluated == cfg.grid_size == 24

    def test_budget_exceeded(self):
        cfg = OracleConfig(t_card=2, steps=41, budget=1_000_000)
        with pytest.raises(BudgetExceededError):
            oracle_max("cl_symmetric_direct", cfg)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv(oracle_mod.BUDGET_ENV_VAR, "123")
        assert OracleConfig().budget == 123

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
    def test_budget_env_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv(oracle_mod.BUDGET_ENV_VAR, value)
        with pytest.raises(ValueError, match=oracle_mod.BUDGET_ENV_VAR):
            OracleConfig()

    def test_grid_sizes(self):
        assert OracleConfig(t_card=1, steps=11).grid_size == 121
        assert OracleConfig(t_card=2, steps=11).grid_size == 11**5
        assert OracleConfig(t_card=3, steps=11).grid_size == 66 * 11**3

    def test_cutset_checked_against_its_own_lattice(self):
        # the 4-atom lattice at steps 30 has C(32, 3) = 4,960 joints
        with pytest.raises(BudgetExceededError, match="grid of 4960 evaluations"):
            oracle_max("cutset_symmetric_direct", OracleConfig(t_card=1, steps=30, budget=1000))
        # and at steps 41 C(43, 3) = 12,341, far below t_card 2's 41**5 input lattice
        r = oracle_max("cutset_symmetric_direct", OracleConfig(t_card=2, steps=41, budget=1_000_000))
        assert r.n_evaluated == 12341

    def test_t3_budget_bounds_and_never_sizes(self):
        # 28 p-points times 7**3 q-points: 9,604 rows, never a smaller sample
        cfg = OracleConfig(t_card=3, steps=7, budget=1000)
        with pytest.raises(BudgetExceededError, match="grid of 9604 evaluations"):
            oracle_max("cl_symmetric_direct", cfg)
        with pytest.raises(BudgetExceededError, match="grid of 9604 evaluations"):
            verify_characterization(cfg)
        assert verify_characterization(OracleConfig(t_card=3, steps=7, budget=9604)).n_evaluated == 9604


def _old_simplex_grid(grid_n):
    """The 3-simplex lattice as the cut-set oracle used to build it, by tolerance masks."""
    g = np.linspace(0.0, 1.0, grid_n)
    for a in g:
        b = g[g <= 1.0 - a + 1e-15]
        bb, cc = np.meshgrid(b, g, indexing="ij")
        mask = cc <= 1.0 - a - bb + 1e-15
        bb, cc = bb[mask], cc[mask]
        dd = np.clip(1.0 - a - bb - cc, 0.0, None)
        yield np.stack([np.full_like(bb, a), bb, cc, dd], axis=1)


def _old_t3_p_lattice(steps):
    """The t_card-3 P(t) lattice as the input grid used to build it, by a Python double loop."""
    g = np.linspace(0.0, 1.0, steps)
    p_pts = []
    for i, a in enumerate(g):
        for b in g[: steps - i]:
            p_pts.append((a, b, max(1.0 - a - b, 0.0)))
    return np.asarray(p_pts)


class TestSimplexLattice:
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_size(self, parts):
        for steps in (2, 3, 7, 21):
            rows = np.concatenate(list(oracle_mod._simplex_lattice(parts, steps)))
            assert rows.shape == (math.comb(steps + parts - 2, parts - 1), parts)
            assert len(rows) == oracle_mod._lattice_size(parts, steps)
            assert np.all(rows >= 0.0) and np.allclose(rows.sum(axis=1), 1.0, atol=1e-14)
            assert len(np.unique(rows, axis=0)) == len(rows)
            np.testing.assert_array_equal(rows, rows[np.lexsort(rows.T[::-1])])

    def test_matches_the_lattices_it_replaced(self):
        for steps in range(2, 41):
            new4 = list(oracle_mod._simplex_lattice(4, steps))
            old4 = list(_old_simplex_grid(steps))
            assert len(new4) == len(old4) == steps  # one chunk per first entry
            for new, old in zip(new4, old4):
                np.testing.assert_array_equal(new, old)
            np.testing.assert_array_equal(
                np.concatenate(list(oracle_mod._simplex_lattice(3, steps))), _old_t3_p_lattice(steps)
            )

    @pytest.mark.parametrize("t_card, steps", [(1, 2), (1, 9), (2, 2), (2, 5), (3, 2), (3, 5)])
    def test_grid_size_counts_the_rows_yielded(self, monkeypatch, t_card, steps):
        monkeypatch.setattr(oracle_mod, "_CHUNK", 7)
        cfg = OracleConfig(t_card=t_card, steps=steps, seed=1)
        chunks = list(oracle_mod.iter_input_grid(cfg))
        assert sum(len(p) for p, _, _ in chunks) == cfg.grid_size
        assert all(p.shape == q1.shape == q2.shape == (len(p), t_card) for p, q1, q2 in chunks)


class TestOracleMax:
    @pytest.mark.parametrize("key", sorted(FROZEN))
    def test_frozen_values(self, key):
        objective, t_card, steps = key
        r = oracle_max(objective, OracleConfig(t_card=t_card, steps=steps))
        assert r.value == pytest.approx(FROZEN[key], abs=1e-13)

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            oracle_max("nope", OracleConfig(t_card=1, steps=5))

    def test_outer_bound_soundness(self):
        # direct values may never exceed the closed-form optimum
        r = oracle_max("db1_symmetric_direct", OracleConfig(t_card=2, steps=11))
        assert r.value <= 0.453299 + 1e-9
        r = oracle_max("cl_symmetric_direct", OracleConfig(t_card=2, steps=11))
        assert r.value <= 0.436215 + 1e-9
        r = oracle_max("erasure_sum_direct", OracleConfig(t_card=2, steps=11))
        assert r.value <= LOG2_3 + 1e-12
        r = oracle_max("cutset_symmetric_direct", OracleConfig(t_card=1, steps=21))
        assert r.value <= 0.4591480 + 1e-9

    def test_witness_structure_near_grid_reaches_bound(self):
        # at steps=21 the binary-T lattice comes within grid resolution of
        # the erasure sum capacity log2(3)
        r = oracle_max("erasure_sum_direct", OracleConfig(t_card=2, steps=21))
        assert LOG2_3 - 1e-4 <= r.value <= LOG2_3

    def test_single_t_erasure_peaks_at_uniform(self):
        # without the auxiliary variable the output entropy cannot exceed 1.5
        r = oracle_max("erasure_sum_direct", OracleConfig(t_card=1, steps=41))
        assert r.value == pytest.approx(1.5, abs=1e-12)
        assert r.argmax_params == (1.0, 0.5, 0.5)

    def test_monotone_in_steps(self):
        # {k/4} is a sub-lattice of {k/8} is a sub-lattice of {k/16}
        vals = [
            oracle_max("cl_symmetric_direct", OracleConfig(t_card=1, steps=s)).value
            for s in (5, 9, 17)
        ]
        assert vals[0] <= vals[1] <= vals[2]

    def test_monotone_in_t_card(self):
        lo = oracle_max("db1_symmetric_direct", OracleConfig(t_card=1, steps=9))
        hi = oracle_max("db1_symmetric_direct", OracleConfig(t_card=2, steps=9))
        assert lo.value <= hi.value + 1e-15

    def test_lexicographic_tie_break(self, monkeypatch):
        # tiny grid where mirrored distributions tie: the reported argmax must
        # be the lexicographically smallest (p, q1, q2) vector among maximizers
        cfg = OracleConfig(t_card=1, steps=3)
        r = oracle_max("cl_symmetric_direct", cfg)
        q = np.linspace(0.0, 1.0, 3)
        best = r.value
        candidates = []
        for a in q:
            for b in q:
                p = np.array([[1.0]])
                s = _kernels.input_stats(p, np.array([[a]]), np.array([[b]]), _kernels.STAT_COLUMNS)
                val = min(0.5 * s[0, 0], 0.5 * s[0, 1], 0.5 * s[0, 4])
                if val == best:
                    candidates.append((1.0, a, b))
        assert r.argmax_params == min(candidates)
        # the cut-set sweep: at these steps the maximizing joints lie in more
        # than one chunk of the simplex lattice, and the argmax must be the
        # lexicographically smallest of the whole lattice whichever chunk
        # comes first
        lattice_of = oracle_mod._simplex_lattice
        for steps in (6, 9):
            lattice = np.concatenate(list(lattice_of(4, steps)))
            s = _kernels.cutset_stats(lattice)
            vals = np.minimum(np.minimum(s[:, 0], s[:, 1]), 0.5 * s[:, 2])
            candidates = [tuple(float(v) for v in row) for row in lattice[vals == vals.max()]]
            assert len({c[0] for c in candidates}) > 1
            cfg = OracleConfig(t_card=1, steps=steps)
            r = oracle_max("cutset_symmetric_direct", cfg)
            assert r.value == vals.max()
            assert r.argmax_params == min(candidates)
            assert r.n_evaluated == len(lattice)
            with monkeypatch.context() as m:
                m.setattr(oracle_mod, "_simplex_lattice", lambda parts, n: reversed(list(lattice_of(parts, n))))
                reordered = oracle_max("cutset_symmetric_direct", cfg)
            assert (reordered.value, reordered.argmax_params) == (r.value, r.argmax_params)
            # one shard per chunk puts the tied rows in different shards
            with monkeypatch.context() as m:
                m.setattr(oracle_mod, "_SHARD_MIN_ROWS", 0)
                for cpus in (2, 3, steps):
                    m.setattr(oracle_mod, "_cpus", lambda: cpus)
                    sharded = oracle_max("cutset_symmetric_direct", cfg)
                    assert sharded.to_dict() == r.to_dict()

    def test_chunking_invariance(self, monkeypatch):
        cfg = OracleConfig(t_card=2, steps=5)
        base = oracle_max("db1_symmetric_direct", cfg)
        monkeypatch.setattr(oracle_mod, "_CHUNK", 17)
        oracle_mod._BEST.clear()  # the rechunked sweep runs
        rechunked = oracle_max("db1_symmetric_direct", cfg)
        assert rechunked.value == base.value
        assert rechunked.argmax_params == base.argmax_params

    def test_t3_latin_hypercube_mode(self):
        cfg = OracleConfig(t_card=3, steps=5, seed=1, budget=10_000)
        r = oracle_max("cl_symmetric_direct", cfg)
        oracle_mod._BEST.clear()  # the second call draws and sweeps the lattice again
        again = oracle_max("cl_symmetric_direct", cfg)
        assert r.value == again.value
        assert r.value <= 0.436215 + 1e-9
        assert r.n_evaluated == cfg.grid_size == 15 * 5**3

    def test_report_round_trips_through_json(self):
        r = oracle_max("cl_symmetric_direct", OracleConfig(t_card=1, steps=5))
        blob = json.dumps(r.to_dict())
        assert json.loads(blob) == r.to_dict()
        r = oracle_max("cutset_symmetric_direct", OracleConfig(t_card=1, steps=5))
        assert "joint_x1x2" in json.loads(json.dumps(r.to_dict()))["argmax"]

    @pytest.mark.parametrize("objective", oracle_mod.OBJECTIVES)
    def test_report_bytes_frozen(self, objective):
        r = oracle_max(objective, OracleConfig(t_card=2, steps=5))
        assert _sha256_of_json(r.to_dict()) == ORACLE_JSON_SHA256[objective]


#: the closed forms the oracle checks: every ``infofn`` closed form, every
#: staged cap and term of ``bounds``, and the names ``bounds``, ``feasible``
#: and ``symrate`` imported; the rows of ``bounds._CAPS`` are patched too
_CLOSED_FORMS = [
    *((infofn, name) for name, f in vars(infofn).items() if hasattr(f, "unchecked")),
    *((bounds, name) for name in (
        "_h_phi", "_half_h", "_h_mid", "_db_staged", "_cl_staged", "_erasure_staged", "_erasure_pair_staged",
        "_clamp_interval", "binary_entropy", "f2", "mu_fn", "phi", "in_P", "lower_face_u2",
    )),
    (feasible, "f2"),
    *((symrate, name) for name in ("f2", "phi", "phi_inv")),
]


class TestOracleIndependence:
    def test_the_two_tables_have_the_same_families(self):
        assert set(bounds._CAPS) == set(oracle_mod._PENTAGONS)

    def test_objectives_call_no_closed_form(self, monkeypatch, shards):
        def raising(name):
            def called(*args, **kwargs):
                raise AssertionError(f"the oracle called {name}")

            return called

        def exact_pentagons():
            return {
                family: pentagon(*_kernels.input_stats(*block, columns).T)
                for family, (columns, pentagon) in oracle_mod._PENTAGONS.items()
            }

        shards(2)
        sharded = OracleConfig(t_card=2, steps=15)
        unpatched = {objective: oracle_max(objective, sharded).to_dict() for objective in oracle_mod.OBJECTIVES}
        block = next(oracle_mod.iter_input_grid(OracleConfig(t_card=2, steps=5)))
        pentagons = exact_pentagons()
        for module, name in _CLOSED_FORMS:
            monkeypatch.setattr(module, name, raising(name))
        for family in bounds._CAPS:
            monkeypatch.setitem(bounds._CAPS, family, raising(family))
        oracle_mod._BEST.clear()  # each patched call sweeps
        with pytest.raises(AssertionError, match="the oracle called"):  # the closed forms it checks against
            verify_characterization(OracleConfig(t_card=1, steps=3))
        for objective in oracle_mod.OBJECTIVES:
            r = oracle_max(objective, OracleConfig(t_card=2, steps=5))
            assert _sha256_of_json(r.to_dict()) == ORACLE_JSON_SHA256[objective]
            assert oracle_max(objective, sharded).to_dict() == unpatched[objective]
        for family, caps in exact_pentagons().items():
            for got, want in zip(caps, pentagons[family], strict=True):
                np.testing.assert_array_equal(got, want)
        _assert_no_child_left()


class TestCharacterization:
    def test_report_bytes_frozen(self):
        rep = verify_characterization(OracleConfig(t_card=1, steps=9))
        assert _sha256_of_json(rep.to_dict()) == CHARACTERIZATION_JSON_SHA256

    def test_small_lattice_clean(self):
        rep = verify_characterization(OracleConfig(t_card=1, steps=11))
        assert rep.worst_violation <= 1e-12
        assert all(v >= 1 for v in rep.equality_count.values())
        assert rep.n_evaluated == 121

    def test_two_t_lattice_clean(self):
        rep = verify_characterization(OracleConfig(t_card=2, steps=9))
        for name in ("h_x1_given_t", "h_x2_given_t", "i_x1_y_given_x2", "i_x2_y_given_x1", "i_x1x2_y", "h_y_erasure"):
            assert rep.max_violation[name] <= 1e-10
        for name in ("half_h_x1", "half_h_x2"):
            assert rep.max_violation[name] <= 1e-12

    def test_one_kernel_call_per_chunk(self, monkeypatch):
        # at t_card 1 and 2 each chunk makes one call over its rows for the
        # columns that read both users, then one at the 25 rows of the user
        # lattice for the columns that read one user alone, H(X1|T) and
        # H(X2|T); at t_card 3 the user rows are the chunk's own, and one
        # call over them gives every column
        calls = []
        input_stats = _kernels.input_stats

        def counted(p, q1, q2, columns):
            calls.append((len(p), columns))
            return input_stats(p, q1, q2, columns)

        monkeypatch.setattr(_kernels, "input_stats", counted)
        monkeypatch.setattr(oracle_mod, "_CHUNK", 500)
        per_user = ("h_x1_given_t", "h_x2_given_t")
        for t_card, chunks in [
            (2, [500, 125] * 5),  # two chunks at each point of the P(t) lattice
            (3, [125] * 15),  # one
        ]:
            cfg = OracleConfig(t_card=t_card, steps=5)
            assert [len(p) for p, _, _ in oracle_mod.iter_input_grid(cfg)] == chunks

            def pattern(columns):
                if t_card == 3:
                    return [(rows, columns) for rows in chunks]
                joint = tuple(name for name in columns if name not in per_user)
                return [call for rows in chunks for call in ((rows, joint), (25, per_user))]

            calls.clear()
            verify_characterization(cfg)
            for objective in _LATTICE_OBJECTIVES:  # the characterization's sweep serves them
                oracle_max(objective, cfg)
            assert calls == pattern(oracle_mod._CHECKED_COLUMNS)
            calls.clear()
            oracle_mod._BEST.clear()
            for objective in _LATTICE_OBJECTIVES:  # the first sweeps for all three
                oracle_max(objective, cfg)
            assert calls == pattern(oracle_mod._OBJECTIVE_COLUMNS)

    def test_report_serializes(self):
        rep = verify_characterization(OracleConfig(t_card=1, steps=5))
        blob = json.dumps(rep.to_dict())
        assert "max_violation" in json.loads(blob)


#: configurations of every t_card with several blocks each; t_card 1 has one
#: block at the default chunk, so it is swept with ``_CHUNK`` 7
_SHARDED_CONFIGS = [
    (OracleConfig(t_card=1, steps=9), 7),
    (OracleConfig(t_card=2, steps=5), None),
    (OracleConfig(t_card=3, steps=5, seed=1), None),
]


def _bits(x):
    """``x`` with every float as its hex form, which tells -0.0 from 0.0, and dicts in their order."""
    if isinstance(x, dict):
        return [(k, _bits(v)) for k, v in x.items()]
    if isinstance(x, (tuple, list, np.ndarray)):
        return [_bits(v) for v in x]
    return float.hex(x) if isinstance(x, float) else x


class TestSharding:
    """Sweeps split across forked processes give the bits of one process, and leave no process behind."""

    @pytest.mark.parametrize("cfg, chunk", _SHARDED_CONFIGS)
    def test_results_do_not_depend_on_the_shard_count(self, monkeypatch, shards, cfg, chunk):
        if chunk is not None:
            monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
        n_blocks = len(list(oracle_mod.iter_input_grid(cfg)))
        assert n_blocks > 3

        def records():  # the objectives sweep on an empty memo, then the characterization sweeps
            oracle_mod._BEST.clear()
            out = [json.dumps(oracle_max(objective, cfg).to_dict()) for objective in oracle_mod.OBJECTIVES]
            return out + [json.dumps(verify_characterization(cfg).to_dict())]

        shards(1)
        serial = records()
        for cpus in (2, 3, n_blocks + 5):
            shards(cpus)
            assert records() == serial
        _assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3, 64])
    def test_pinned_reports_when_sharded(self, shards, cpus):
        shards(cpus)
        for objective in oracle_mod.OBJECTIVES:
            r = oracle_max(objective, OracleConfig(t_card=2, steps=5))
            assert _sha256_of_json(r.to_dict()) == ORACLE_JSON_SHA256[objective]
        _assert_no_child_left()

    def test_a_maximum_of_zero_keeps_the_sign_of_the_first_block(self, monkeypatch, shards):
        # three blocks (p = (0, 1), (1/2, 1/2), (1, 0)) whose h_y_erasure gaps
        # are -1, -0.0 and +0.0: one sweep in block order reports -0.0, while
        # two shards hold (-1, +0.0) and (-0.0)
        gap_of_block = {0.0: -1.0, 0.5: -0.0, 1.0: 0.0}

        def stats(p, q1, q2, columns):
            out = np.zeros((len(p), len(columns)))
            if "h_y_erasure" in columns:
                out[:, columns.index("h_y_erasure")] = gap_of_block[float(p[0, 0])]
            return out

        monkeypatch.setattr(_kernels, "input_stats", stats)
        monkeypatch.setitem(bounds._CAPS, "erasure-fb", lambda u1, u2, u: (0.0 * u, 0.0 * u, 0.0 * u))
        cfg = OracleConfig(t_card=2, steps=3)
        for cpus in (1, 2, 3):
            shards(cpus)
            zero = verify_characterization(cfg).max_violation["h_y_erasure"]
            assert zero == 0.0 and math.copysign(1.0, zero) == -1.0
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [DomainError("outside the domain"), KeyboardInterrupt("interrupted")])
    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_an_error_in_any_shard_is_raised_and_reaps_every_child(self, monkeypatch, shards, error, where):
        parent = os.getpid()
        input_stats = _kernels.input_stats

        def failing(p, *rest):
            if (os.getpid() == parent) == (where == "parent"):
                raise error
            return input_stats(p, *rest)

        monkeypatch.setattr(_kernels, "input_stats", failing)
        shards(3)
        cfg = OracleConfig(t_card=2, steps=5)
        with pytest.raises(type(error), match=str(error)) as raised:
            verify_characterization(cfg)
        assert type(raised.value) is type(error)
        _assert_no_child_left()
        with pytest.raises(type(error), match=str(error)):
            oracle_max("db1_symmetric_direct", cfg)
        _assert_no_child_left()

    def test_a_child_that_dies_without_a_result(self, monkeypatch, shards):
        parent = os.getpid()
        input_stats = _kernels.input_stats

        def dying(p, *rest):
            if os.getpid() != parent:
                os._exit(3)
            return input_stats(p, *rest)

        monkeypatch.setattr(_kernels, "input_stats", dying)
        shards(2)
        with pytest.raises(RuntimeError, match="no result"):
            verify_characterization(OracleConfig(t_card=2, steps=5))
        _assert_no_child_left()

    def test_children_run_no_exit_handlers_and_flush_no_inherited_output(self):
        # a child that left through sys.exit would write the buffered "start"
        # and the atexit line a second time
        code = (
            "import atexit, os, sys\n"
            "from macfb import oracle\n"
            "atexit.register(lambda: print('atexit'))\n"
            "print('start', end='')\n"
            "oracle._SHARD_MIN_ROWS = 0\n"
            "oracle._cpus = lambda: 3\n"
            "print(oracle.verify_characterization(oracle.OracleConfig(t_card=2, steps=5)).n_evaluated)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "start3125\natexit\n"

    def test_shards_take_consecutive_blocks(self, shards):
        # each block's result is the block and the process it ran in, and the
        # merge joins them; blocks of one row each, and blocks of which the
        # first or the last holds most of the rows
        n_blocks = 11
        for rows in ([1] * n_blocks, [1000] + [1] * (n_blocks - 1), [1] * (n_blocks - 1) + [1000]):
            for cpus in (2, 3, n_blocks, n_blocks + 5):
                shards(cpus)
                seen = oracle_mod._sharded(
                    lambda b: [(os.getpid(), b)], operator.add, lambda: iter(range(n_blocks)), rows
                )
                assert [b for _, b in seen] == list(range(n_blocks))
                runs = [pid for pid, _ in groupby(seen, key=operator.itemgetter(0))]
                assert len(set(runs)) == len(runs) == min(cpus, n_blocks)
                assert runs[0] == os.getpid()
        _assert_no_child_left()

    def test_shards_split_the_cutset_sweep_by_rows(self, monkeypatch, shards):
        # the cut-set lattice's blocks shrink from C(steps + 1, 2) rows to 1;
        # each block's result also carries the process that swept it and its rows
        steps = 120
        rows = [len(block) for block in oracle_mod._simplex_lattice(4, steps)]
        sharded, calls = oracle_mod._sharded, []

        def recording(each, merge, blocks, block_rows):
            out, seen = sharded(
                lambda b: (each(b), [(os.getpid(), len(b))]),
                lambda a, b: (merge(a[0], b[0]), a[1] + b[1]),
                blocks,
                block_rows,
            )
            calls.append([sum(n for _, n in run) for _, run in groupby(seen, key=operator.itemgetter(0))])
            return out

        monkeypatch.setattr(oracle_mod, "_sharded", recording)
        shards(2)
        oracle_max("cutset_symmetric_direct", OracleConfig(t_card=1, steps=steps))
        [(first, second)] = calls
        cut = list(accumulate(rows)).index(first) + 1
        assert first + second == sum(rows)
        assert abs(first - second) <= max(rows[cut - 1], rows[cut])
        _assert_no_child_left()

    @given(st.data())
    def test_both_folds_of_the_merges_give_the_bits_of_one_sweep(self, data):
        # block results with tied values, tied rows and both zeros: folding
        # them all, and folding the folds of consecutive runs (the blocks of
        # each shard, then the shards), give the bits of the earliest best result
        n = data.draw(st.integers(1, 8))
        cuts = [i for i, cut in enumerate(data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)), 1) if cut]
        values, count = st.sampled_from([-1.0, -0.0, 0.0, 0.5]), st.integers(0, 1000)

        def keyed(keys, of):
            return st.lists(of, min_size=len(keys), max_size=len(keys)).map(lambda vs: dict(zip(keys, vs)))

        rows = st.lists(values, min_size=3, max_size=3).map(np.array)
        best_rows = [data.draw(st.tuples(values, rows, count)) for _ in range(n)]
        names, tight = oracle_mod._INEQUALITIES + oracle_mod._IDENTITIES, oracle_mod._INEQUALITIES
        reports = [data.draw(st.tuples(count, keyed(names, values), keyed(tight, count))) for _ in range(n)]

        def earliest_max(vs):
            return next(v for v in vs if v == max(vs))

        top = max(v for v, _, _ in best_rows)
        # ``min`` keeps the first of equal keys: the earliest of the smallest best rows
        value, row, _ = min((r for r in best_rows if r[0] == top), key=lambda r: tuple(r[1]))
        expected = {
            oracle_mod._better: (value, row, sum(c for _, _, c in best_rows)),
            oracle_mod._merge_reports: (
                sum(c for c, _, _ in reports),
                {k: earliest_max([v[k] for _, v, _ in reports]) for k in names},
                {k: sum(e[k] for _, _, e in reports) for k in tight},
            ),
        }
        for merge, results in ((oracle_mod._better, best_rows), (oracle_mod._merge_reports, reports)):
            runs = [results[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
            assert _bits(reduce(merge, results)) == _bits(expected[merge])
            assert _bits(reduce(merge, [reduce(merge, run) for run in runs])) == _bits(expected[merge])

    def test_a_daemonic_process_sweeps_alone(self, shards):
        # a multiprocessing.Pool worker is daemonic, and a daemonic process may not have children
        shards(2)
        cfg = OracleConfig(t_card=2, steps=5)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.apply_async(verify_characterization, (cfg,)).get(timeout=120)
        assert json.dumps(in_worker.to_dict()) == json.dumps(verify_characterization(cfg).to_dict())
        _assert_no_child_left()


def _all_rows_sweep(cfg):
    """The sweep of ``cfg``'s lattice in one process with every column at every row: ``(best, report)``.

    Each block makes one ``input_stats`` call for all ``STAT_COLUMNS``, and
    ``_characterize`` takes every cap at every row, each row its own user row.
    """
    def each(block):
        s = dict(zip(_kernels.STAT_COLUMNS, _kernels.input_stats(*block, _kernels.STAT_COLUMNS).T))
        forms = oracle_mod._OBJECTIVE_FORMS.values()
        best = tuple(oracle_mod._best_row(block, form(*map(s.get, names))) for names, form in forms)
        return best, oracle_mod._characterize(block, s, (*block, slice(None), slice(None)))

    return reduce(oracle_mod._merge_sweeps, map(each, oracle_mod.iter_input_grid(cfg)))


class TestPerUserTerms:
    """H(X1|T), H(X2|T) and their caps, taken once per user-lattice row, give the bits of every row's own."""

    @pytest.mark.parametrize("cfg", [
        OracleConfig(t_card=1, steps=9), OracleConfig(t_card=2, steps=6), OracleConfig(t_card=3, steps=5, seed=1),
    ])
    @pytest.mark.parametrize("chunk", [17, 500, None])  # 17 and 500 cut inside a run of the 9 or 36 user rows
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_per_user_sweep_is_the_all_rows_sweep(self, monkeypatch, shards, cfg, chunk, cpus):
        if chunk is not None:
            monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
        best, report = _all_rows_sweep(cfg)
        shards(cpus)
        rep = verify_characterization(cfg)
        assert _bits((rep.n_evaluated, rep.max_violation, rep.equality_count)) == _bits(report)
        assert _bits(tuple(oracle_mod._BEST[cfg].values())) == _bits(best)
        oracle_mod._BEST.clear()  # and the objectives' own sweep
        assert [oracle_max(objective, cfg).to_dict() for objective in _LATTICE_OBJECTIVES] == [
            oracle_mod.OracleResult(objective, value, tuple(float(v) for v in row), n, cfg).to_dict()
            for objective, (value, row, n) in zip(_LATTICE_OBJECTIVES, best)
        ]
        _assert_no_child_left()

    @pytest.mark.parametrize("t_card, steps, chunk", [(1, 9, 4), (1, 9, 17), (2, 6, 17), (2, 6, 500), (2, 6, None)])
    def test_each_row_is_its_users_rows(self, monkeypatch, t_card, steps, chunk):
        # the user rows hold each row's q1 and q2, and the chunks are those of the q set U x U
        if chunk is not None:
            monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
        cfg = OracleConfig(t_card=t_card, steps=steps)
        g = np.linspace(0.0, 1.0, steps)
        q = np.stack([x.ravel() for x in np.meshgrid(*[g] * (2 * t_card), indexing="ij")], axis=1)
        start = 0
        for (p, q1, q2), (p_users, v1, v2, at1, at2) in oracle_mod._input_blocks(cfg):
            rows = slice(start % len(q), start % len(q) + len(p))
            np.testing.assert_array_equal(np.concatenate([q1, q2], axis=1), q[rows])
            np.testing.assert_array_equal(v1[at1], q1)
            np.testing.assert_array_equal(v2[at2], q2)
            np.testing.assert_array_equal(p_users, np.broadcast_to(p[0], (len(v1), t_card)))
            assert len(v1) == len(v2) == steps**t_card
            start += len(p)
        assert start == cfg.grid_size


class TestMemo:
    """The lattice objectives read one sweep of their lattice, whichever call made it."""

    @pytest.mark.parametrize("cfg, chunk", _SHARDED_CONFIGS)
    def test_both_fill_paths_give_the_same_bits(self, monkeypatch, shards, cfg, chunk):
        if chunk is not None:
            monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
        seen = []
        for cpus in (1, 2, 3):
            shards(cpus)
            oracle_mod._BEST.clear()
            alone = _bits([oracle_max(objective, cfg).to_dict() for objective in _LATTICE_OBJECTIVES])
            memo = _bits(oracle_mod._BEST[cfg])
            oracle_mod._BEST.clear()
            verify_characterization(cfg)
            assert _bits(oracle_mod._BEST[cfg]) == memo
            assert _bits([oracle_max(objective, cfg).to_dict() for objective in _LATTICE_OBJECTIVES]) == alone
            seen.append((memo, alone))
        assert all(bits == seen[0] for bits in seen)  # and whatever the shard count
        _assert_no_child_left()

    def test_a_memo_hit_still_checks_the_size(self, monkeypatch):
        cfg = OracleConfig(t_card=2, steps=5)
        verify_characterization(cfg)
        assert cfg in oracle_mod._BEST

        def refusing(size, what, budget=None):
            raise BudgetExceededError(f"{what} of {size} evaluations refused")

        monkeypatch.setattr(oracle_mod, "check_size", refusing)
        for objective in _LATTICE_OBJECTIVES:
            with pytest.raises(BudgetExceededError, match="grid of 3125 evaluations"):
                oracle_max(objective, cfg)


def _lowered(fn):
    """``fn`` with every returned cap lowered by 1e-6."""

    def low(*args, **kwargs):
        out = fn(*args, **kwargs)
        return tuple(np.asarray(x) - 1e-6 for x in out) if isinstance(out, tuple) else out - 1e-6

    return low


def _lowered_stage(staged):
    """``staged`` with every cap of the caps it returns lowered by 1e-6."""
    return lambda *args: _lowered(staged(*args))


def _soundness_check():
    return verify._soundness_check(np.random.default_rng(verify.DEFAULT_SEED), 200)


def _lower_caps(monkeypatch, family):
    """Lower a row of ``bounds._CAPS`` by 1e-6 where its callers look it up."""
    monkeypatch.setitem(bounds._CAPS, family, _lowered(bounds._CAPS[family]))


#: the symmetric rate each family's caps give: a row of ``bounds._CAPS``, or a function of ``bounds``
_SYMMETRIC_RATES = {
    "dbpc1": lambda: symrate.solve_db_symmetric().rate,
    "cover-leung": lambda: symrate.solve_cl_symmetric().rate,
    "_cutset_caps": symrate.solve_cutset_symmetric,
}


class TestChecksSeeRegionFunctions:
    """The soundness check, the oracle and the symmetric rates call the functions that build the regions.

    Each row of ``bounds._CAPS``, or function of ``macfb.bounds``, is
    lowered by 1e-6 where its callers look it up, so the checks and the
    rates must see it move.
    """

    def test_unpatched_checks_pass(self):
        check = _soundness_check()
        assert check["name"] == "true-pentagons-inside-closed-form" and check["passed"]
        assert verify_characterization(OracleConfig(t_card=1, steps=7)).worst_violation <= 1e-10

    @pytest.mark.parametrize("family", sorted(bounds._CAPS))
    def test_family_caps(self, monkeypatch, family):
        _lower_caps(monkeypatch, family)
        check = _soundness_check()
        assert not check["passed"] and check["max_violation"] > 1e-7

    @pytest.mark.parametrize("staged, family", [
        ("_db_staged", "dbpc1"), ("_cl_staged", "cover-leung"), ("_erasure_staged", "erasure-fb"),
    ])
    def test_staged_caps_move_the_solve_and_the_checks(self, monkeypatch, staged, family):
        # the staged form is the one definition of a family's caps: the region
        # solve and the soundness check both read it on this module
        rows = np.array([45, 90, 135])
        solved = bounds._solution(family)[2][rows]
        monkeypatch.setattr(bounds, staged, _lowered_stage(getattr(bounds, staged)))
        lowered = bounds._solve_family(family, SWEEP_LAMBDAS[rows])[2]
        assert np.all(lowered < solved - 1e-7), solved - lowered
        check = _soundness_check()
        assert not check["passed"] and check["max_violation"] > 1e-7

    @pytest.mark.parametrize("family, check", [
        ("cover-leung", "witness-attains-cover-leung-caps"),
        ("erasure-fb", "witness-attains-erasure-caps"),
        ("dbpc1", "witness-attains-balance-point-caps"),
    ])
    def test_witness_checks_see_family_caps(self, monkeypatch, family, check):
        def witness_checks():
            report = verify.characterization_suite(t_cards=(1,), steps=7)
            return {c["name"]: c for c in report["checks"] if c["name"].startswith("witness-")}

        assert all(c["passed"] for c in witness_checks().values())
        _lower_caps(monkeypatch, family)
        lowered = witness_checks()
        assert not lowered[check]["passed"] and lowered[check]["max_violation"] > 1e-7
        assert [name for name, c in lowered.items() if not c["passed"]] == [check]

    @pytest.mark.parametrize("family", sorted(_SYMMETRIC_RATES))
    def test_symmetric_rate_sees_family_caps(self, monkeypatch, family):
        rate = _SYMMETRIC_RATES[family]()
        if family in bounds._CAPS:
            _lower_caps(monkeypatch, family)
        else:
            monkeypatch.setattr(bounds, family, _lowered(getattr(bounds, family)))
        assert _SYMMETRIC_RATES[family]() < rate - 1e-7

    # the sum caps h((1-u)/2) and mu(u) are tight only at the soundness
    # check's binary uniform-T witnesses
    @pytest.mark.parametrize("term, soundness_sees_it", [
        ("_h_phi", True), ("_half_h", True), ("_h_mid", True), ("mu_fn", True),
    ])
    def test_raw_terms(self, monkeypatch, term, soundness_sees_it):
        monkeypatch.setattr(bounds, term, _lowered(getattr(bounds, term)))
        rep = verify_characterization(OracleConfig(t_card=1, steps=7))
        assert rep.worst_violation > 1e-10
        assert _soundness_check()["passed"] is not soundness_sees_it
