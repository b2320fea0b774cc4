import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import macfb.oracle as oracle_mod
from macfb import _kernels, _search, bounds, symrate, verify
from macfb.geometry import SWEEP_LAMBDAS
from macfb.infofn import DomainError
from macfb.oracle import (
    BudgetExceededError,
    OracleConfig,
    oracle_max,
    verify_characterization,
)

LOG2_3 = math.log2(3.0)

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
        rechunked = oracle_max("db1_symmetric_direct", cfg)
        assert rechunked.value == base.value
        assert rechunked.argmax_params == base.argmax_params

    def test_t3_latin_hypercube_mode(self):
        cfg = OracleConfig(t_card=3, steps=5, seed=1, budget=10_000)
        r = oracle_max("cl_symmetric_direct", cfg)
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
        rows = []
        input_stats = _kernels.input_stats

        def counted(p, *rest):
            rows.append(len(p))
            return input_stats(p, *rest)

        monkeypatch.setattr(_kernels, "input_stats", counted)
        monkeypatch.setattr(oracle_mod, "_CHUNK", 500)  # two chunks at each point of the P(t) lattice
        cfg = OracleConfig(t_card=2, steps=5)
        chunks = [len(p) for p, _, _ in oracle_mod.iter_input_grid(cfg)]
        verify_characterization(cfg)
        assert rows == chunks

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


class TestSharding:
    """Sweeps split across forked processes give the bits of one process, and leave no process behind."""

    @pytest.mark.parametrize("cfg, chunk", _SHARDED_CONFIGS)
    def test_results_do_not_depend_on_the_shard_count(self, monkeypatch, shards, cfg, chunk):
        if chunk is not None:
            monkeypatch.setattr(oracle_mod, "_CHUNK", chunk)
        n_blocks = oracle_mod._grid_blocks(cfg)
        assert n_blocks == len(list(oracle_mod.iter_input_grid(cfg))) > 3

        def records():
            out = [json.dumps(verify_characterization(cfg).to_dict())]
            return out + [json.dumps(oracle_max(objective, cfg).to_dict()) for objective in oracle_mod.OBJECTIVES]

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
        column = oracle_mod._INEQUALITIES.index("h_y_erasure")
        gap_of_block = {0.0: -1.0, 0.5: -0.0, 1.0: 0.0}

        def stats(p, q1, q2, columns):
            out = np.zeros((len(p), len(columns)))
            out[:, column] = gap_of_block[float(p[0, 0])]
            return out

        monkeypatch.setattr(_kernels, "input_stats", stats)
        monkeypatch.setattr(bounds, "_erasure_caps", lambda u1, u2, u: (0.0 * u, 0.0 * u, 0.0 * u))
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
        src = str(Path(oracle_mod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import atexit, os, sys\n"
            "from macfb import oracle\n"
            "atexit.register(lambda: print('atexit'))\n"
            "print('start', end='')\n"
            "oracle._SHARD_MIN_ROWS = 0\n"
            "oracle._cpus = lambda: 3\n"
            "print(oracle.verify_characterization(oracle.OracleConfig(t_card=2, steps=5)).n_evaluated)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "start3125\natexit\n"


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


#: the symmetric rate each family's caps give
_SYMMETRIC_RATES = {
    "_db_caps": lambda: symrate.solve_db_symmetric().rate,
    "_cl_caps": lambda: symrate.solve_cl_symmetric().rate,
    "_cutset_caps": symrate.solve_cutset_symmetric,
}


class TestChecksSeeRegionFunctions:
    """The soundness check, the oracle and the symmetric rates call the functions that build the regions.

    Each function is lowered by 1e-6 on ``macfb.bounds``, where its callers
    look it up, so the checks and the rates must see it move.
    """

    def test_unpatched_checks_pass(self):
        check = _soundness_check()
        assert check["name"] == "true-pentagons-inside-closed-form" and check["passed"]
        assert verify_characterization(OracleConfig(t_card=1, steps=7)).worst_violation <= 1e-10

    @pytest.mark.parametrize("family", ["_db_caps", "_cl_caps", "_erasure_caps"])
    def test_family_caps(self, monkeypatch, family):
        monkeypatch.setattr(bounds, family, _lowered(getattr(bounds, family)))
        check = _soundness_check()
        assert not check["passed"] and check["max_violation"] > 1e-7

    @pytest.mark.parametrize("staged, family", [
        ("_db_staged", "dbpc1"), ("_cl_staged", "cover-leung"), ("_erasure_staged", "erasure-fb"),
    ])
    def test_staged_caps_move_the_solve_and_the_checks(self, monkeypatch, staged, family):
        # the staged form is the one definition of a family's caps: the region
        # solve and the soundness check both read it on this module
        rows = np.array([45, 90, 135])
        stage_of, x_hi = bounds._FAMILIES[family]
        solved = bounds._solution(family)[2][rows]
        monkeypatch.setattr(bounds, staged, _lowered_stage(getattr(bounds, staged)))
        lowered = _search._solve(bounds._pentagon_support(stage_of, SWEEP_LAMBDAS[rows]), x_hi, len(rows))[2]
        assert np.all(lowered < solved - 1e-7), solved - lowered
        check = _soundness_check()
        assert not check["passed"] and check["max_violation"] > 1e-7

    @pytest.mark.parametrize("family, check", [
        ("_cl_caps", "witness-attains-cover-leung-caps"),
        ("_erasure_caps", "witness-attains-erasure-caps"),
        ("_db_caps", "witness-attains-balance-point-caps"),
    ])
    def test_witness_checks_see_family_caps(self, monkeypatch, family, check):
        def witness_checks():
            report = verify.characterization_suite(t_cards=(1,), steps=7)
            return {c["name"]: c for c in report["checks"] if c["name"].startswith("witness-")}

        assert all(c["passed"] for c in witness_checks().values())
        monkeypatch.setattr(bounds, family, _lowered(getattr(bounds, family)))
        lowered = witness_checks()
        assert not lowered[check]["passed"] and lowered[check]["max_violation"] > 1e-7
        assert [name for name, c in lowered.items() if not c["passed"]] == [check]

    @pytest.mark.parametrize("family", sorted(_SYMMETRIC_RATES))
    def test_symmetric_rate_sees_family_caps(self, monkeypatch, family):
        rate = _SYMMETRIC_RATES[family]()
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
