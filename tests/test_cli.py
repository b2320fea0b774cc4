import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from macfb import cli, oracle, verify

CMD = [sys.executable, "-m", "macfb"]

#: sha256 of ``macfb region <which> --grid-n <grid_n>`` for the inner regions
INNER_CSV_SHA256 = {
    ("cover-leung", "21"): "75cc7ff5590a8b5b66648d1edbaf04676bf052a35927f04ed676a9288c58cce7",
    ("cover-leung", "201"): "9d73b9961f103668d061c5e150a37176a79732e189c5792d291b442d2981612c",
    ("erasure-fb", "21"): "575e09ff13443f248f4961fdd495f861c99fd42533ea27523bb60779d0014d86",
    ("erasure-fb", "201"): "6c31299fc481775a16c781d28779f313a8f6c2dfce08f3a9a22a0b6a3e4a116f",
}
#: sha256 of ``macfb symrate all --format json``
SYMRATE_JSON_SHA256 = "ffeb5477c55b86a0df017cb4fcae7c77b37a5eec538a88af0e870036f807a349"
#: sha256 of ``macfb verify <args>``, frozen from the whole-array suites: the
#: block-wise suites draw the same inputs and print the same bytes
VERIFY_SHA256 = {
    ("lemmas", "--samples", "5000", "--seed", "0"):
        "e8494cdab20b1842560391a11581d91b3816677e5fbfd21e47eb3283cccb131a",
    ("lemmas", "--samples", "100000", "--seed", "3", "--format", "json"):
        "bc8e285671c15d899975440c3a27a40581333a28ab4505f7458ce5087f975063",
    ("equivalence", "--samples", "200"):
        "7f1af63928301a34de30ab84e84a17eee4fa879f0aff5bd17088e2e34217b21c",
    ("equivalence", "--samples", "100000", "--format", "json"):
        "58eb78db40b75b001ce91f153bd3316aee260f72739fc2c31b5757fa540616c7",
}


def run(*args, env=None, timeout=None):
    child_env = {**os.environ, **env} if env else None
    return subprocess.run(CMD + list(args), capture_output=True, text=True, env=child_env, timeout=timeout)


class TestSymrate:
    def test_dbpc_json_values(self):
        out = run("symrate", "dbpc", "--format", "json")
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["schema_version"] == "1.0"
        res = rec["results"]["dbpc"]
        assert res["rate"] == pytest.approx(0.45330, abs=1e-5)
        assert res["u1"] == pytest.approx(0.086063, abs=1e-5)
        assert res["u2"] == pytest.approx(0.218333, abs=1e-5)
        assert res["u"] == pytest.approx(0.355899, abs=1e-5)
        assert res["witness"]["q1"][0] == pytest.approx(0.095109, abs=1e-5)
        assert res["witness"]["q2"][0] == pytest.approx(0.322050, abs=1e-5)

    def test_all_json_bytes_frozen(self, capsys):
        assert cli.main(["symrate", "all", "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SYMRATE_JSON_SHA256

    def test_human_output_six_decimals(self):
        out = run("symrate", "cover-leung")
        assert out.returncode == 0
        assert "rate = 0.436215" in out.stdout

    def test_bad_selector_exits_2(self):
        assert run("symrate", "nonsense").returncode == 2


class TestRegion:
    def test_erasure_nofb_csv(self):
        out = run("region", "erasure-nofb")
        assert out.returncode == 0
        assert out.stdout == "r1,r2\n0.5,1\n1,0.5\n"

    def test_csv_and_json_agree_to_twelve_digits(self):
        args = ("region", "cover-leung", "--grid-n", "21")
        csv_out = run(*args, "--format", "csv")
        json_out = run(*args, "--format", "json")
        assert csv_out.returncode == 0 and json_out.returncode == 0
        csv_rows = [
            [float(v) for v in line.split(",")]
            for line in csv_out.stdout.strip().splitlines()[1:]
        ]
        json_rows = json.loads(json_out.stdout)["results"]["points"]
        assert len(csv_rows) == len(json_rows)
        np.testing.assert_allclose(np.array(csv_rows), np.array(json_rows), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("grid_n", ["21", "201"])
    def test_cover_leung_csv_bytes_frozen(self, grid_n):
        self._check_inner_csv("cover-leung", grid_n)

    @pytest.mark.parametrize("grid_n", ["21", "201"])
    def test_erasure_fb_csv_bytes_frozen(self, grid_n):
        self._check_inner_csv("erasure-fb", grid_n)

    @staticmethod
    def _check_inner_csv(which, grid_n):
        # frozen from the hull of the face curve at grid_n values of u1 and
        # either side of each solved u1, its mirror and the solved corners;
        # the bytes depend on grid_n
        out = run("region", which, "--grid-n", grid_n)
        assert out.returncode == 0
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == INNER_CSV_SHA256[which, grid_n]

    @pytest.mark.parametrize("which, digest", [
        ("cutset", "655cf2a9944f1b524af3d5cdcaba78ba90d56ffef28a7ecde703b11bc4a50c4d"),
        ("dbpc1", "66434e5c0f0a49e7ca68a41684ee06b54330893c8ca1b6965d549b46f9214cec"),
        ("dbpc2", "0eedc90740c8afd0d2eb6c4bdae893bc42c47600865ad012f7e7f2ca40f4a7b5"),
        ("dbpc", "0ba599d5d171ba23e15ccbf01789babcf9a0165d21d32241a98fcfa6a7e537d3"),
    ])
    def test_outer_region_csv_is_its_support_polygon(self, which, digest, capsys, monkeypatch):
        # one vertex per pair of consecutive kept support lines of the 181:
        # no grid is swept, so the bytes do not depend on --grid-n and no
        # budget is needed
        monkeypatch.setenv("MACFB_BUDGET", "1")
        outs = []
        for grid_n in ("2", "21", "201"):
            assert cli.main(["region", which, "--grid-n", grid_n]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].startswith("r1,r2\n") and len(outs[0].splitlines()) <= 183
        assert hashlib.sha256(outs[0].encode()).hexdigest() == digest

    def test_unknown_region_exits_2(self):
        assert run("region", "bogus").returncode == 2

    @pytest.mark.parametrize("value", ["1", "0", "-5", "abc"])
    def test_bad_grid_n_exits_2(self, value):
        out = run("region", "erasure-nofb", "--grid-n", value)
        assert out.returncode == 2
        assert "--grid-n" in out.stderr

    def test_json_record_shape(self):
        rec = json.loads(run("region", "erasure-nofb", "--format", "json").stdout)
        assert rec["command"] == "region"
        assert rec["parameters"] == {"which": "erasure-nofb", "grid_n": 201}
        assert rec["results"]["points"] == [[0.5, 1.0], [1.0, 0.5]]


class TestVerify:
    def test_lemmas_pass(self):
        out = run("verify", "lemmas", "--samples", "2000")
        assert out.returncode == 0
        assert "all checks passed" in out.stdout

    def test_equivalence_pass_json(self):
        out = run("verify", "equivalence", "--samples", "100", "--format", "json")
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["results"]["passed"] is True

    @pytest.mark.parametrize("args", list(VERIFY_SHA256))
    def test_sampled_suite_bytes_frozen(self, args, capsys):
        assert cli.main(["verify", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_SHA256[args]

    def test_characterization_small(self):
        out = run("verify", "characterization", "--t-card", "1", "--steps", "7")
        assert out.returncode == 0
        assert "equality-cases-missing-tcard1" in out.stdout

    def test_characterization_t3_passes_from_nine_steps(self):
        # below 9 steps the Latin-hypercube q-points rarely land where the
        # caps are tight, and equality-cases-missing-tcard3 fails
        out = run("verify", "characterization", "--t-card", "3", "--steps", "9", "--seed", "0")
        assert out.returncode == 0, out.stdout
        assert "[pass] equality-cases-missing-tcard3" in out.stdout

    def test_repeated_t_card_exits_2(self):
        # a lattice asked for twice is refused, never swept and printed twice
        out = run("verify", "characterization", "--t-card", "1", "--t-card", "1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "--t-card: a value is given more than once" in out.stderr
        with pytest.raises(ValueError, match="repeats a value"):
            verify.characterization_suite(t_cards=(2, 1, 2))

    def test_suite_and_run_suite_share_each_default(self, monkeypatch):
        steps = []

        class Swept(Exception):
            pass

        def recorded(cfg):
            steps.append(cfg.steps)
            raise Swept

        monkeypatch.setattr(oracle, "verify_characterization", recorded)
        with pytest.raises(Swept):
            verify.characterization_suite()
        with pytest.raises(Swept):
            verify.run_suite("characterization")
        assert steps == [11, 11]

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("characterization", "--samples", "3"), "--samples"),
            (("lemmas", "--steps", "3", "--t-card", "2"), "--t-card"),
            (("equivalence", "--t-card", "1"), "--t-card"),
            (("dominance", "--steps", "3"), "--steps"),
        ],
    )
    def test_option_the_suite_does_not_take_exits_2(self, args, flag):
        # rejected before any check runs, never silently ignored
        out = run("verify", *args)
        assert out.returncode == 2
        assert out.stdout == ""
        assert f"{flag} is not an option of suite {args[0]}" in out.stderr

    def test_run_suite_passes_each_suite_its_options(self, monkeypatch):
        seen = {}

        def stub(name):
            def suite(**kwargs):
                seen[name] = kwargs
                return {"suite": name, "checks": [], "passed": True}

            return suite

        for name in list(verify.SUITES):
            monkeypatch.setitem(verify.SUITES, name, stub(name))
        # "all" takes any option that some suite takes
        verify.run_suite("all", samples=5, t_cards=[1], steps=3)
        assert seen == {
            "lemmas": {"seed": 0, "samples": 5},
            "characterization": {"seed": 0, "t_cards": (1,), "steps": 3},
            "dominance": {"seed": 0},
            "equivalence": {"seed": 0, "samples": 5},
        }
        seen.clear()
        with pytest.raises(verify.SuiteOptionError, match="'steps'"):
            verify.run_suite("lemmas", samples=5, steps=3)
        # no suite reads a grid-dependent region
        with pytest.raises(verify.SuiteOptionError, match="'grid_n'"):
            verify.run_suite("all", grid_n=201)
        with pytest.raises(verify.SuiteOptionError, match="'bogus'"):
            verify.run_suite("all", bogus=1)
        assert seen == {}

    @pytest.mark.parametrize("suite", ["dominance", "all"])
    def test_grid_n_is_not_a_verify_option(self, suite):
        out = run("verify", suite, "--grid-n", "201")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "unrecognized arguments: --grid-n 201" in out.stderr

    def test_bad_suite_exits_2(self):
        assert run("verify", "nope").returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("lemmas", "--samples", "0"),
            ("equivalence", "--samples", "-3"),
            ("characterization", "--steps", "0"),
            ("characterization", "--steps", "1"),
            ("dominance", "--grid-n", "0"),
            ("dominance", "--grid-n", "1"),
            ("lemmas", "--seed", "-1"),
        ],
    )
    def test_bad_count_exits_2(self, args):
        # rejected by the parser, never replaced by the suite's default
        out = run("verify", *args)
        assert out.returncode == 2
        assert args[1] in out.stderr


class TestBudget:
    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_budget_exits_2(self, value):
        # rejected, never replaced by the default budget
        out = run("region", "erasure-nofb", env={"MACFB_BUDGET": value})
        assert out.returncode == 2
        assert "MACFB_BUDGET must be a positive integer" in out.stderr
        assert out.stdout == ""

    def test_oversized_region_sweep_fails_fast(self):
        for which in ("cover-leung", "erasure-fb"):
            out = run("region", which, "--grid-n", "100000001", timeout=60)
            assert out.returncode == 2
            assert "inner face curve of 100000001 evaluations exceeds budget 100000000" in out.stderr

    # the inner regions are the ones that sample grid_n values of u1
    @pytest.mark.parametrize("which", ["cover-leung", "erasure-fb"])
    def test_region_sweep_checked_against_budget(self, which):
        out = run("region", which, "--grid-n", "1001", env={"MACFB_BUDGET": "1000"}, timeout=60)
        assert out.returncode == 2
        assert "inner face curve of 1001 evaluations exceeds budget 1000" in out.stderr
        assert out.stdout == ""

    def test_t3_lattice_checked_against_budget(self):
        # 28 P(t) points times 7**3 Latin-hypercube q-points; the budget never shrinks the sample
        env = {"MACFB_BUDGET": "1000"}
        out = run("verify", "characterization", "--t-card", "3", "--steps", "7", env=env, timeout=60)
        assert out.returncode == 2
        assert "grid of 9604 evaluations exceeds budget 1000" in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("suite", ["lemmas", "equivalence"])
    def test_samples_checked_against_budget(self, suite):
        env = {"MACFB_BUDGET": "999"}
        out = run("verify", suite, "--samples", "1000", env=env, timeout=60)
        assert out.returncode == 2
        assert "sampling of 1000 evaluations exceeds budget 999" in out.stderr
        assert out.stdout == ""
        assert run("verify", suite, "--samples", "999", env=env, timeout=60).returncode == 0


class TestMisc:
    def test_no_args_exits_2(self):
        assert run().returncode == 2

    def test_version(self):
        out = run("--version")
        assert out.returncode == 0
        assert "macfb" in out.stdout
