import json
import os
import subprocess
import sys

import numpy as np
import pytest

CMD = [sys.executable, "-m", "macfb"]


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

    def test_characterization_small(self):
        out = run("verify", "characterization", "--t-card", "1", "--steps", "7")
        assert out.returncode == 0
        assert "equality-cases-missing-tcard1" in out.stdout

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
        out = run("region", "dbpc1", "--grid-n", "2001", timeout=60)
        assert out.returncode == 2
        assert "dbpc sweep of 8012006001 evaluations exceeds budget 100000000" in out.stderr

    @pytest.mark.parametrize(
        "which, grid_n, size",
        [("dbpc1", 11, 11**3), ("dbpc", 11, 11**3), ("cutset", 21, 21 * 22 * 23 // 6), ("erasure-fb", 32, 32**2)],
    )
    def test_region_sweep_checked_against_budget(self, which, grid_n, size):
        out = run("region", which, "--grid-n", str(grid_n), env={"MACFB_BUDGET": "1000"}, timeout=60)
        assert out.returncode == 2
        assert f"sweep of {size} evaluations exceeds budget 1000" in out.stderr
        assert out.stdout == ""


class TestMisc:
    def test_no_args_exits_2(self):
        assert run().returncode == 2

    def test_version(self):
        out = run("--version")
        assert out.returncode == 0
        assert "macfb" in out.stdout
