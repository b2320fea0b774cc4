"""The operations of each workload and what the gate observes of their results.

``operations(workload, seed, toy)`` returns a list of ``(name, run)`` pairs;
``run()`` performs one operation through macfb's public API, or, for the
``cli`` workload, as a ``python -m macfb`` subprocess.  ``observe(name,
result)`` reduces a result to plain JSON data for :mod:`gate`; it runs after
the pass is timed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracing import CLI_COMMANDS, REGIONS

HERE = Path(__file__).resolve().parent
GRID_N = 201
ORACLE_STEPS = 15
TOY_REGIONS = ("erasure-fb", "erasure-nofb")
TOY_GRID_N = 21
TOY_STEPS = 5


def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    s = str(seed)
    argv = {
        "symrate-all": ["symrate", "all", "--format", "json"],
        "region-erasure-nofb": ["region", "erasure-nofb", "--format", "json"],
        "verify-lemmas": ["verify", "lemmas", "--samples", "5000", "--seed", s],
        "verify-equivalence": ["verify", "equivalence", "--samples", "200", "--seed", s],
        "verify-characterization": [
            "verify", "characterization", "--t-card", "1", "--steps", "7", "--seed", s, "--format", "json",
        ],
    }
    return [(name, argv[name]) for name in CLI_COMMANDS]


def operations(workload: str, seed: int, toy: bool, tracer=None) -> list[tuple[str, object]]:
    if workload == "regions":
        from macfb import bounds

        grid_n = TOY_GRID_N if toy else GRID_N
        names = TOY_REGIONS if toy else REGIONS

        def region(name):
            # looked up at call time, so a tracer's wrapper is used
            return lambda: bounds.region_boundary(bounds.RegionSpec(bounds.Region(name), grid_n))

        return [(f"region.{name}", region(name)) for name in names]

    if workload == "oracle":
        from macfb import oracle

        steps = TOY_STEPS if toy else ORACLE_STEPS
        # explicit budget: every p-point of the simplex lattice gets steps**3
        # Latin-hypercube q-samples (120 x 3375 rows at steps 15)
        n_p = steps * (steps + 1) // 2
        t3 = oracle.OracleConfig(t_card=3, steps=steps, seed=seed, budget=n_p * steps**3)
        ops = [
            (f"oracle.verify_characterization.t{t}", lambda t=t: oracle.verify_characterization(
                oracle.OracleConfig(t_card=t, steps=steps)))
            for t in (1, 2)
        ]
        ops.append(("oracle.verify_characterization.t3", lambda: oracle.verify_characterization(t3)))
        ops += [
            (f"oracle.oracle_max.{obj}", lambda obj=obj: oracle.oracle_max(
                obj, oracle.OracleConfig(t_card=2, steps=steps)))
            for obj in oracle.OBJECTIVES
        ]
        return ops

    if workload == "cli":
        return [(f"cli.{name}", _cli_runner(name, argv, tracer)) for name, argv in cli_commands(seed)]

    raise ValueError(f"unknown workload {workload!r}")


def _cli_runner(name: str, argv: list[str], tracer):
    """Run one CLI command in a cold interpreter; traced runs go through traced_cli.py."""

    def run():
        if tracer is None:
            cmd = [sys.executable, "-m", "macfb", *argv]
            return subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        spans_out = HERE.parent / ".perfbench_out" / f"cli-spans-{name}.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_out), name, *argv]
        parent = len(tracer.spans)
        span = tracer.begin("cli.process", command=name)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        finally:
            tracer.end(span)
        if spans_out.is_file():
            tracer.adopt(json.loads(spans_out.read_text()), parent)
            spans_out.unlink()
        return proc

    return run


def supports(points: np.ndarray, lambdas: np.ndarray) -> list[float]:
    """max over the points of lam * r1 + (1 - lam) * r2, for each lam."""
    pts = np.asarray(points, dtype=float)
    return [float(np.max(lam * pts[:, 0] + (1.0 - lam) * pts[:, 1])) for lam in lambdas]


SWEEP = np.linspace(0.0, 1.0, 181)


def observe(name: str, result) -> dict:
    """Plain-data view of one operation's result, for the correctness gate."""
    if name.startswith("region."):
        return {"supports": supports(result.points, SWEEP)}
    if name.startswith("oracle.verify_characterization"):
        return {"n_evaluated": result.n_evaluated, "max_violation": dict(result.max_violation)}
    if name.startswith("oracle.oracle_max"):
        return {"value": float(result.value), "n_evaluated": result.n_evaluated,
                "argmax_params": list(result.argmax_params)}
    if name.startswith("cli."):
        obs = {"returncode": result.returncode, "stderr": result.stderr[-2000:]}
        if result.returncode == 0:
            try:
                obs.update(_parse_cli(name, result.stdout))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                obs["parse_error"] = repr(exc)
        return obs
    raise ValueError(f"unknown operation {name!r}")


def _parse_cli(name: str, stdout: str) -> dict:
    obs = {}
    if name in ("cli.verify-lemmas", "cli.verify-equivalence"):
        lines = stdout.splitlines()
        obs["checks"] = [line.split("]", 1)[1].split(":", 1)[0].strip() for line in lines[:-1]]
        obs["check_status"] = [line.split("]", 1)[0].lstrip("[") for line in lines[:-1]]
        obs["summary"] = lines[-1]
        return obs
    record = json.loads(stdout)["results"]
    if name == "cli.region-erasure-nofb":
        obs["supports"] = supports(record["points"], SWEEP)
    elif name == "cli.symrate-all":
        obs["results"] = record
    else:
        obs["checks"] = [c["name"] for c in record["checks"]]
        obs["check_status"] = ["pass" if c["passed"] else "FAIL" for c in record["checks"]]
        obs["summary"] = "all checks passed" if record["passed"] else "VERIFICATION FAILED"
    return obs
