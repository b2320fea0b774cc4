#!/usr/bin/env python3
"""macfb benchmark: three workloads, a per-layer trace and a correctness gate.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload regions --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test          # toy sizes, about two minutes
    python3 perfbench/run.py --make-references    # rewrite references.json
    python3 perfbench/run.py --compare A.json B.json

Workloads (``BENCHMARK.json`` says why each was chosen):

regions  ``region_boundary`` at grid 201 for all seven regions, in one process,
         so dbpc2 and dbpc reuse the dbpc1 sweep as a library session would.
oracle   brute-force lattice sweeps: ``verify_characterization`` at t_card 1,
         2 (steps 15) and 3 (seeded Latin hypercube, explicit budget), and
         ``oracle_max`` for every objective at t_card 2.
cli      five cold ``python -m macfb`` commands, one after another.

Every pass runs in a fresh worker process (one client, closed loop, no
added threads), so each pass pays the cold ``lru_cache``s and the import, as
a CLI user does.  Passes repeat until ``--seconds`` have elapsed; timings
are medians over passes.  ``setup_s`` is the time from starting a fresh
interpreter until ``import macfb`` returns, the median of at least seven cold
starts per run.  With ``--trace 1`` one untraced pass is followed by traced
passes that wrap each layer's entry points (see ``tracing.py``) and report
per-layer metrics; spans are written to ``.perfbench_out/`` when the run ends.

Every operation of every pass goes through the gate in ``gate.py``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The user's ``MACFB_*`` variables
are recorded and stripped from the workers' environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("regions", "oracle", "cli")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
MIN_SETUPS = 7
#: no new pass starts once a run could not finish it within this many seconds
RUN_CAP_S = 150.0
WORKER_TIMEOUT_S = 175.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, a worker crashed)."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MACFB_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def run_worker(workload: str, seed: int, trace: bool, toy: bool) -> dict:
    """One pass in a fresh interpreter; returns its record plus ``setup_s``."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"pass-{workload}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace)), str(int(toy)), str(out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker timed out")
    code = proc.returncode
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"{workload} worker exited with code {code}: {(ready + rest).strip()[-500:]}")
    if workload == "probe":
        return {"setup_s": setup_s}
    record = json.loads(out.read_text())
    out.unlink()
    if not Path(record["macfb_path"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"macfb was imported from {record['macfb_path']}, not from {SRC}")
    record["setup_s"] = setup_s
    return record


def _median(values):
    return statistics.median(values) if values else 0.0


def workload_figures(workload: str, passes: list[dict], failed: int) -> dict:
    """Per-workload figures, recorded and printed beside the bounded metrics.

    ``BENCHMARK.json`` can only bound metrics that every workload emits, so
    these (name -> (value, unit)) are reported but not bounded.
    """
    def op(name):
        return _median([p["op_s"][name] for p in passes])

    figures = {"ops_failed": (failed, "count")}
    if workload == "regions":
        for r in ("cutset", "dbpc1", "cover-leung", "erasure-fb"):
            if f"region.{r}" in passes[0]["op_s"]:
                figures[f"region.{r}_s"] = (op(f"region.{r}"), "s")
    elif workload == "oracle":
        rows = sum(obs["n_evaluated"] for obs in passes[0]["observed"].values())
        figures["oracle.rows_per_s"] = (_median([rows / p["wall_s"] for p in passes]), "rows/s")
    elif workload == "cli":
        figures["cli.symrate-all_s"] = (op("cli.symrate-all"), "s")
    return figures


def run_workload(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False,
                 refs: dict | None = None) -> dict:
    """Run passes for ``seconds``, gate every operation, and aggregate metrics."""
    refs = gate.load_references() if refs is None else refs
    run_worker("probe", seed, False, toy)  # untimed: byte-compiles and warms the file cache
    t_run = time.perf_counter()
    baseline = run_worker(workload, seed, False, toy) if trace else None
    passes = []
    while True:
        passes.append(run_worker(workload, seed, trace, toy))
        elapsed = time.perf_counter() - t_run
        if elapsed >= seconds or elapsed + passes[-1]["wall_s"] + passes[-1]["setup_s"] > RUN_CAP_S:
            break
    gated = passes + ([baseline] if baseline else [])
    setups = [p["setup_s"] for p in gated]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker("probe", seed, False, toy)["setup_s"])

    problems = {}
    attempted = 0
    for i, p in enumerate(gated):
        for name, obs in p["observed"].items():
            attempted += 1
            found = gate.check(name, obs, refs)
            if found:
                problems[f"pass {i} {name}"] = found

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "toy": toy,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "env": dict(passes[0]["env"], macfb_vars={k: v for k, v in os.environ.items() if k.startswith("MACFB_")}),
        "op_s": [p["op_s"] for p in gated],
        "setups_s": setups,
        "figures": workload_figures(workload, passes, len(problems)),
    }
    if not trace:
        result["metrics"] = {
            "setup_s": _median(setups),
            "wall_s": _median([p["wall_s"] for p in passes]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes]),
        }
        result["units"] = dict(END_TO_END)
        return result

    per_pass = [tracing.layer_metrics(p["spans"]) for p in passes]
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        values = [m[name] for m in per_pass]
        metrics[name] = values[0] if unit == "count" else _median(values)
    metrics["trace.overhead_s"] = _median([p["wall_s"] for p in passes]) - baseline["wall_s"]
    result["count_mismatch"] = [n for n in tracing.COUNTS if len({m[n] for m in per_pass}) > 1]
    result["absent"] = passes[0]["absent"]
    result["metrics"] = metrics
    result["units"] = dict(tracing.PER_LAYER)
    result["spans"] = passes[0]["spans"]
    return result


def report(result: dict) -> dict:
    """Print the run, write its record, and return the contract's summary object."""
    print(f"perfbench: workload={result['workload']} seed={result['seed']} trace={int(result['trace'])}"
          f" passes={result['passes']} ops={result['attempted']} failed={result['failed']}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    for name, problems in result["problems"].items():
        print(f"GATE FAIL {name}: " + "; ".join(problems))
    if result.get("absent"):
        print("absent entry points (their metrics read 0): " + ", ".join(result["absent"]))
    if result.get("count_mismatch"):
        print("WARNING counts differ between traced passes: " + ", ".join(result["count_mismatch"]))
    for name, value in result["metrics"].items():
        print(f"  {name:<44s} {value:>16.6f} {result['units'][name]}")
    print("workload figures (not bounded):")
    for name, (value, unit) in result["figures"].items():
        print(f"  {name:<44s} {value:>16.6f} {unit}")
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    record = OUT / f"run-{stem}.json"
    record.write_text(json.dumps({k: v for k, v in result.items() if k != "spans"}, indent=1))
    print(f"record: {record.relative_to(ROOT)}")
    if result["trace"]:
        spans = OUT / f"spans-{stem}.json"
        spans.write_text(json.dumps(result["spans"]))
        print(f"spans: {spans.relative_to(ROOT)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()},
    }


def make_references(seed: int) -> None:
    ops = {}
    env = None
    for workload in WORKLOADS:
        rec = run_worker(workload, seed, False, False)
        env = rec["env"]
        for name, obs in rec["observed"].items():
            ops.setdefault(gate.reference_name(name), gate.reference_of(name, obs))
    diag = ops["region.erasure-fb"]["supports"][90]
    if abs(diag - 0.7911325) > 1e-6:
        raise BenchError(f"erasure-fb diagonal support {diag} is not the computed 0.7911325")
    doc = {"generated_by": "python3 perfbench/run.py --make-references", "seed": seed, "env": env, "ops": ops}
    gate.REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {gate.REFERENCES.relative_to(ROOT)} ({len(ops)} operations)")


ENV_KEYS = ("python", "numpy", "scipy", "kernel_backend", "nproc", "macfb_vars")


def compare(path_a: str, path_b: str) -> int:
    """Print two run records side by side; exit 3 when their environments differ."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("workload", "trace", "toy"):
        if a[key] != b[key]:
            print(f"not comparable: {key} {a[key]!r} vs {b[key]!r}")
            return 3
    for name, va in a["metrics"].items():
        vb = b["metrics"].get(name)
        ratio = f"{vb / va:8.3f}x" if vb is not None and va else "       -"
        print(f"  {name:<44s} {va:>14.6f} {vb if vb is not None else float('nan'):>14.6f} {ratio}")
    differ = [k for k in ENV_KEYS if a["env"].get(k) != b["env"].get(k)]
    for k in differ:
        print(f"ENVIRONMENT DIFFERS: {k}: {a['env'].get(k)!r} vs {b['env'].get(k)!r}")
    return 3 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-references", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "macfb" / "__init__.py").is_file():
        print(f"perfbench: no macfb package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.make_references:
            make_references(args.seed)
            return 0
        if args.self_test:
            import selftest

            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        summary = report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
