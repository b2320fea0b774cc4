"""Self-test of the benchmark at toy sizes: ``python3 perfbench/run.py --self-test``.

Checks that

- ``BENCHMARK.json`` lists exactly the metrics, units and workloads the
  benchmark emits, with well-formed names and units, and ``references.json`` covers every full-size operation;
- two traced toy runs of each workload emit every per-layer metric with its
  unit, and their counts (rows, calls, ``bounds.nelder_mead.nfev``) repeat
  exactly; an untraced run emits every end-to-end metric;
- the gate passes a second pass against references taken from a first one,
  and trips when a region support or oracle reference moves by 1e-9 (a
  symmetric rate by twice its tolerance);
- the last output line has exactly the keys the summary contract names;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import shutil
import subprocess
import sys

import gate
import run
import tracing
import workloads


def _fail(errors: list[str], msg: str) -> None:
    errors.append(msg)
    print(f"FAIL {msg}")


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def check_declarations(errors: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]):
            _fail(errors, f"malformed metric name or unit: {m['name']!r} {m['unit']!r}")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != dict(run.END_TO_END):
        _fail(errors, f"BENCHMARK.json end_to_end {declared} != emitted {dict(run.END_TO_END)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != dict(tracing.PER_LAYER):
        _fail(errors, "BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        _fail(errors, "BENCHMARK.json workloads differ from run.WORKLOADS")
    refs = gate.load_references()
    sys.path.insert(0, str(run.SRC))
    for w in run.WORKLOADS:
        for name, _ in workloads.operations(w, 0, toy=False):
            if gate.reference_name(name) not in refs:
                _fail(errors, f"references.json has no entry for {name}")


def _perturbed(refs: dict) -> list[tuple[str, dict]]:
    """(operation, references with that operation's reference moved)."""
    out = []
    for name, ref in refs.items():
        bad = copy.deepcopy(refs)
        r = bad[name]
        if "supports" in r:
            r["supports"][len(r["supports"]) // 2] += 1e-9
        elif "value" in r:
            r["value"] += 1e-9
        elif "max_violation" in r:
            r["max_violation"]["i_x1x2_y"] += 1e-9
        elif "results" in r:
            r["results"]["dbpc"]["rate"] += 2 * gate.SYMRATE_TOL["dbpc"]
        elif "n_evaluated" in r:
            r["n_evaluated"] += 1
        else:
            r["checks"] = r["checks"][1:]
        out.append((name, bad))
    return out


def check_workload(workload: str, errors: list[str]) -> None:
    first = run.run_worker(workload, 0, False, True)
    refs = {gate.reference_name(n): gate.reference_of(n, o) for n, o in first["observed"].items()}
    plain = run.run_workload(workload, 0, 0, False, toy=True, refs=refs)
    traced = [run.run_workload(workload, 0, 0, True, toy=True, refs=refs) for _ in range(2)]

    for r in [plain] + traced:
        if r["failed"]:
            _fail(errors, f"{workload}: gate failed on an unchanged program: {r['problems']}")
    if set(plain["metrics"]) != {n for n, _ in run.END_TO_END}:
        _fail(errors, f"{workload}: untraced metrics {sorted(plain['metrics'])}")
    for r in traced:
        if set(r["metrics"]) != {n for n, _ in tracing.PER_LAYER}:
            _fail(errors, f"{workload}: traced metrics differ from PER_LAYER")
        if r["absent"] or r["count_mismatch"]:
            _fail(errors, f"{workload}: absent {r['absent']}, count mismatch {r['count_mismatch']}")
    moved = [n for n in tracing.COUNTS if traced[0]["metrics"][n] != traced[1]["metrics"][n]]
    if moved:
        _fail(errors, f"{workload}: counts differ between traced runs: {moved}")

    for name, bad in _perturbed(refs):
        if not any(gate.check(n, o, bad) for n, o in first["observed"].items()):
            _fail(errors, f"{workload}: gate did not trip on a perturbed {name} reference")

    with contextlib.redirect_stdout(io.StringIO()):
        summary = json.loads(json.dumps(run.report(plain)))
    if set(summary) != {"correct", "attempted", "failed", "metrics"} or not summary["correct"]:
        _fail(errors, f"{workload}: bad summary {summary}")
    print(f"ok {workload}: {len(refs)} references, nfev {traced[0]['metrics']['bounds.nelder_mead.nfev']:.0f},"
          f" input rows {traced[0]['metrics']['kernels.input_stats.rows']:.0f},"
          f" cutset rows {traced[0]['metrics']['kernels.cutset_stats.rows']:.0f}")


def check_bare_directory(errors: list[str]) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        _fail(errors, f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    errors: list[str] = []
    check_declarations(errors)
    for workload in run.WORKLOADS:
        check_workload(workload, errors)
    check_bare_directory(errors)
    print("self-test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0
