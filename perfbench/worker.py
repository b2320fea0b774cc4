"""One benchmark pass in a fresh interpreter.

Usage: worker.py WORKLOAD SEED TRACE TOY OUT

Prints ``ready`` as soon as ``import macfb`` returns, so the parent can time
set-up from process start.  WORKLOAD ``probe`` stops there.  Otherwise the
worker runs the workload's operations once, times the pass, and writes the
pass record (timings, peak RSS, what the gate observes, the environment and,
when TRACE is 1, the spans) to OUT as JSON.
"""

import sys
import time


def environment(macfb) -> dict:
    import os
    import platform

    import numpy as np

    scipy = sys.modules.get("scipy")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", None),
        "macfb": getattr(macfb, "__version__", None),
        "kernel_backend": getattr(macfb, "KERNEL_BACKEND", None),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    import macfb

    print("ready", flush=True)
    workload, seed, trace, toy, out = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1", sys.argv[5]
    if workload == "probe":
        return 0

    import json
    import os
    import resource

    import workloads
    from tracing import Tracer

    tracer = Tracer().install() if trace else None
    ops = workloads.operations(workload, seed, toy, tracer)
    results, op_s = [], {}
    t0 = time.perf_counter()
    for name, run in ops:
        t = time.perf_counter()
        results.append(run())
        op_s[name] = time.perf_counter() - t
    wall = time.perf_counter() - t0
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "wall_s": wall,
        "peak_rss_mb": rss_kb / 1024.0,
        "op_s": op_s,
        "observed": {name: workloads.observe(name, r) for (name, _), r in zip(ops, results)},
        "env": environment(macfb),
        "macfb_path": os.path.dirname(macfb.__file__),
        "spans": tracer.spans if tracer else [],
        "absent": tracer.absent if tracer else [],
    }
    with open(out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
