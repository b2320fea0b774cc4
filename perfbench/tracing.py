"""Outside-in tracing: wrap the public entry points of each macfb layer.

A :class:`Tracer` replaces module attributes (``macfb._kernels.input_stats``,
``macfb.bounds.pareto_filter``, ...) with wrappers that record one span per
call: name, start, end, parent span and a few counts (rows, function
evaluations).  Nothing inside ``src/`` changes; callers that look the name up
on the module at call time go through the wrapper.  Spans stay in memory and
are written out by the caller when the pass ends.

:func:`layer_metrics` turns the spans of one pass into the per-layer metrics
listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import time

REGIONS = ("cutset", "dbpc1", "dbpc2", "dbpc", "cover-leung", "erasure-fb", "erasure-nofb")
SUITES = ("lemmas", "equivalence", "characterization")
CLI_COMMANDS = (
    "symrate-all",
    "region-erasure-nofb",
    "verify-lemmas",
    "verify-equivalence",
    "verify-characterization",
)


def _rows(args, kwargs, out):
    return {"rows": int(len(args[0]) if getattr(args[0], "ndim", 2) > 1 else 1)}


def _nfev(args, kwargs, out):
    return {"nfev": int(out.nfev)}


def _region(args, kwargs, out):
    return {"region": args[0].which.value}


def _lattice_rows(args, kwargs, out):
    return {"rows": int(out.n_evaluated)}


def _suite(args, kwargs, out):
    return {"suite": args[0]}


#: (module, attribute, span name, attrs of a call).  A module appears once per
#: namespace that calls the function by a bare name (``from .x import f``).
WRAPS = (
    ("macfb._kernels", "input_stats", "kernels.input_stats", _rows),
    ("macfb._kernels", "cutset_stats", "kernels.cutset_stats", _rows),
    ("macfb.bounds", "minimize", "bounds.nelder_mead", _nfev),
    ("macfb.bounds", "region_boundary", "bounds.region_boundary", _region),
    ("macfb.cli", "region_boundary", "bounds.region_boundary", _region),
    ("macfb.bounds", "pareto_filter", "geometry.pareto_filter", _rows),
    ("macfb.bounds", "support_value", "geometry.support_value", None),
    ("macfb.geometry", "support_value", "geometry.support_value", None),
    ("macfb.symrate", "solve_db_symmetric", "symrate.solve_db_symmetric", None),
    ("macfb.symrate", "solve_cl_symmetric", "symrate.solve_cl_symmetric", None),
    ("macfb.symrate", "cutset_symmetric_argmax", "symrate.cutset_symmetric_argmax", None),
    ("macfb.oracle", "verify_characterization", "oracle.verify_characterization", _lattice_rows),
    ("macfb.oracle", "oracle_max", "oracle.oracle_max", _lattice_rows),
    ("macfb.verify", "run_suite", "verify.run_suite", _suite),
    ("macfb.channel", "info_quantities", "channel.info_quantities", None),
    ("macfb.verify", "info_quantities", "channel.info_quantities", None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def begin(self, name: str, **attrs) -> dict:
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else -1,
            "attrs": attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, attrs_of=None) -> None:
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end(span)
            if attrs_of is not None:
                span["attrs"].update(attrs_of(args, kwargs, out))
            return out

        setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every entry point in ``WRAPS``; record the ones that are gone."""
        for mod_name, attr, name, attrs_of in WRAPS:
            module = importlib.import_module(mod_name)
            if hasattr(module, attr):
                self.wrap(module, attr, name, attrs_of)
            else:
                self.absent.append(f"{mod_name}.{attr}")
        return self

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for s in spans:
            s = dict(s)
            s["parent"] = parent if s["parent"] < 0 else s["parent"] + base
            self.spans.append(s)


#: every per-layer metric, in output order, with its unit
PER_LAYER = (
    [
        ("kernels.input_stats.calls", "count"),
        ("kernels.input_stats.rows", "count"),
        ("kernels.input_stats.s", "s"),
        ("kernels.input_stats.rows_per_s", "rows/s"),
        ("kernels.cutset_stats.calls", "count"),
        ("kernels.cutset_stats.rows", "count"),
        ("kernels.cutset_stats.s", "s"),
        ("kernels.cutset_stats.rows_per_call", "rows/call"),
        ("bounds.nelder_mead.calls", "count"),
        ("bounds.nelder_mead.nfev", "count"),
        ("bounds.nelder_mead.s", "s"),
        ("bounds.self_s", "s"),
    ]
    + [(f"bounds.region_boundary.{r}.s", "s") for r in REGIONS]
    + [
        ("geometry.pareto_filter.calls", "count"),
        ("geometry.pareto_filter.rows_in", "count"),
        ("geometry.pareto_filter.s", "s"),
        ("geometry.support_value.calls", "count"),
        ("geometry.support_value.s", "s"),
        ("symrate.solve_db_symmetric.s", "s"),
        ("symrate.solve_cl_symmetric.s", "s"),
        ("symrate.cutset_symmetric_argmax.s", "s"),
        ("oracle.verify_characterization.s", "s"),
        ("oracle.oracle_max.s", "s"),
        ("oracle.rows", "count"),
        ("oracle.self_s", "s"),
    ]
    + [(f"verify.run_suite.{s}.s", "s") for s in SUITES]
    + [
        ("channel.info_quantities.calls", "count"),
        ("channel.info_quantities.s", "s"),
    ]
    + [(f"cli.main.{c}.s", "s") for c in CLI_COMMANDS]
    + [(f"cli.process.{c}.s", "s") for c in CLI_COMMANDS]
    + [
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)

#: metrics that must repeat exactly between two traced passes of one seed
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _self_time(spans: list[dict], children: list[list[int]], root: int, other_layers: tuple[str, ...]) -> float:
    """Duration of ``root`` minus its outermost descendants in ``other_layers``."""
    covered = 0.0
    todo = list(children[root])
    while todo:
        i = todo.pop()
        if spans[i]["name"].startswith(other_layers):
            covered += _dur(spans[i])
        else:
            todo.extend(children[i])
    return _dur(spans[root]) - covered


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass (every name in ``PER_LAYER`` but the overhead)."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    for i, s in enumerate(spans):
        name, attrs, d = s["name"], s["attrs"], _dur(s)
        if f"{name}.calls" in m:
            m[f"{name}.calls"] += 1
        if f"{name}.s" in m:
            m[f"{name}.s"] += d
        if name.startswith("kernels."):
            m[f"{name}.rows"] += attrs.get("rows", 0)
        elif name == "bounds.nelder_mead":
            m["bounds.nelder_mead.nfev"] += attrs.get("nfev", 0)
        elif name == "bounds.region_boundary":
            m[f"bounds.region_boundary.{attrs['region']}.s"] += d
            m["bounds.self_s"] += _self_time(spans, children, i, ("kernels.", "geometry."))
        elif name == "geometry.pareto_filter":
            m["geometry.pareto_filter.rows_in"] += attrs.get("rows", 0)
        elif name.startswith("oracle."):
            m["oracle.rows"] += attrs.get("rows", 0)
            m["oracle.self_s"] += _self_time(spans, children, i, ("kernels.",))
        elif name == "verify.run_suite" and f"verify.run_suite.{attrs['suite']}.s" in m:
            m[f"verify.run_suite.{attrs['suite']}.s"] += d
        elif name in ("cli.main", "cli.process"):
            m[f"{name}.{attrs['command']}.s"] += d
    k = m["kernels.input_stats.s"]
    m["kernels.input_stats.rows_per_s"] = m["kernels.input_stats.rows"] / k if k > 0 else 0.0
    c = m["kernels.cutset_stats.calls"]
    m["kernels.cutset_stats.rows_per_call"] = m["kernels.cutset_stats.rows"] / c if c > 0 else 0.0
    m["trace.spans"] = float(len(spans))
    return m
