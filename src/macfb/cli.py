"""Command-line front end.

Subcommands
-----------
region   emit a region boundary as CSV (``r1,r2`` header) or a JSON record
symrate  solve the symmetric-rate problems and print rate / parameters
verify   run a named verification suite; exit 1 on any violation

All numeric output uses 6 decimals in human mode and full float precision in
CSV/JSON, so machine encodings of the same run agree digit for digit.  Given
the same arguments and seed, every command is byte-for-byte reproducible.
Exit codes: 0 success, 1 verification failure or internal error, 2 usage
(including a bad ``MACFB_BUDGET`` or a request larger than the budget).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, symrate, verify
from ._budget import BudgetExceededError, InvalidBudgetError, env_budget
from .bounds import Region, RegionSpec, region_boundary

SCHEMA_VERSION = "1.0"

_REGION_NAMES = [r.value for r in Region]
#: the symmetric rates ``symrate`` solves, in the order ``symrate all`` prints them
_SYMRATE_NAMES = ("dbpc", "cover-leung", "cutset")


def _int_at_least(lowest: int):
    """argparse type: an integer no smaller than ``lowest``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    return parse


def _record(command: str, parameters: dict, results) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
    }


def _print_json(record: dict, out) -> None:
    json.dump(record, out, indent=2)
    out.write("\n")


def _cmd_region(args, out) -> int:
    spec = RegionSpec(Region(args.which), args.grid_n)
    curve = region_boundary(spec)
    if args.format == "csv":
        out.write("r1,r2\n")
        for r1, r2 in curve.points:
            out.write(f"{r1:.17g},{r2:.17g}\n")
    else:
        record = _record(
            "region",
            {"which": args.which, "grid_n": args.grid_n},
            {"label": curve.label, "points": [[float(a), float(b)] for a, b in curve.points]},
        )
        _print_json(record, out)
    return 0


def _symrate_payload(which: str) -> dict:
    if which == "dbpc":
        sol = symrate.solve_db_symmetric()
    elif which == "cover-leung":
        sol = symrate.solve_cl_symmetric()
    else:
        value, joint = symrate.cutset_symmetric_argmax()
        return {"rate": value, "argmax_joint_x1x2": [float(x) for x in joint]}
    return {
        "rate": sol.rate,
        "u1": sol.u1_star,
        "u2": sol.u2_star,
        "u": sol.u_star,
        "witness": sol.witness.to_dict(),
    }


def _cmd_symrate(args, out) -> int:
    names = _SYMRATE_NAMES if args.which == "all" else [args.which]
    results = {name: _symrate_payload(name) for name in names}
    if args.format == "json":
        _print_json(_record("symrate", {"which": args.which}, results), out)
        return 0
    for name in names:
        payload = results[name]
        out.write(f"{name}: rate = {payload['rate']:.6f}\n")
        if "u1" in payload:
            out.write(
                f"  u1 = {payload['u1']:.6f}  u2 = {payload['u2']:.6f}  u = {payload['u']:.6f}\n"
            )
            w = payload["witness"]
            out.write(
                f"  witness: p_t = ({w['p_t'][0]:.6f}, {w['p_t'][1]:.6f})"
                f"  q1 = ({w['q1'][0]:.6f}, {w['q1'][1]:.6f})"
                f"  q2 = ({w['q2'][0]:.6f}, {w['q2'][1]:.6f})\n"
            )
        else:
            joint = payload["argmax_joint_x1x2"]
            out.write("  argmax p(x1,x2) = (" + ", ".join(f"{x:.6f}" for x in joint) + ")\n")
    return 0


#: the ``verify`` option behind each keyword of :func:`macfb.verify.run_suite`
_VERIFY_FLAGS = {"samples": "--samples", "t_cards": "--t-card", "steps": "--steps"}


def _cmd_verify(args, out) -> int:
    t_cards = tuple(args.t_card) if args.t_card else None
    options = {"seed": args.seed, "samples": args.samples, "t_cards": t_cards, "steps": args.steps}
    kwargs = {k: v for k, v in options.items() if v is not None}
    try:
        report = verify.run_suite(args.suite, **kwargs)
    except verify.SuiteOptionError as exc:
        print(f"macfb verify: error: {_VERIFY_FLAGS[exc.option]} is not an option of suite {exc.suite}", file=sys.stderr)
        return 2
    if args.format == "json":
        _print_json(_record("verify", {"suite": args.suite, **kwargs}, report), out)
    else:
        for check in report["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            out.write(
                f"[{status}] {check['name']}: samples = {check['samples']},"
                f" max violation = {check['max_violation']:.3e}"
                f" (tolerance {check['tolerance']:.3e})\n"
            )
        out.write(("all checks passed" if report["passed"] else "VERIFICATION FAILED") + "\n")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macfb",
        description="Feedback-capacity bounds for binary additive multiple-access channels.",
        epilog="Set MACFB_BUDGET to a positive integer to override the evaluation budget"
        " (default 1e8) that --grid-n and --samples are checked against.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="emit a region boundary curve")
    p_region.add_argument("which", choices=_REGION_NAMES)
    p_region.add_argument(
        "--grid-n",
        type=_int_at_least(2),
        default=201,
        help="u1 samples per face of cover-leung and erasure-fb; no other region reads it",
    )
    p_region.add_argument("--format", choices=["csv", "json"], default="csv")
    p_region.set_defaults(func=_cmd_region)

    p_sym = sub.add_parser("symrate", help="solve a symmetric-rate problem")
    p_sym.add_argument("which", choices=[*_SYMRATE_NAMES, "all"])
    p_sym.add_argument("--format", choices=["text", "json"], default="text")
    p_sym.set_defaults(func=_cmd_symrate)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=[*verify.SUITES, "all"])
    p_ver.add_argument("--seed", type=_int_at_least(0), default=verify.DEFAULT_SEED)
    p_ver.add_argument("--samples", type=_int_at_least(1), default=None)
    p_ver.add_argument("--t-card", type=int, action="append", choices=[1, 2, 3], default=None)
    p_ver.add_argument("--steps", type=_int_at_least(2), default=None)
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t_cards = getattr(args, "t_card", None) or []
    if len(set(t_cards)) < len(t_cards):
        parser.error(f"argument --t-card: a value is given more than once: {t_cards}")
    try:
        env_budget()
    except InvalidBudgetError as exc:
        parser.error(str(exc))
    try:
        return args.func(args, sys.stdout)
    except BrokenPipeError:
        return 1
    except BudgetExceededError as exc:
        print(f"macfb: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure: report, exit 1
        print(f"macfb: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
