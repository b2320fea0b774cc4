"""Correctness gate: every operation's observed result against frozen references.

``references.json`` is generated once from trusted code by
``python3 perfbench/run.py --make-references`` and committed.  It holds each
region's support at the 181 sweep directions, the symmetric rates with their
witnesses, the ``oracle_max`` values, the oracle cap-violation and identity
maxima, and the check names of each CLI verification suite.

An operation fails when:

- region: a support is below its reference by more than 1e-12 (a better
  refinement may raise a support), or above it by more than 1e-3 (a gross
  error; the refinement's remaining gain is far smaller);
- symrate: a rate or witness entry is off by more than 1e-5 (dbpc), 1e-4
  (cover-leung) or 1e-3 (cutset); the cut-set argmax joint must reproduce its
  rate under an independent evaluation;
- oracle: a value or maximum moves by more than 1e-12, a lattice size
  changes, a cap violation exceeds 1e-10 or an identity violation 1e-12;
- cli: the exit code is nonzero, or the parsed output fails the checks above.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"

SUPPORT_DROP_TOL = 1e-12
SUPPORT_RISE_TOL = 1e-3
SYMRATE_TOL = {"dbpc": 1e-5, "cover-leung": 1e-4, "cutset": 1e-3}
ORACLE_TOL = 1e-12
CAP_TOL = 1e-10
IDENTITY_TOL = 1e-12
IDENTITIES = ("half_h_x1", "half_h_x2")

def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())["ops"]


def reference_name(name: str) -> str:
    """The reference an operation is checked against (the CLI's region shares the library's)."""
    return "region.erasure-nofb" if name == "cli.region-erasure-nofb" else name


def reference_of(name: str, obs: dict) -> dict:
    """The part of an observation that is frozen as a reference (none of it seeded)."""
    if name == "oracle.verify_characterization.t3":
        return {"n_evaluated": obs["n_evaluated"]}
    if name.startswith("cli.verify"):
        return {"checks": obs["checks"]}
    if name == "cli.symrate-all":
        return {"results": obs["results"]}
    if name == "cli.region-erasure-nofb":
        return {"supports": obs["supports"]}
    return obs


def _supports(obs, ref) -> list[str]:
    got, want = np.asarray(obs["supports"]), np.asarray(ref["supports"])
    if got.shape != want.shape:
        return [f"{got.size} supports, expected {want.size}"]
    problems = []
    drop = want - got
    if drop.max() > SUPPORT_DROP_TOL:
        i = int(np.argmax(drop))
        problems.append(f"support at direction {i} dropped by {drop[i]:.3e}")
    rise = -drop
    if rise.max() > SUPPORT_RISE_TOL:
        i = int(np.argmax(rise))
        problems.append(f"support at direction {i} rose by {rise[i]:.3e}")
    return problems


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    err = abs(float(got) - float(want))
    return [] if err <= tol else [f"{label} = {got!r}, reference {want!r} (|err| {err:.3e} > {tol:.0e})"]


def cutset_symmetric_value(joint) -> float:
    """min(I(X1;Y|X2), I(X2;Y|X1), I(X1,X2;Y)/2) of the noisy adder, by enumeration."""
    w = np.asarray(joint, dtype=float).reshape(2, 2)
    law = np.zeros((2, 2, 4))
    for x1 in range(2):
        for x2 in range(2):
            law[x1, x2, x1 + x2] += 0.5 * w[x1, x2]
            law[x1, x2, x1 + x2 + 1] += 0.5 * w[x1, x2]

    def h(t):
        t = t[t > 0]
        return float(-(t * np.log2(t)).sum())

    h_y_given_x1x2 = h(law) - h(w)
    i1 = h(law.sum(axis=0)) - h(w.sum(axis=0)) - h_y_given_x1x2
    i2 = h(law.sum(axis=1)) - h(w.sum(axis=1)) - h_y_given_x1x2
    isum = h(law.sum(axis=(0, 1))) - h_y_given_x1x2
    return min(i1, i2, 0.5 * isum)


def _symrate(results: dict, ref: dict) -> list[str]:
    problems = []
    for name, tol in SYMRATE_TOL.items():
        if name not in results:
            problems.append(f"symrate {name} missing")
            continue
        got, want = results[name], ref[name]
        problems += _close(f"{name} rate", got["rate"], want["rate"], tol)
        if name == "cutset":
            joint = np.asarray(got["argmax_joint_x1x2"], dtype=float)
            if joint.shape != (4,) or joint.min() < -1e-12 or abs(joint.sum() - 1.0) > 1e-9:
                problems.append(f"cutset argmax is not a 4-atom distribution: {joint.tolist()}")
            else:
                problems += _close("cutset rate at its argmax", cutset_symmetric_value(joint), got["rate"], 1e-9)
            continue
        for key in ("u1", "u2", "u"):
            problems += _close(f"{name} {key}", got[key], want[key], tol)
        for key in ("p_t", "q1", "q2"):
            for i, (g, w) in enumerate(zip(got["witness"][key], want["witness"][key])):
                problems += _close(f"{name} witness {key}[{i}]", g, w, tol)
    return problems


def _characterization(obs: dict, ref: dict, seeded: bool) -> list[str]:
    problems = []
    if obs["n_evaluated"] != ref["n_evaluated"]:
        problems.append(f"{obs['n_evaluated']} lattice rows, expected {ref['n_evaluated']}")
    for key, v in obs["max_violation"].items():
        tol = IDENTITY_TOL if key in IDENTITIES else CAP_TOL
        if v > tol:
            problems.append(f"{key} violation {v:.3e} > {tol:.0e}")
        if not seeded:
            problems += _close(f"max violation {key}", v, ref["max_violation"][key], ORACLE_TOL)
    return problems


def _verify_suite(obs: dict, ref: dict) -> list[str]:
    problems = []
    if obs["checks"] != ref["checks"]:
        problems.append(f"checks {obs['checks']} differ from {ref['checks']}")
    failed = [c for c, s in zip(obs["checks"], obs["check_status"]) if s != "pass"]
    if failed:
        problems.append(f"failed checks: {failed}")
    if obs["summary"] != "all checks passed":
        problems.append(f"summary {obs['summary']!r}")
    return problems


def check(name: str, obs: dict, refs: dict) -> list[str]:
    """Problems with one operation's observed result; empty means it passed."""
    ref_name = reference_name(name)
    if ref_name not in refs:
        return [f"no reference for {ref_name}"]
    ref = refs[ref_name]
    if name.startswith("cli."):
        if obs["returncode"] != 0:
            return [f"exit code {obs['returncode']}: {obs['stderr'].strip()[-300:]}"]
        if "parse_error" in obs:
            return [f"unparsable output: {obs['parse_error']}"]
        if name == "cli.symrate-all":
            return _symrate(obs["results"], ref["results"])
        if name == "cli.region-erasure-nofb":
            return _supports(obs, ref)
        return _verify_suite(obs, ref)
    if name.startswith("region."):
        return _supports(obs, ref)
    if name.startswith("oracle.verify_characterization"):
        # the t_card 3 lattice is drawn from the seed: only its size is frozen
        return _characterization(obs, ref, seeded=name.endswith(".t3"))
    if name.startswith("oracle.oracle_max"):
        problems = _close("value", obs["value"], ref["value"], ORACLE_TOL)
        if obs["n_evaluated"] != ref["n_evaluated"]:
            problems.append(f"{obs['n_evaluated']} lattice rows, expected {ref['n_evaluated']}")
        return problems
    return [f"unknown operation {name}"]
