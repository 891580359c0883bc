"""Correctness gate of the benchmark, run outside every timed interval.

Each check returns a list of problems; an empty list is a pass.  Efficiency
values are compared with ``oracle.py``, which shares no code with the
package, so a fast path that drifts from the definition fails here rather
than passing as a speed-up.
"""

from __future__ import annotations

import json
import re

import numpy as np

import arcdesign
from arcdesign.reference import EXAMPLE_12x8, EXAMPLE_24x16, load_reference_design

from oracle import efficiencies

#: Reported values carry full float precision; the oracle agrees far below this.
ORACLE_TOL = 1e-9
#: The formula and direct routes must agree this closely (the package's spine).
ROUTES_TOL = 1e-8
#: Published summaries are printed to four decimals.
PUBLISHED_TOL = 5e-5
#: ``generate`` prints its objective with six decimals.
PRINTED_TOL = 5e-7

_SUMMARY_RE = re.compile(r"objective (\S+), eAugFormula (\S+)\)")


def _close(name: str, got, want: float, tol: float) -> list[str]:
    if got is None or not abs(float(got) - want) <= tol:
        return [f"{name} = {got}, expected {want:.12g} within {tol:g}"]
    return []


# ---------------------------------------------------------------------------
# per request


def check_generate(out_dir, stdout: str, v: int, s: int, k: int, objective: str):
    """Check one ``generate`` request; returns (problems, eAugFormula, artifacts)."""
    artifacts = {
        name: (out_dir / name).read_bytes()
        for name in ("contraction.txt", "augmented.txt", "report.json")
    }
    c = arcdesign.parse_design(artifacts["contraction.txt"].decode())
    a = arcdesign.parse_design(artifacts["augmented.txt"].decode())
    if not isinstance(c, arcdesign.ContractionDesign) or (c.v, c.k, c.s) != (v, k, s):
        return [f"contraction.txt holds {c!r}, expected v={v} s={s} k={k}"], None, artifacts
    if not isinstance(a, arcdesign.AugmentedDesign) or (a.v, a.k, a.s) != (v, k, s):
        return [f"augmented.txt holds {a!r}, expected v={v} s={s} k={k}"], None, artifacts
    problems = list(arcdesign.validate_contraction(c).violations)
    problems += arcdesign.validate_augmented(a, c.r).violations
    if problems:
        return problems, None, artifacts
    if arcdesign.format_design(arcdesign.augment(c)).encode() != artifacts["augmented.txt"]:
        problems.append("augmented.txt differs from format_design(augment(contraction))")

    e_con, e_aug = efficiencies(np.asarray(c.cells), v)
    report = json.loads(artifacts["report.json"])
    problems += _close("report eCon", report.get("eCon"), e_con, ORACLE_TOL)
    problems += _close("report eAugFormula", report.get("eAugFormula"), e_aug, ORACLE_TOL)
    summary = _SUMMARY_RE.search(stdout)
    if summary is None:
        problems.append(f"no objective in the output: {stdout!r}")
    else:
        target = e_con if objective == "e_con" else e_aug
        problems += _close("printed objective", summary.group(1), target, PRINTED_TOL)
    return problems, report.get("eAugFormula"), artifacts


def check_evaluate(stdout: str, expected_e_aug: float):
    """Check one ``evaluate --direct --format json`` request; returns (problems, eAugFormula)."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON ({exc}): {stdout[:200]!r}"], None
    got = report.get("eAugFormula")
    problems = _close("eAugFormula", got, expected_e_aug, ORACLE_TOL)
    if report.get("eAugDirect") is None or got is None:
        problems.append("eAugDirect missing from the report")
    else:
        problems += _close("eAugDirect", report["eAugDirect"], got, ROUTES_TOL)
    return problems, got


# ---------------------------------------------------------------------------
# once per run


def check_direct(contraction_text: bytes, e_aug_formula: float) -> list[str]:
    """The direct route on a produced design agrees with its reported formula value."""
    c = arcdesign.parse_design(contraction_text.decode())
    direct = arcdesign.e_aug_direct(arcdesign.augment(c))
    return _close("e_aug_direct of the first design", direct, e_aug_formula, ROUTES_TOL)


def check_references() -> list[str]:
    """The bundled reference contractions reproduce their published summaries."""
    problems = []
    for name, published in (("contraction_24x16_k5", EXAMPLE_24x16),
                            ("contraction_12x8_k3", EXAMPLE_12x8)):
        report = arcdesign.full_report(load_reference_design(name))
        for key, got in (("c_bar_v", report.c_bar_v), ("c_bar_s", report.c_bar_s),
                         ("e_aug", report.e_aug_formula)):
            problems += _close(f"{name} {key}", got, published[key], PUBLISHED_TOL)
    return problems


def check_replay(full, replays) -> list[str]:
    """Reducing single-restart replays reproduces the full multi-restart call.

    ``replays[i]`` is ``search_contraction`` with ``restarts=1`` and seed
    ``seed ^ i``; the reduction is the package's documented one: highest
    objective, ties to the lowest restart index.
    """
    best_i, best = min(enumerate(replays), key=lambda item: (-item[1].objective, item[0]))
    problems = []
    if best.best != full.best:
        problems.append(f"replayed restart {best_i} gives another design than the full call")
    if best.objective != full.objective:
        problems.append(f"replayed objective {best.objective!r} != full {full.objective!r}")
    if best_i != full.restart_of_best or best.trace != full.trace:
        problems.append(f"replayed best restart {best_i} or its trace differ from the full call")
    return problems
