"""Check the result line a benchmark run prints last against BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/run.py --workload plate384 --seed 1 --seconds 2 --trace 0 > out.jsonl
    python3 .github/scripts/check_result_line.py --trace 0 out.jsonl

The last line of the output must be strict JSON (``NaN`` and ``Infinity``
are rejected), report ``correct`` true and ``failed`` 0, and name exactly
the metrics BENCHMARK.json lists: its ``end_to_end`` list for ``--trace 0``,
its ``per_layer`` list for ``--trace 1``.  Every metric value must be a
finite number > 0.  Exits 0 if the line passes, 1 with one line per problem
on standard error if not.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def problems(text: str, trace: int, benchmark: dict) -> list[str]:
    """What is wrong with the last line of ``text``; empty if nothing is."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}, not 0")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    listed = {m["name"] for m in benchmark["per_layer" if trace else "end_to_end"]}
    for name in sorted(listed - metrics.keys()):
        found.append(f"missing metric {name}")
    for name in sorted(metrics.keys() - listed):
        found.append(f"metric {name} is not listed in BENCHMARK.json")
    for name in sorted(listed & metrics.keys()):
        entry = metrics[name]
        value = entry.get("value") if isinstance(entry, dict) else None
        if (type(value) not in (int, float) or not math.isfinite(value) or value <= 0):
            found.append(f"metric {name} is {value!r}, not a finite number > 0")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("output", nargs="?", type=Path,
                        help="the run's standard output (default: read standard input)")
    args = parser.parse_args(argv)
    text = args.output.read_text(encoding="utf-8") if args.output else sys.stdin.read()
    found = problems(text, args.trace, json.loads(BENCHMARK.read_text(encoding="utf-8")))
    for problem in found:
        print(f"check_result_line: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
