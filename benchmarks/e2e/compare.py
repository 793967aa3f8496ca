"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both values with the
quartiles of their repetitions, the ratio B/A with its base, the bound,
and a verdict:

``ok``          B is no worse than A by more than the bound;
``regressed``   B is worse than A by more than the bound;
``unresolved``  the repetitions of A or of B spread wider than the
                bound, so the pair cannot tell a change from noise.

Exit status is non-zero on any regression, on any rise of
``failed_share``, on a failed correctness gate, and — when both files
were measured with the same seed and counts — on any difference in
``state_digest`` or an exact count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Optional

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worsening(base: float, other: float, direction: str) -> float:
    """By what share of ``base`` the other value is worse (negative:
    better)."""
    if not base:
        return 0.0
    change = (other - base) / base
    return -change if direction == "higher" else change


def verdict_of(base: dict, other: dict, direction: str, bound: float) -> str:
    if max(spread(base["repetitions"]), spread(other["repetitions"])) > bound:
        return "unresolved"
    if worsening(base["value"], other["value"], direction) > bound:
        return "regressed"
    return "ok"


def _metric(result: dict, name: str) -> Optional[dict]:
    """A metric's value and per-repetition values; None where the
    workload does not report it (recovery_s outside tpcc-durable)."""
    if name not in result["metrics"]:
        return None
    return {"value": result["metrics"][name], "repetitions": result["repetition_values"][name]}


def _cell(metric: dict) -> str:
    q1, q2, q3 = quartiles(metric["repetitions"])
    return f"{metric['value']:>11.4f} [{q1:.4g} {q2:.4g} {q3:.4g}]"


def compare(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """Report lines, and the reasons to exit non-zero."""
    lines = [
        f"{'workload':<15} {'metric':<17} {'A [q1 med q3 of repetitions]':<38} "
        f"{'B [q1 med q3 of repetitions]':<38} {'B/A':>7} {'bound':>6} verdict"
    ]
    failures: list[str] = []
    unresolved = 0
    env_a, env_b = a["environment"], b["environment"]
    same_inputs = (env_a["seed"], env_a["scale"]) == (env_b["seed"], env_b["scale"])
    gated = {name: (spec["better"], spec["bound"]) for name, spec in a["bounds"].items()}
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"].get(workload)
        if result_b is None:
            failures.append(f"{workload}: missing from B")
            continue
        for name, (direction, bound) in gated.items():
            metric_a, metric_b = _metric(result_a, name), _metric(result_b, name)
            if metric_a is None or metric_b is None:
                continue
            verdict = verdict_of(metric_a, metric_b, direction, bound)
            ratio = metric_b["value"] / metric_a["value"] if metric_a["value"] else float("nan")
            lines.append(
                f"{workload:<15} {name:<17} {_cell(metric_a):<38} {_cell(metric_b):<38} "
                f"{ratio:>7.3f} {bound:>6.2f} {verdict}"
            )
            if verdict == "regressed":
                failures.append(
                    f"{workload}: {name} regressed: B/A = {ratio:.3f} "
                    f"(base A = {metric_a['value']:.4f}), bound {bound:.2f}"
                )
            unresolved += verdict == "unresolved"
        if result_b["failed_share"] > result_a["failed_share"]:
            failures.append(
                f"{workload}: failed_share rose from {result_a['failed_share']:.6f} "
                f"to {result_b['failed_share']:.6f}"
            )
        for side, result in (("A", result_a), ("B", result_b)):
            failures += [f"{side}: {problem}" for problem in result["problems"]]
        if same_inputs:
            if result_a["state_digest"] != result_b["state_digest"]:
                failures.append(f"{workload}: state_digest differs between A and B")
            if result_a["counts"] != result_b["counts"]:
                failures.append(f"{workload}: exact counts differ between A and B")
    lines.append(
        f"inputs {'identical (digests and counts compared)' if same_inputs else 'differ'}; "
        f"{unresolved} unresolved row(s); {len(failures)} failure(s)"
    )
    return lines, failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="base result file")
    parser.add_argument("b", type=Path, help="result file to judge against the base")
    args = parser.parse_args(argv)
    lines, failures = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
