"""Compare two sets of runs: ``python -m benchmarks.e2e.compare A.json B.json``.

``A`` holds the parent's run records and ``B`` the change's, as written
by ``--out`` (run them with identical settings and seeds, e.g.
``python -m benchmarks.e2e --repeat 10 --out A.json``).  For every
workload and end-to-end metric it prints both medians and quartiles and
the change against the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` — either side's spread (IQR over median) is wider than
  the bound, unless every run of B reads better than every run of A;
* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``gain`` — B wins at least 9 of every 10 runs paired by seed (ties
  count for neither side; at least 10 pairs), and the medians differ by
  more than A's own IQR;
* ``same`` — none of the above.

Simulated outputs (per-trial stats, farm digests) must be identical for
every output both sides produced.  The exit status is 1 on a regression,
on any output that differs, or on a run that failed its checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from benchmarks.e2e import REPO_ROOT
from benchmarks.e2e.bench import summarize

#: share of paired runs the change must win to claim a gain
GAIN_WIN_SHARE = 0.9

#: fewest pairs on which a gain may be claimed
GAIN_MIN_PAIRS = 10


def load_runs(path: Path) -> list[dict[str, Any]]:
    return json.loads(path.read_text())["runs"]


def load_bounds() -> dict[str, dict[str, Any]]:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    stats = summarize(values)
    return stats["p25"], stats["median"], stats["p75"]


def verdict(
    a: dict[int, float], b: dict[int, float], better: str, bound: float
) -> tuple[str, float]:
    """The verdict for one workload x metric, and B's relative gain.

    ``a`` and ``b`` map run seed -> metric value.  The gain is positive
    when B is better, as a share of A's median.
    """
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_median, a_q3 = quartiles(list(a.values()))
    b_q1, b_median, b_q3 = quartiles(list(b.values()))
    gain = sign * (b_median - a_median) / a_median
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    b_always_better = min(sign * v for v in b.values()) > max(
        sign * v for v in a.values()
    )
    if spread > bound and not b_always_better:
        return "unresolved", gain
    if gain < -bound:
        return "REGRESSION", gain
    pairs = [(a[seed], b[seed]) for seed in sorted(a.keys() & b.keys())]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (
        len(pairs) >= GAIN_MIN_PAIRS
        and wins >= GAIN_WIN_SHARE * len(pairs)
        and sign * (b_median - a_median) > a_q3 - a_q1
    ):
        return "gain", gain
    return "same", gain


def _untraced_by_workload(
    runs: list[dict[str, Any]],
) -> dict[str, list[dict[str, Any]]]:
    grouped: dict[str, list[dict[str, Any]]] = {}
    for run in runs:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def output_differences(
    a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]]
) -> tuple[int, list[str]]:
    """How many outputs both sides produced, and those that differ."""
    a_outputs: dict[tuple[str, str], Any] = {}
    for run in a_runs:
        for key, value in run["records"].items():
            a_outputs.setdefault((run["workload"], key), value)
    compared, differences = 0, []
    for run in b_runs:
        for key, value in run["records"].items():
            if (run["workload"], key) not in a_outputs:
                continue
            theirs = a_outputs[run["workload"], key]
            compared += 1
            if theirs != value:
                differences.append(
                    f"{run['workload']} {key}: A {theirs} != B {value}"
                )
    return compared, differences


def compare(a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]]) -> int:
    bounds = load_bounds()
    status = 0
    a_by, b_by = _untraced_by_workload(a_runs), _untraced_by_workload(b_runs)
    print(
        f"{'workload':<13} {'metric':<12} {'A median [q1 .. q3]':>36} "
        f"{'B median [q1 .. q3]':>36} {'gain':>8} {'bound':>6}  verdict"
    )
    for workload in sorted(a_by.keys() & b_by.keys()):
        for metric, spec in bounds.items():
            a = {run["seed"]: run["metrics"][metric]["value"] for run in a_by[workload]}
            b = {run["seed"]: run["metrics"][metric]["value"] for run in b_by[workload]}
            result, gain = verdict(a, b, spec["better"], spec["bound"])
            if result == "REGRESSION":
                status = 1
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(list(values.values()))
                cells.append(f"{median:.5g} [{q1:.5g} .. {q3:.5g}] n={len(values)}")
            print(
                f"{workload:<13} {metric:<12} {cells[0]:>36} {cells[1]:>36} "
                f"{gain:>+8.1%} {spec['bound']:>6.0%}  {result}"
            )
    missing = sorted(a_by.keys() ^ b_by.keys())
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}")

    failed = [
        f"{run['workload']} seed {run['seed']}: {failure}"
        for run in b_runs
        for failure in run["failures"]
    ]
    compared, differences = output_differences(a_runs, b_runs)
    print(f"simulated outputs: {compared} compared, {len(differences)} differ")
    for line in differences + failed:
        print(f"  {line}")
    if differences or failed:
        status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e.compare",
        description="parent (A) vs change (B) over end-to-end runs",
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    return compare(load_runs(args.parent), load_runs(args.change))


if __name__ == "__main__":
    sys.exit(main())
