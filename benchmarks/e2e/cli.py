"""Command line: ``python3 benchmarks/e2e/run.py`` / ``python -m benchmarks.e2e``.

With ``--workload`` one workload runs in this process and the last line
of standard output is the result as JSON.  Without it, every workload
runs in its own child process, one at a time, and the records collect
in one results file for :mod:`benchmarks.e2e.compare`.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.bench import (
    DEFAULT_SEED,
    EXPECTED_PATH,
    RUNS_DIR,
    append_record,
    coverage_failure,
    format_record,
    load_expected,
    run_workload,
)
from benchmarks.e2e.workloads import WORKLOADS

RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e",
        description="end-to-end trap-driven benchmark with per-layer attribution",
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), help="run only this workload, in-process"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="measured seconds per run"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1 (or the bare flag): traced run, per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="append run records to this file")
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="all-workloads mode: rounds to run, seeds SEED, SEED+1, ...",
    )
    parser.add_argument(
        "--bless",
        action="store_true",
        help="rewrite expected.json from the default seed's full ladder",
    )
    return parser


def _run_one(args: argparse.Namespace) -> int:
    name = args.workload
    workload = WORKLOADS[name]
    if args.bless:
        record = run_workload(workload, seed=DEFAULT_SEED, passes=workload.ladder)
        if record["failures"]:
            print(format_record(record))
            return 1
        expected = load_expected()
        expected[name] = dict(sorted(record["records"].items()))
        EXPECTED_PATH.write_text(
            json.dumps(dict(sorted(expected.items())), indent=1) + "\n"
        )
        print(f"blessed {len(record['records'])} outputs of {name}")
        return 0
    pinned = (
        load_expected().get(name, {}) if args.seed == DEFAULT_SEED else None
    )
    record = run_workload(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        expected=pinned,
    )
    print(format_record(record))
    if args.out is not None:
        append_record(args.out, record)
    gate = coverage_failure(record) if args.trace else None
    if gate is not None:
        print(f"COVERAGE GATE FAILED: {gate}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] and gate is None else 1


def _run_all(args: argparse.Namespace) -> int:
    out = args.out or RUNS_DIR / time.strftime("e2e-%Y%m%dT%H%M%S.json")
    status = 0
    for round_index in range(1 if args.bless else args.repeat):
        for name in WORKLOADS:
            command = [sys.executable, str(RUN_SCRIPT), "--workload", name]
            if args.bless:
                command.append("--bless")
            else:
                command += [
                    "--seed", str(args.seed + round_index),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--out", str(out),
                ]
            if subprocess.run(command).returncode != 0:
                print(f"{name}: run failed", file=sys.stderr)
                status = 1
    if not args.bless:
        print(f"records: {out}")
    return status


def _terminate(signum: int, frame: object) -> None:
    # unwind through the runner's cleanup instead of dying mid-pass
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        print("--seconds and --repeat must be positive", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload is not None:
        return _run_one(args)
    return _run_all(args)
