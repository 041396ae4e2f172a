"""Golden outputs of the paths that read their streams through a session.

``tables.json`` renders every table without a stream session, so it
never exercises the stream memo.  ``sessions.json`` pins two outputs
that read every reference through one, with the store disabled (the
CLI's ``--no-stream-cache``):

* the interval-sampled Table 7 for espresso and xlisp at ``tiny``, 3
  trials: each estimate's value, CI bounds and method, plus the plan's
  phase and sample counts.  The profiler reads the primary task's whole
  stream through the session, and the trials fork warm snapshots whose
  stream cursors share it;
* ``repro sweep grid --budget tiny --json`` on its default 16-cell grid,
  whose Pixie tracer reads through the session.  The wall-clock field
  ``distance_secs`` is left out by name.

After an intentional change, rewrite the file with::

    python tests/golden/test_session_goldens.py --bless

and name the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import the program from this checkout's sources
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.cli import main
from repro.experiments.table7 import run_table7_sampled
from repro.streams import StreamSession, StreamStore
from repro.streams.session import enabled

GOLDEN = Path(__file__).with_name("sessions.json")

BUDGET = "tiny"

#: fields of a ``sweep grid`` payload that measure wall clock
WALL_CLOCK_FIELDS = ("distance_secs",)


def sampled_table7() -> dict:
    """Sampled Table 7's estimates and plan sizes, per workload."""
    with enabled(StreamSession(StreamStore(enabled=False))):
        result = run_table7_sampled(
            BUDGET, n_trials=3, workloads=("espresso", "xlisp")
        )
    return {
        name: {
            "phases": run.plan.n_phases,
            "samples": len(run.plan.samples),
            "estimates": {
                metric: {
                    "value": estimate.value,
                    "ci_low": estimate.ci_low,
                    "ci_high": estimate.ci_high,
                    "method": estimate.method,
                }
                for metric, estimate in sorted(run.estimates.items())
            },
        }
        for name, run in sorted(result.results.items())
    }


def sweep_grid() -> dict:
    """``repro sweep grid``'s JSON payload, minus wall-clock fields.

    Runs in a scratch directory: the farm the command builds keeps its
    journal relative to the working directory.
    """
    out = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out):
                code = main(
                    [
                        "sweep", "grid", "--budget", BUDGET, "--json",
                        "--no-cache", "--no-stream-cache", "--no-manifest",
                    ]
                )
        finally:
            os.chdir(cwd)
    assert code == 0
    payload = json.loads(out.getvalue())
    for name in WALL_CLOCK_FIELDS:
        del payload[name]
    return payload


PINNED = {"table7_sampled": sampled_table7, "sweep_grid": sweep_grid}


def render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_sampled_table7_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    assert sampled_table7() == expected["table7_sampled"]


def test_sweep_grid_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    assert sweep_grid() == expected["sweep_grid"]


def test_golden_covers_exactly_the_pinned_outputs():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(PINNED)


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit(f"usage: {sys.argv[0]} --bless")
    GOLDEN.write_text(render({name: pin() for name, pin in PINNED.items()}))
    print(f"wrote {GOLDEN}")
