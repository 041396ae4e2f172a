"""Golden rendered output of the paper's tables and figures.

``tables.json`` holds each pinned experiment's ``tiny``-budget rendering,
line by line, as it was when blessed; a change that moves any count
shows up here as a diff.

* Tables 8, 9 and 10, Figure 3 (whose associativity panel is
  set-associative) and the TLB extension simulate structures the
  batched direct-mapped path never takes, so every trap they count goes
  through the CPU's per-trap delivery loop;
* Figures 1, 2 and 4 and Tables 3/4, 5, 6 and 12 cover the trace-driven
  ``Cache2000`` kernels, Figure 1's displaced-key printout and the
  remaining trap-driven trials;
* Table 11 counts this repository's own source lines, which every
  change moves, so only its rows and the paper's columns are pinned.

Table 7 is not here: the end-to-end benchmark's ``trap-sparse``
workload runs exactly its trials, and ``benchmarks/e2e/expected.json``
pins them.

After an intentional change, rewrite the file with::

    python tests/golden/test_table_goldens.py --bless

and name the change in CHANGES.md.
"""

from __future__ import annotations

import importlib
import inspect
import json
import re
import sys
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import the program from this checkout's sources
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import pytest

GOLDEN = Path(__file__).with_name("tables.json")

#: the experiment modules under ``repro.experiments`` pinned here
EXPERIMENTS = (
    "table8",
    "table9",
    "table10",
    "figure3",
    "tlb_extension",
    "figure1",
    "figure2",
    "figure4",
    "table34",
    "table5",
    "table6",
    "table11",
    "table12",
)

BUDGET = "tiny"


def _table11_pinned(lines: list[str]) -> list[str]:
    """Table 11 without its line counts: the title, then the header and
    each row cut to its first column and the paper's two columns."""
    rows = [
        re.split(r"\s{2,}", line.strip()) for line in (lines[1], *lines[3:6])
    ]
    return [lines[0]] + ["  ".join([row[0], *row[3:]]) for row in rows]


def rendered(stem: str) -> list[str]:
    """One experiment's ``tiny``-budget table, as printed, by line."""
    module = importlib.import_module(f"repro.experiments.{stem}")
    runner = getattr(module, f"run_{stem}")
    takes_budget = "budget" in inspect.signature(runner).parameters
    result = runner(BUDGET) if takes_budget else runner()
    lines = module.render(result).splitlines()
    return _table11_pinned(lines) if stem == "table11" else lines


def render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("stem", EXPERIMENTS)
def test_rendered_table_matches_golden(stem):
    expected = json.loads(GOLDEN.read_text())
    assert rendered(stem) == expected[stem]


def test_golden_covers_exactly_the_pinned_experiments():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(EXPERIMENTS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit(f"usage: {sys.argv[0]} --bless")
    GOLDEN.write_text(render({stem: rendered(stem) for stem in EXPERIMENTS}))
    print(f"wrote {GOLDEN}")
