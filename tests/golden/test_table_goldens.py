"""Golden rendered output of the experiments that run on per-trap delivery.

Tables 8, 9 and 10, Figure 3 (whose associativity panel is
set-associative) and the TLB extension simulate structures the batched
direct-mapped path never takes, so every trap they count goes through
the CPU's per-trap delivery loop.  ``tables.json`` holds each one's
``tiny``-budget rendering, line by line, as it was when blessed; a
change to trap delivery that moves any count shows up here as a diff.

After an intentional change, rewrite the file with::

    python tests/golden/test_table_goldens.py --bless

and name the change in CHANGES.md.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import the program from this checkout's sources
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import pytest

GOLDEN = Path(__file__).with_name("tables.json")

#: the experiment modules under ``repro.experiments`` pinned here
EXPERIMENTS = ("table8", "table9", "table10", "figure3", "tlb_extension")

BUDGET = "tiny"


def rendered(stem: str) -> list[str]:
    """One experiment's ``tiny``-budget table, as printed, by line."""
    module = importlib.import_module(f"repro.experiments.{stem}")
    result = getattr(module, f"run_{stem}")(BUDGET)
    return module.render(result).splitlines()


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
