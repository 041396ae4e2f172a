"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Every workload runs at a small size: its metric names must match
``BENCHMARK.json``, two passes over the same inputs must simulate
identically, and a traced run must attribute at least 90% of its wall
time to named layers.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from benchmarks.e2e import REPO_ROOT
from benchmarks.e2e.bench import (
    END_TO_END,
    MAX_UNATTRIBUTED,
    PER_LAYER,
    run_workload,
)
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.workloads import WORKLOADS

#: each workload at a size that runs in a few seconds; a one-seed
#: ladder makes every pass repeat the same inputs
SMALL = {
    "trap-dense": dict(total_refs=20_000, ladder=1),
    "trap-sparse": dict(total_refs=60_000, ladder=1),
    "tlb-data": dict(total_refs=60_000, ladder=1),
    "farm-journal": dict(total_refs=20_000, tickets=2, jobs_per_ticket=4, ladder=1),
}


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def test_names_match_benchmark_json():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    script = spec["command"][-1]
    assert (REPO_ROOT / script).is_file()
    assert all(Path(script).is_relative_to(p) for p in spec["paths"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_repeats_its_outputs(name):
    # both passes draw the same seed, so the runner compares every
    # output of the second pass with the first's
    record = run_workload(small(name), seed=3, passes=2, setups=1)
    assert record["correct"], record["failures"]
    per_pass = 2 if name == "farm-journal" else len(WORKLOADS[name].programs)
    assert len(record["records"]) == per_pass
    assert list(record["metrics"]) == list(END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_attributes_nine_tenths(name):
    record = run_workload(small(name), seed=3, passes=4, trace=True, setups=1)
    assert record["correct"], record["failures"]
    assert list(record["metrics"]) == list(PER_LAYER)
    unattributed = record["metrics"]["harness.unattributed_frac"]["value"]
    assert unattributed <= MAX_UNATTRIBUTED


def test_trap_sparse_is_table7():
    from repro.experiments import table7

    workload = small("trap-sparse")
    stats, _ = workload.trial("xlisp", 100)
    assert table7.measure_once("xlisp", 100, workload.total_refs) == 8 * stats["total_misses"]


def test_compare_verdicts():
    parent = {seed: 100.0 + seed % 3 for seed in range(10)}
    assert verdict(parent, dict(parent), "higher", 0.1)[0] == "same"
    assert verdict(parent, {s: v * 0.8 for s, v in parent.items()}, "higher", 0.1)[0] == "REGRESSION"
    assert verdict(parent, {s: v * 1.2 for s, v in parent.items()}, "higher", 0.1)[0] == "gain"
    noisy = {seed: 100.0 * (1 + seed % 2) for seed in range(10)}
    assert verdict(noisy, dict(noisy), "lower", 0.1)[0] == "unresolved"
