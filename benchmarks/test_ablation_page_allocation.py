"""Ablation: the VM allocation policy drives Table 9's variance.

Swapping the random allocator for a sequential first-fit one removes
run-to-run page-placement differences entirely — physically-indexed
variance collapses to zero, demonstrating that the allocator (not the
trap machinery) is the variance source.  The measured variance peak is
also checked against Kessler's analytic model.  Trials run on the
execution farm via the generic ``trap.measure``.
"""

from benchmarks.conftest import run_once
from repro.analysis.kessler import conflict_peak_cache_pages
from repro.experiments import budget_refs
from repro.harness.experiment import run_trials
from repro.harness.tables import format_table, pct
from repro.workloads.registry import get_workload


def _sweep(budget, farm):
    total_refs = budget_refs(budget)
    return {
        policy: run_trials(
            "trap.measure",
            {
                "workload": "mpeg_play",
                "total_refs": total_refs,
                "cache": {"size_bytes": 16 * 1024},
                "alloc_policy": policy,
                "components": ("user",),
                "metric": "total_misses",
            },
            4,
            base_seed=500,
            farm=farm,
        )
        for policy in ("random", "sequential")
    }


def test_ablation_page_allocation(benchmark, budget, save_result, farm):
    stats = run_once(benchmark, _sweep, budget, farm)
    rows = [
        [policy, s.mean, f"{s.stdev:.0f} {pct(s.stdev_pct)}"]
        for policy, s in stats.items()
    ]
    table = format_table(
        ["Allocator", "Misses (mean)", "s"],
        rows,
        title="Ablation: page allocation policy (mpeg_play user, 16 KB phys)",
    )
    # Kessler cross-check: the variance peak should sit near the text
    # footprint (~8 pages), i.e. within the 8-64 KB band
    spec = get_workload("mpeg_play")
    stream = spec.task("mpeg_play").build_stream("mpeg_play")
    footprint_pages = -(-stream.footprint_bytes() // 4096)
    peak_pages = conflict_peak_cache_pages(footprint_pages)
    table += (
        f"\nKessler model: footprint {footprint_pages} pages -> variance "
        f"peak at ~{peak_pages * 4} KB caches"
    )
    save_result("ablation_page_allocation", table)

    assert stats["sequential"].stdev == 0.0
    assert stats["random"].stdev > 0.0
    assert footprint_pages / 2 <= peak_pages <= footprint_pages * 4
