"""The chaos runner: execute a fault plan, verify nothing fails silently.

A chaos run takes a :class:`~repro.faults.plan.FaultPlan` and turns it
into a *verdict* per scheduled fault class.  The contract it checks is
the subsystem's one-line promise: **every injected fault is either
detected (an exception with a diagnostic, or a trap-invariant audit
divergence) or absorbed (scrubbed, retried, quarantined) — never
silent.**  A fault that perturbs results without tripping any detector
is reported as ``SILENT`` and fails the run; CI's chaos-smoke job
asserts there are none.

Machine-plane faults run one at a time — each fault class gets its own
trap-driven simulation under a single-spec plan — so a detection can be
attributed to its injection without cross-fault aliasing.  Infra-plane
faults run against a throwaway farm on a temporary cache directory with
a cheap arithmetic measure (``chaos.probe``), so worker kills, hangs
and cache corruption never touch the user's real ``.farm-cache/``.

Resolutions
-----------

``detected:exception``
    the fault raised a structured error (``DoubleBitError``).
``detected:auditor``
    the trap-invariant auditor reported a divergence.
``absorbed:scrub``
    a correctable ECC error was scrubbed in the trap handler.
``absorbed:refire``
    a dropped trap clear re-fired and self-healed (see the caveat in
    ``docs/INTERNALS.md``: state is consistent again but one miss was
    double-counted; the drop ledger is what attributes it).
``absorbed:retry``
    the farm re-ran jobs lost to a killed or hung worker.
``absorbed:quarantine``
    corrupt cache records were skipped and the values recomputed —
    or poisoned jobs were quarantined with machine-readable reasons
    while the rest of the batch completed exactly.
``absorbed:resume``
    the service master was SIGKILLed mid-batch and ``resume`` replayed
    the journaled remainder exactly once, bit-identical.
``absorbed:miss``
    cache GC evicted entries under a live reader: existing mappings
    kept their pages (POSIX unlink semantics), fresh lookups missed
    cleanly and recompiled.
``skipped:not_triggered``
    the schedule never found a viable target (short run, no trapped
    granule yet, ...).  Not a contract violation — nothing happened.
``skipped:pool_unavailable``
    this environment cannot create process pools; worker faults only
    exist on the pool path.
``SILENT``
    the fault changed observable state and *nothing* noticed.  This is
    the failure the whole subsystem exists to rule out.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.caches.config import CacheConfig
from repro.core.tapeworm import TapewormConfig
from repro.errors import DoubleBitError
from repro.farm.jobs import Job
from repro.farm.pool import Farm, FarmConfig
from repro.faults.infra import (
    WorkerFaults,
    chaos_probe,
    garble_cache_records,
)
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.session import enabled
from repro.harness.runner import RunOptions, run_trap_driven
from repro.workloads.registry import get_workload

#: default trap-driven budget per machine-plane fault class; ~10 chunks,
#: enough for every default-plan schedule slot to land on a real chunk
DEFAULT_CHAOS_REFS = 40_000


@dataclass
class FaultOutcome:
    """Verdict for one fault class in one chaos run."""

    kind: str                     #: FaultKind value
    plane: str                    #: "machine" | "infra"
    resolution: str               #: one of the module-doc resolutions
    detail: str = ""
    #: injections that actually landed (machine) / faults fired (infra)
    applied: int = 0

    @property
    def silent(self) -> bool:
        return self.resolution.startswith("SILENT")

    def describe(self) -> str:
        return (
            f"{self.kind:<16} {self.resolution:<24} "
            f"applied={self.applied}  {self.detail}"
        )


@dataclass
class ChaosReport:
    """Everything one chaos run learned, ready to render or serialize."""

    workload: str
    refs: int
    seed: int
    plan: dict[str, Any]
    outcomes: list[FaultOutcome] = field(default_factory=list)
    audits: int = 0
    audit_checks: int = 0

    @property
    def silent_faults(self) -> list[FaultOutcome]:
        return [o for o in self.outcomes if o.silent]

    @property
    def ok(self) -> bool:
        """The contract: no fault resolved silently."""
        return not self.silent_faults

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "refs": self.refs,
            "seed": self.seed,
            "plan": self.plan,
            "audits": self.audits,
            "audit_checks": self.audit_checks,
            "ok": self.ok,
            "outcomes": [
                {
                    "kind": o.kind,
                    "plane": o.plane,
                    "resolution": o.resolution,
                    "applied": o.applied,
                    "detail": o.detail,
                    "silent": o.silent,
                }
                for o in self.outcomes
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [
            f"chaos run: workload={self.workload} refs={self.refs:,} "
            f"seed={self.seed} plan_seed={self.plan.get('seed', 0):#x}",
            f"audits    : {self.audits} ({self.audit_checks:,} invariant checks)",
        ]
        for plane in ("machine", "infra", "service"):
            plane_outcomes = [o for o in self.outcomes if o.plane == plane]
            if not plane_outcomes:
                continue
            lines.append(f"{plane} plane:")
            for outcome in plane_outcomes:
                lines.append(f"  {outcome.describe()}")
        if self.ok:
            lines.append(
                "contract  : OK — every fault detected or absorbed, 0 silent"
            )
        else:
            names = ", ".join(o.kind for o in self.silent_faults)
            lines.append(f"contract  : VIOLATED — silent fault(s): {names}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# machine plane: one isolated trap-driven run per fault class
# ---------------------------------------------------------------------------


def _chaos_config() -> TapewormConfig:
    """The canonical small configuration chaos runs simulate against."""
    return TapewormConfig(
        cache=CacheConfig(size_bytes=4096, line_bytes=16, associativity=1)
    )


def _run_machine_spec(
    spec: FaultSpec,
    plan: FaultPlan,
    workload: str,
    refs: int,
    seed: int,
):
    """Run one fault class in isolation; returns (outcome, run record)."""
    sub_plan = FaultPlan(
        specs=(spec,), seed=plan.seed, audit_every=plan.audit_every or 1
    )
    raised: DoubleBitError | None = None
    with enabled(sub_plan) as session:
        try:
            run_trap_driven(
                get_workload(workload),
                _chaos_config(),
                RunOptions(total_refs=refs, trial_seed=seed),
            )
        except DoubleBitError as exc:
            raised = exc
    record = session.last_run
    assert record is not None  # run_trap_driven always begins a run
    outcome = _classify_machine(spec, record, raised)
    return outcome, record


def _classify_machine(spec, record, raised) -> FaultOutcome:
    kind = spec.kind
    applied = record.injector.injections_applied(kind)
    divergences = record.divergences()

    def diverged(*names: str) -> bool:
        return any(d.kind in names for d in divergences)

    if kind is FaultKind.ECC_DOUBLE:
        if raised is not None:
            diag = getattr(raised, "diagnostic", None)
            return FaultOutcome(
                kind.value, "machine", "detected:exception", applied=applied,
                detail=f"DoubleBitError: {diag if diag is not None else raised}",
            )
        if diverged("latent_double_bit"):
            return FaultOutcome(
                kind.value, "machine", "detected:auditor", applied=applied,
                detail="final sweep found the uncorrectable granule",
            )
        if applied == 0:
            return _not_triggered(kind)
        return _silent(kind, applied, "double-bit error vanished untraced")

    if kind is FaultKind.ECC_SINGLE:
        if applied == 0:
            return _not_triggered(kind)
        remaining = record.tapeworm.machine.ecc.true_error_granules()
        injected = {
            e.granule for e in record.injector.ledger
            if e.kind is kind and e.applied
        }
        if not (injected & set(int(g) for g in remaining)):
            return FaultOutcome(
                kind.value, "machine", "absorbed:scrub", applied=applied,
                detail="handler scrubbed every injected single-bit error",
            )
        if diverged("stale_true_error"):
            return FaultOutcome(
                kind.value, "machine", "detected:auditor", applied=applied,
                detail="final sweep found unreferenced single-bit error(s)",
            )
        return _silent(kind, applied, "single-bit error neither scrubbed nor swept")

    if kind is FaultKind.DMA_TRAP_CLEAR:
        if applied == 0:
            return _not_triggered(kind)
        if diverged("missing_trap"):
            return FaultOutcome(
                kind.value, "machine", "detected:auditor", applied=applied,
                detail="auditor flagged the granule DMA silently untrapped",
            )
        return _silent(kind, applied, "trap cleared by DMA, no divergence")

    if kind is FaultKind.SPURIOUS_TRAP:
        if applied == 0:
            return _not_triggered(kind)
        if diverged("unexpected_trap", "orphan_trap"):
            return FaultOutcome(
                kind.value, "machine", "detected:auditor", applied=applied,
                detail="auditor flagged the trap on a resident line",
            )
        return _silent(kind, applied, "spurious trap left no trace")

    if kind is FaultKind.TRAP_CLEAR_DROP:
        consumed = len(record.injector.dropped_clears)
        if consumed == 0:
            return _not_triggered(kind)
        if diverged("missing_trap", "unexpected_trap"):
            return FaultOutcome(
                kind.value, "machine", "detected:auditor", applied=consumed,
                detail="auditor caught the undropped trap state",
            )
        drops = "; ".join(
            e.detail for e in record.injector.ledger
            if e.kind is kind and e.pa is not None
        )
        return FaultOutcome(
            kind.value, "machine", "absorbed:refire", applied=consumed,
            detail=(
                "trap re-fired and self-healed (one miss double-counted); "
                f"attributed from the drop ledger: {drops}"
            ),
        )

    raise AssertionError(f"not a machine-plane fault: {kind}")


def _not_triggered(kind: FaultKind) -> FaultOutcome:
    return FaultOutcome(
        kind.value, "machine", "skipped:not_triggered",
        detail="schedule found no viable target in this run",
    )


def _silent(kind: FaultKind, applied: int, detail: str) -> FaultOutcome:
    return FaultOutcome(
        kind.value, "machine", "SILENT", applied=applied, detail=detail
    )


# ---------------------------------------------------------------------------
# infra plane: throwaway farms on temporary cache directories
# ---------------------------------------------------------------------------

#: jobs per infra scenario — enough that a fault on job 0/1 leaves
#: healthy jobs proving reassembly still works
_INFRA_JOBS = 4


def _probe_jobs() -> list[Job]:
    return [
        Job(measure="chaos.probe", params={"scale": 1.0}, seed=s)
        for s in range(_INFRA_JOBS)
    ]


def _expected_values() -> list[float]:
    return [chaos_probe(s) for s in range(_INFRA_JOBS)]


def _classify_farm_run(
    kind: FaultKind, farm: Farm, values: list[Any]
) -> FaultOutcome:
    run = farm.last_run
    if run.fallback_serial and not run.breaker_tripped and not run.retries:
        return FaultOutcome(
            kind.value, "infra", "skipped:pool_unavailable",
            detail="no process pool in this environment; fault never fired",
        )
    if values != _expected_values():
        return FaultOutcome(
            kind.value, "infra", "SILENT", applied=1,
            detail=f"job values corrupted: {values}",
        )
    if run.retries:
        return FaultOutcome(
            kind.value, "infra", "absorbed:retry", applied=run.retries,
            detail=(
                f"values exact after {run.retries} retry(ies)"
                + (", breaker degraded to serial" if run.breaker_tripped else "")
            ),
        )
    return FaultOutcome(
        kind.value, "infra", "skipped:not_triggered",
        detail="fault schedule never hit a pool-path job",
    )


def _run_worker_fault(
    kind: FaultKind, specs: list[FaultSpec], tmp: Path
) -> FaultOutcome:
    occurrences = frozenset(
        when for spec in specs for when in spec.occurrences()
        if when < _INFRA_JOBS
    )
    if not occurrences:
        return FaultOutcome(
            kind.value, "infra", "skipped:not_triggered",
            detail=f"no scheduled job index below {_INFRA_JOBS}",
        )
    if kind is FaultKind.WORKER_KILL:
        faults = WorkerFaults(kills=occurrences)
        timeout = None
    else:
        # hang long enough to trip the timeout, short enough for CI
        faults = WorkerFaults(hangs=occurrences, hang_secs=5.0)
        timeout = 0.5
    farm = Farm(FarmConfig(
        max_workers=2,
        cache_dir=tmp / kind.value,
        job_timeout=timeout,
        max_retries=3,
        backoff_base=0.01,
        worker_faults=faults,
    ))
    values = farm.run_jobs(_probe_jobs())
    return _classify_farm_run(kind, farm, values)


def _run_cache_garble(specs: list[FaultSpec], tmp: Path) -> FaultOutcome:
    kind = FaultKind.CACHE_GARBLE
    cache_dir = tmp / kind.value
    # populate a healthy cache serially, then corrupt it on disk
    Farm(FarmConfig(max_workers=1, cache_dir=cache_dir)).run_jobs(_probe_jobs())
    indices = tuple(
        when for spec in specs for when in spec.occurrences()
        if when < _INFRA_JOBS
    )
    garbled = garble_cache_records(cache_dir, indices=indices or (0,))
    if not garbled:
        return FaultOutcome(
            kind.value, "infra", "skipped:not_triggered",
            detail="no cache records existed to garble",
        )
    fresh = Farm(FarmConfig(max_workers=1, cache_dir=cache_dir))
    values = fresh.run_jobs(_probe_jobs())
    if values != _expected_values():
        return FaultOutcome(
            kind.value, "infra", "SILENT", applied=garbled,
            detail=f"corrupt cache served wrong values: {values}",
        )
    if fresh.cache.corrupt >= garbled:
        return FaultOutcome(
            kind.value, "infra", "absorbed:quarantine", applied=garbled,
            detail=(
                f"{fresh.cache.corrupt} corrupt record(s) quarantined, "
                "values recomputed exactly"
            ),
        )
    return FaultOutcome(
        kind.value, "infra", "SILENT", applied=garbled,
        detail="garbled records passed verification unchallenged",
    )


# ---------------------------------------------------------------------------
# service plane: crash/resume, poison storms, GC vs. readers
# ---------------------------------------------------------------------------


def _service_farm_config(cache_dir: Path, **overrides: Any) -> "FarmConfig":
    defaults: dict[str, Any] = dict(
        max_workers=1,
        cache_dir=cache_dir,
        backoff_base=0.01,
        backoff_max=0.02,
    )
    defaults.update(overrides)
    return FarmConfig(**defaults)


def _run_service_crash(specs: list[FaultSpec], tmp: Path) -> FaultOutcome:
    """SIGKILL the service master mid-batch, resume, verify identity.

    A child process runs the batch serially under a journal; the job at
    the scheduled index SIGKILLs the master (while a sentinel file
    exists), leaving k committed jobs, one leased, the rest queued.
    The parent deletes the sentinel, resumes on the same directories,
    and demands bit-identical values, exactly-once replay and a clean
    journal.
    """
    import subprocess
    import sys

    kind = FaultKind.SERVICE_CRASH
    kill_at = next(
        (
            when for spec in specs for when in sorted(spec.occurrences())
            if 0 < when < _INFRA_JOBS
        ),
        2,
    )
    cache_dir = tmp / kind.value
    sentinel = tmp / f"{kind.value}.sentinel"
    sentinel.write_text("armed\n")
    src_root = str(Path(__file__).resolve().parents[2])
    child = (
        "import sys\n"
        f"sys.path.insert(0, {src_root!r})\n"
        "from repro.farm import FarmService, ServiceConfig, FarmConfig, Job\n"
        f"cfg = ServiceConfig(farm=FarmConfig(max_workers=1, "
        f"cache_dir={str(cache_dir)!r}))\n"
        "svc = FarmService(cfg)\n"
        "jobs = [Job('chaos.kill_probe', {'scale': 1.0, "
        f"'sentinel': {str(sentinel)!r}, 'kill_seed': {kill_at}}}, seed=s)\n"
        f"        for s in range({_INFRA_JOBS})]\n"
        "svc.run(jobs, client='chaos', batch='crash')\n"
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, timeout=120,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return FaultOutcome(
            kind.value, "service", "skipped:not_triggered",
            detail=f"child process could not run: {exc!r}",
        )
    if proc.returncode == 0:
        return FaultOutcome(
            kind.value, "service", "SILENT", applied=0,
            detail="scheduled SIGKILL never fired; the batch completed",
        )
    sentinel.unlink(missing_ok=True)

    from repro.farm.service import FarmService, ServiceConfig

    svc = FarmService(
        ServiceConfig(farm=_service_farm_config(cache_dir))
    )
    counts_before = svc.journal.counts()
    incomplete = counts_before["queued"] + counts_before["leased"]
    if incomplete == 0 or counts_before["done"] != kill_at:
        return FaultOutcome(
            kind.value, "service", "SILENT", applied=1,
            detail=(
                f"journal does not reflect the crash point: {counts_before} "
                f"(expected {kill_at} done, {_INFRA_JOBS - kill_at} unfinished)"
            ),
        )
    report = svc.resume()
    jobs = [
        Job(
            "chaos.kill_probe",
            {
                "scale": 1.0,
                "sentinel": str(sentinel),
                "kill_seed": kill_at,
            },
            seed=s,
        )
        for s in range(_INFRA_JOBS)
    ]
    values = svc.farm.run_jobs(jobs)
    counts = svc.journal.counts()
    clean = counts["queued"] == 0 and counts["leased"] == 0
    exact = values == _expected_values()
    once = (
        report["executed"] + report["reconciled"] == _INFRA_JOBS - kill_at
    )
    if exact and clean and once:
        return FaultOutcome(
            kind.value, "service", "absorbed:resume", applied=1,
            detail=(
                f"SIGKILL after {kill_at} of {_INFRA_JOBS} jobs; resume "
                f"re-executed {report['executed']}, reconciled "
                f"{report['reconciled']}, values bit-identical, journal clean"
            ),
        )
    return FaultOutcome(
        kind.value, "service", "SILENT", applied=1,
        detail=(
            f"resume broke the contract: exact={exact} clean={clean} "
            f"exactly_once={once} values={values} journal={counts}"
        ),
    )


def _run_poison_storm(specs: list[FaultSpec], tmp: Path) -> FaultOutcome:
    """Several jobs deterministically kill every worker they touch; the
    supervisor must quarantine each with a reason while the healthy
    jobs complete exactly."""
    from repro.errors import PoisonedJobsError
    from repro.farm.service import FarmService, ServiceConfig
    from repro.farm.supervisor import POISON_FILE, SupervisorConfig

    kind = FaultKind.POISON_STORM
    toxic = frozenset(
        when for spec in specs for when in spec.occurrences()
        if when < _INFRA_JOBS - 1  # keep at least one healthy job
    )
    if not toxic:
        return FaultOutcome(
            kind.value, "service", "skipped:not_triggered",
            detail=f"no scheduled job index below {_INFRA_JOBS - 1}",
        )
    cache_dir = tmp / kind.value
    svc = FarmService(
        ServiceConfig(
            farm=_service_farm_config(
                cache_dir,
                max_workers=2,
                max_retries=2 * len(toxic) + 3,
                worker_faults=WorkerFaults(kills=toxic, persistent=True),
            ),
            supervisor=SupervisorConfig(poison_strikes=2),
        )
    )
    ticket = svc.run(_probe_jobs(), client="chaos", batch="storm")
    run = svc.farm.last_run
    if (
        ticket.state == "done"
        and run is not None
        and run.fallback_serial
        and not run.retries
    ):
        return FaultOutcome(
            kind.value, "service", "skipped:pool_unavailable",
            detail="no process pool in this environment; fault never fired",
        )
    expected = _expected_values()
    healthy_exact = ticket.results is not None and all(
        ticket.results[i] == expected[i]
        for i in range(_INFRA_JOBS)
        if i not in toxic
    )
    reasons_ok = (
        ticket.state == "poisoned"
        and len(ticket.reasons) == len(toxic)
        and all(
            reason.get("code") == "poisoned"
            and reason.get("workers_killed", 0) >= 2
            for reason in ticket.reasons.values()
        )
    )
    ledgered = (cache_dir / POISON_FILE).exists()
    journaled = svc.journal.counts()["poisoned"] == len(toxic)
    if healthy_exact and reasons_ok and ledgered and journaled:
        return FaultOutcome(
            kind.value, "service", "absorbed:quarantine",
            applied=len(toxic),
            detail=(
                f"{len(toxic)} poisoned job(s) quarantined with "
                "machine-readable reasons; healthy values exact; "
                "journal and poisoned.jsonl agree"
            ),
        )
    return FaultOutcome(
        kind.value, "service", "SILENT", applied=len(toxic),
        detail=(
            f"storm mishandled: state={ticket.state} "
            f"healthy_exact={healthy_exact} reasons_ok={reasons_ok} "
            f"ledgered={ledgered} journaled={journaled}"
        ),
    )


def _run_gc_reader_race(tmp: Path) -> FaultOutcome:
    """Evict the whole stream tier while a reader holds live mappings:
    the mapping must keep its pages, fresh lookups must miss cleanly."""
    import numpy as np

    from repro.farm.gc import CacheGC
    from repro.streams.store import StreamStore

    kind = FaultKind.GC_READER_RACE
    store_dir = tmp / kind.value
    store = StreamStore(store_dir)
    key = "deadbeef" * 8  # a 64-char hex key, like real fingerprints
    blob = np.arange(2048, dtype=np.int64)
    mapped = store.put(key, blob)
    assert mapped is not None
    before = (int(mapped[0]), int(mapped[-1]), int(mapped.sum()))

    collector = CacheGC(budget_bytes=0)
    report = collector.collect_stream_tier(store_dir)
    if report.evicted == 0:
        return FaultOutcome(
            kind.value, "service", "SILENT", applied=0,
            detail="GC under a zero budget evicted nothing",
        )
    after = (int(mapped[0]), int(mapped[-1]), int(mapped.sum()))
    fresh = StreamStore(store_dir)
    miss = fresh.get(key) is None
    replaced = fresh.put(key, blob)
    replay = (
        replaced is not None
        and (int(replaced[0]), int(replaced[-1]), int(replaced.sum()))
        == before
    )
    if after == before and miss and replay:
        return FaultOutcome(
            kind.value, "service", "absorbed:miss",
            applied=report.evicted,
            detail=(
                "live mapping kept its pages through the eviction; "
                "fresh lookup missed cleanly and the re-put round-tripped"
            ),
        )
    return FaultOutcome(
        kind.value, "service", "SILENT", applied=report.evicted,
        detail=(
            f"race mishandled: mapping_stable={after == before} "
            f"clean_miss={miss} replay={replay}"
        ),
    )


# ---------------------------------------------------------------------------
# the entry point
# ---------------------------------------------------------------------------


def run_chaos(
    plan: FaultPlan,
    workload: str = "mpeg_play",
    refs: int = DEFAULT_CHAOS_REFS,
    seed: int = 0,
) -> ChaosReport:
    """Execute every fault class in ``plan`` and report the verdicts."""
    report = ChaosReport(
        workload=workload, refs=refs, seed=seed, plan=plan.to_dict()
    )
    for spec in plan.machine_specs():
        outcome, record = _run_machine_spec(spec, plan, workload, refs, seed)
        report.outcomes.append(outcome)
        report.audits += len(record.reports)
        report.audit_checks += sum(r.checks for r in record.reports)

    infra = plan.infra_specs()
    if infra:
        by_kind: dict[FaultKind, list[FaultSpec]] = {}
        for spec in infra:
            by_kind.setdefault(spec.kind, []).append(spec)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmpdir:
            tmp = Path(tmpdir)
            for kind in (FaultKind.WORKER_KILL, FaultKind.WORKER_HANG):
                if kind in by_kind:
                    report.outcomes.append(
                        _run_worker_fault(kind, by_kind[kind], tmp)
                    )
            if FaultKind.CACHE_GARBLE in by_kind:
                report.outcomes.append(
                    _run_cache_garble(by_kind[FaultKind.CACHE_GARBLE], tmp)
                )

    service = plan.service_specs()
    if service:
        by_kind = {}
        for spec in service:
            by_kind.setdefault(spec.kind, []).append(spec)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-svc-") as tmpdir:
            tmp = Path(tmpdir)
            if FaultKind.SERVICE_CRASH in by_kind:
                report.outcomes.append(
                    _run_service_crash(by_kind[FaultKind.SERVICE_CRASH], tmp)
                )
            if FaultKind.POISON_STORM in by_kind:
                report.outcomes.append(
                    _run_poison_storm(by_kind[FaultKind.POISON_STORM], tmp)
                )
            if FaultKind.GC_READER_RACE in by_kind:
                report.outcomes.append(_run_gc_reader_race(tmp))
    return report
