"""Run a workload under the trap-driven or trace-driven driver.

``run_trap_driven`` boots a fresh simulated DECstation, installs Tapeworm,
sets per-task attributes for the requested components (the shell gets the
paper's ``(simulate=0, inherit=1)`` so the whole fork tree is measured
without the shell itself), and then just *runs* the workload — traps do
the rest.

``run_trace_driven`` is the Pixie+Cache2000 path: no kernel, no machine —
only the primary user task's address stream, searched address by address.
Both drivers consume identical user streams, which the cross-validation
tests rely on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from repro._types import Component
from repro.caches.config import CacheConfig
from repro.caches.pipeline import default_registry as _kernel_registry
from repro.caches.replacement import make_policy
from repro.core.report import TrapRunReport
from repro.core.tapeworm import Tapeworm, TapewormConfig
from repro.errors import ConfigError
from repro.faults.session import active as _faults
from repro.harness.slowdown import (
    cache2000_slowdown,
    normal_run_cycles,
    tapeworm_slowdown,
)
from repro.kernel.kernel import COMPONENT_CPI, Kernel
from repro.kernel.scheduler import Demand, Scheduler, SlicePlanner
from repro.kernel.syscalls import SyscallInterface
from repro.kernel.task import Task
from repro.machine.cpu import ChunkResult
from repro.streams.keys import fingerprint_payload
from repro.streams.session import active as _streams
from repro.streams.snapshots import WarmupPlan
from repro.telemetry.session import active as _telemetry
from repro.tracing.cache2000 import Cache2000
from repro.tracing.pixie import PixieTracer
from repro.tracing.sampling import TraceSetSampler
from repro.workloads.base import SYSTEM_TASK_NAMES, WorkloadSpec
from repro.workloads.locality import MixedStream

ALL_COMPONENTS = frozenset(Component)


def _boot_kernel(options: "RunOptions") -> Kernel:
    machine = None
    if options.tick_cycles is not None:
        from repro.machine.machine import Machine, MachineConfig

        machine = Machine(MachineConfig(tick_cycles=options.tick_cycles))
    return Kernel(
        machine=machine,
        trial_seed=options.trial_seed,
        alloc_policy=options.alloc_policy,
        reserved_frames=options.reserved_frames,
    )


@dataclass(frozen=True)
class RunOptions:
    """Knobs for one trap-driven run."""

    total_refs: int = 2_000_000
    trial_seed: int = 0
    alloc_policy: str = "random"
    chunk_refs: int = 4096
    quantum_refs: int = 8192
    system_jitter: float = 0.25
    #: which components are simulated (registered with Tapeworm)
    simulate: frozenset[Component] = ALL_COMPONENTS
    #: interleave data references into the streams (TLB simulations)
    include_data_refs: bool = False
    reserved_frames: int = 64
    #: override the clock-interrupt period (None = the machine's 100 Hz
    #: default); a huge value disables dilation for controlled studies
    tick_cycles: int | None = None

    def __post_init__(self) -> None:
        if self.total_refs <= 0 or self.chunk_refs <= 0:
            raise ConfigError("total_refs and chunk_refs must be positive")


class _WorkloadExecution:
    """Materializes a spec onto a booted kernel and runs its phases.

    ``chunk_tap``, when set, observes every executed chunk as
    ``(tid, component, vas)`` — the hook system-wide tracers use.

    The run loop keeps its cursor in plain attributes (phase index,
    current round of time slices, offset within the current slice)
    rather than nested loops' local state, so a run can stop after a
    warmup prefix, be deep-copied as a warm-state snapshot, and resume
    in each fork — see :func:`run_trap_driven`'s ``warmup`` parameter.
    """

    chunk_tap = None

    def __init__(
        self, spec: WorkloadSpec, kernel: Kernel, options: RunOptions
    ) -> None:
        self.spec = spec
        self.kernel = kernel
        self.options = options
        self.syscalls = SyscallInterface(kernel)
        self.shell = kernel.spawn("shell", Component.USER)
        self._streams: dict[str, object] = {}
        self._tasks: dict[str, Task] = {
            name: kernel.tasks.by_name(name)
            for name in SYSTEM_TASK_NAMES.values()
        }
        self._tasks["shell"] = self.shell
        self.totals = ChunkResult()
        # -- run-loop cursor (advanced by run(), captured by snapshots)
        self.scheduler = Scheduler(
            quantum_refs=options.quantum_refs,
            system_jitter=options.system_jitter,
            trial_rng=np.random.default_rng(options.trial_seed + 0xC0DE),
        )
        self.executed_refs = 0
        self.finished = False
        self._phase_index = 0
        self._planner: SlicePlanner | None = None
        self._round: list = []
        self._slice_index = 0
        self._slice_offset = 0

    def __deepcopy__(self, memo: dict) -> "_WorkloadExecution":
        # the spec is immutable shared configuration — forks alias it,
        # and compiled streams share their prefixes through
        # CompiledStream.__deepcopy__; everything else (kernel, machine,
        # Tapeworm, cursors, RNGs) is copied for real
        memo[id(self.spec)] = self.spec
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for name, value in self.__dict__.items():
            object.__setattr__(clone, name, copy.deepcopy(value, memo))
        return clone

    # -- attribute setup

    def apply_attributes(self) -> None:
        simulate = self.options.simulate
        tapeworm = self.kernel.tapeworm
        if tapeworm is None:
            return
        if Component.KERNEL in simulate:
            tapeworm.tw_attributes(0, simulate=1, inherit=0)
        if Component.BSD_SERVER in simulate:
            tapeworm.tw_attributes(
                self.kernel.bsd_server.tid, simulate=1, inherit=0
            )
        if Component.X_SERVER in simulate:
            tapeworm.tw_attributes(
                self.kernel.x_server.tid, simulate=1, inherit=0
            )
        if Component.USER in simulate:
            # the canonical shell setting: measure the whole fork tree,
            # exclude the shell itself
            tapeworm.tw_attributes(self.shell.tid, simulate=0, inherit=1)

    # -- stream and task plumbing

    def _stream_for(self, task_name: str):
        stream = self._streams.get(task_name)
        if stream is None:
            session = _streams()
            if session is not None:
                stream = session.stream_for(
                    self.spec, task_name, self.options.include_data_refs
                )
            else:
                task_spec = self.spec.task(task_name)
                instr = task_spec.build_stream(self.spec.name)
                if self.options.include_data_refs:
                    data = task_spec.build_data_stream(self.spec.name)
                    stream = MixedStream(instr, data) if data else instr
                else:
                    stream = instr
            self._streams[task_name] = stream
        return stream

    def _fork(self, task_name: str) -> None:
        task_spec = self.spec.task(task_name)
        parent_name = task_spec.parent or "shell"
        parent = self._tasks[parent_name]
        task = self.kernel.fork(
            parent.tid, task_name, layout=task_spec.layout()
        )
        self._tasks[task_name] = task

    def _exit(self, task_name: str) -> None:
        task = self._tasks.pop(task_name)
        self.kernel.exit_task(task.tid)
        self._streams.pop(task_name, None)

    # -- the run loop

    def _demands_for(self, phase) -> list[Demand]:
        # spec demands are Table 4 *time* fractions; divide by CPI to
        # get reference weights so measured time fractions match
        demands = []
        for d in phase.demands:
            component = (
                Component.USER
                if d.task_name == "shell"
                else self.spec.task(d.task_name).component
            )
            demands.append(
                Demand(
                    d.task_name,
                    component,
                    d.weight / COMPONENT_CPI[component],
                )
            )
        return demands

    def reseed_for_measurement(self, trial_seed: int) -> None:
        """Re-arm every per-trial variance source at a snapshot fork.

        The warmup prefix ran under the shared plan seed; from here on
        this fork must vary exactly as an independent trial would:
        scheduler jitter, the system-jitter RNG, and the order the
        remaining free frames will be allocated in.
        """
        self.scheduler.trial_rng = np.random.default_rng(trial_seed + 0xC0DE)
        self.kernel.system_jitter_rng = np.random.default_rng(
            trial_seed + 0x5EED
        )
        self.kernel.vm.reshuffle_free_frames(trial_seed)

    def run(self, stop_after_refs: int | None = None) -> None:
        """Execute the workload's phases; resumable.

        With ``stop_after_refs`` the loop returns at the first chunk
        boundary at or past that many executed references, leaving the
        cursor intact — a later ``run()`` call continues exactly where
        this one stopped.  Chunks are never split at the stop point, so
        a stop-and-resume run issues the identical chunk sequence a
        straight-through run does (chunk boundaries can matter to
        interrupt delivery, so this is load-bearing for bit-identity).
        """
        options = self.options
        while not self.finished:
            if (
                stop_after_refs is not None
                and self.executed_refs >= stop_after_refs
            ):
                return
            if self._planner is None:
                if self._phase_index >= len(self.spec.phases):
                    self.finished = True
                    return
                phase = self.spec.phases[self._phase_index]
                for task_name in phase.forks:
                    self._fork(task_name)
                phase_refs = int(round(options.total_refs * phase.weight))
                self._planner = self.scheduler.planner(
                    self._demands_for(phase), phase_refs
                )
                self._round = []
                self._slice_index = 0
                self._slice_offset = 0
            if self._slice_index >= len(self._round):
                if self._planner.exhausted():
                    for task_name in self.spec.phases[self._phase_index].exits:
                        self._exit(task_name)
                    self._phase_index += 1
                    self._planner = None
                    continue
                self._round = self._planner.next_round()
                self._slice_index = 0
                self._slice_offset = 0
                continue
            time_slice = self._round[self._slice_index]
            task = self._tasks[time_slice.task_name]
            stream = self._stream_for(time_slice.task_name)
            n = min(
                options.chunk_refs, time_slice.n_refs - self._slice_offset
            )
            vas = stream.next_chunk(n)
            result = self.kernel.run_chunk(task, vas)
            self.totals.merge(result)
            if self.chunk_tap is not None:
                self.chunk_tap(task.tid, task.component, vas)
            self._slice_offset += n
            self.executed_refs += n
            if self._slice_offset >= time_slice.n_refs:
                self._slice_index += 1
                self._slice_offset = 0


def run_uninstrumented(
    spec: WorkloadSpec,
    options: RunOptions | None = None,
) -> Kernel:
    """Run a workload with no Tapeworm installed (a 'normal' run).

    Returns the kernel so a Monster monitor can read the machine's
    counters — how Table 4 was measured.
    """
    options = options or RunOptions()
    kernel = _boot_kernel(options)
    execution = _WorkloadExecution(spec, kernel, options)
    execution.run()
    session = _telemetry()
    if session is not None:
        kernel.publish_metrics(session.metrics)
        _kernel_registry().publish_metrics(session.metrics)
    return kernel


def run_system_trace_driven(
    spec: WorkloadSpec,
    cache_config: CacheConfig,
    options: RunOptions | None = None,
    buffer_refs: int = 256 * 1024,
):
    """One Mogul/Chen-style system-wide trace-driven run.

    The workload executes on a booted kernel (no Tapeworm); an
    annotation tap buffers every reference from every component, and
    Cache2000 drains the buffer whenever it fills.  Returns a
    :class:`~repro.tracing.systrace.SystemTraceReport` whose slowdown
    is computed like the other drivers'.
    """
    from repro.tracing.systrace import SystemTracer

    options = options or RunOptions()
    kernel = _boot_kernel(options)
    execution = _WorkloadExecution(spec, kernel, options)
    tracer = SystemTracer(cache_config, buffer_refs=buffer_refs)
    execution.chunk_tap = tracer.tap
    execution.run()
    tracer.finish()
    session = _telemetry()
    if session is not None:
        kernel.publish_metrics(session.metrics)
        tracer.simulator.publish_metrics(session.metrics)
        _kernel_registry().publish_metrics(session.metrics)
    report = tracer.report(spec.name)
    report.slowdown = (
        report.overhead_cycles
        / normal_run_cycles(spec, options.total_refs)
    )
    return report


def _boot_execution(
    spec: WorkloadSpec, tw_config: TapewormConfig, options: RunOptions
) -> _WorkloadExecution:
    """Boot a kernel, install Tapeworm, materialize the workload."""
    kernel = _boot_kernel(options)
    tapeworm = Tapeworm(kernel, tw_config)
    tapeworm.install()
    return _WorkloadExecution(spec, kernel, options)


def _finish_trap_report(
    spec: WorkloadSpec,
    execution: _WorkloadExecution,
    tw_config: TapewormConfig,
    trial_seed: int,
    fault_run=None,
) -> TrapRunReport:
    """Assemble the report (and publish telemetry) for a finished run.

    The run's kernel is then shut down, so its memory is freed when the
    caller drops the execution rather than at the next full garbage
    collection.  A fault run keeps its kernel: the fault session's
    record inspects that Tapeworm after the run.
    """
    kernel = execution.kernel
    tapeworm = kernel.tapeworm
    cpu = kernel.machine.cpu
    stats = tapeworm.snapshot_stats()
    for component in Component:
        stats.refs[component] = cpu.refs_by_component[component]
    stats.masked_misses = execution.totals.masked_traps
    report = TrapRunReport(
        workload=spec.name,
        configuration=_describe(tw_config),
        trial_seed=trial_seed,
        stats=stats,
        estimated_misses=tapeworm.estimated_total_misses(),
        base_cycles=sum(cpu.cycles_by_component.values()),
        overhead_cycles=tapeworm.overhead_cycles,
        traps=execution.totals.traps,
        masked_traps=execution.totals.masked_traps,
        page_faults=execution.totals.page_faults,
        ticks=kernel.machine.clock.ticks_delivered,
        sampling=tw_config.sampling,
        refs=dict(cpu.refs_by_component),
        scale_factor=spec.scale_factor(execution.options.total_refs),
    )
    report.slowdown = tapeworm_slowdown(
        report.overhead_cycles, spec, execution.options.total_refs
    )
    session = _telemetry()
    if session is not None:
        kernel.publish_metrics(session.metrics)
        tapeworm.publish_metrics(session.metrics)
        if fault_run is not None:
            fault_run.publish(session.metrics)
        stream_session = _streams()
        if stream_session is not None:
            stream_session.publish_metrics(session.metrics)
        _kernel_registry().publish_metrics(session.metrics)
    if fault_run is None:
        kernel.shutdown()
    return report


def run_trap_driven(
    spec: WorkloadSpec,
    tw_config: TapewormConfig,
    options: RunOptions | None = None,
    warmup: WarmupPlan | None = None,
) -> TrapRunReport:
    """One complete trap-driven simulation of a workload.

    With a ``warmup`` plan, the first ``warmup_refs`` references execute
    under the plan's shared seed and — when a stream session is active
    and no fault session is — the warmed state is snapshotted once per
    configuration, so subsequent trials fork the snapshot instead of
    re-simulating the prefix.  Forked or replayed, the results are
    bit-identical (``tests/streams/test_snapshots.py``).
    """
    options = options or RunOptions()
    if warmup is not None:
        return _run_trap_driven_warm(spec, tw_config, options, warmup)
    execution = _boot_execution(spec, tw_config, options)
    fault_session = _faults()
    fault_run = None
    if fault_session is not None:
        fault_run = fault_session.begin_run(
            execution.kernel.tapeworm, options.trial_seed
        )
        execution.chunk_tap = fault_run.observe_chunk
    try:
        execution.apply_attributes()
        execution.run()
    finally:
        # the final audit still runs when a DoubleBitError aborts the
        # workload: an injected fault must never exit unexamined
        if fault_run is not None:
            fault_run.finish()
    return _finish_trap_report(
        spec, execution, tw_config, options.trial_seed, fault_run=fault_run
    )


def _warm_snapshot_key(
    spec: WorkloadSpec,
    tw_config: TapewormConfig,
    warm_options: RunOptions,
    warmup: WarmupPlan,
) -> str:
    """Identity of one warmed state: everything that shaped the prefix.

    ``warm_options`` carries the plan seed in ``trial_seed``, so the
    measurement trial's own seed is deliberately absent — that is what
    makes the snapshot shareable across trials.  The Tapeworm config
    (including its sampling seed) is folded in whole: a sampled
    configuration's trap pattern is fixed at install time, so trials
    sharing a snapshot share it by construction.
    """
    return fingerprint_payload(
        {
            "kind": "warm-snapshot",
            "workload": spec.name,
            "tapeworm": tw_config,
            "options": warm_options,
            "warmup": warmup,
        }
    )


def _run_trap_driven_warm(
    spec: WorkloadSpec,
    tw_config: TapewormConfig,
    options: RunOptions,
    warmup: WarmupPlan,
) -> TrapRunReport:
    if warmup.warmup_refs >= options.total_refs:
        raise ConfigError(
            f"warmup_refs ({warmup.warmup_refs}) must be smaller than "
            f"total_refs ({options.total_refs})"
        )
    warm_options = replace(options, trial_seed=warmup.warmup_seed)
    stream_session = _streams()
    fault_session = _faults()
    if stream_session is not None and fault_session is None:
        key = _warm_snapshot_key(spec, tw_config, warm_options, warmup)
        execution = stream_session.snapshots.fork(key)
        if execution is None:
            warmed = _boot_execution(spec, tw_config, warm_options)
            warmed.apply_attributes()
            warmed.run(stop_after_refs=warmup.warmup_refs)
            stream_session.snapshots.put(key, warmed)
            execution = stream_session.snapshots.fork(key)
        execution.reseed_for_measurement(options.trial_seed)
        execution.run()
        return _finish_trap_report(
            spec, execution, tw_config, options.trial_seed
        )
    # Bypass: no stream session, or fault injection is active — injected
    # faults mutate warmed state, so sharing a snapshot would leak one
    # trial's damage into the others.  Replay the prefix fresh instead;
    # semantics (warmup under the plan seed, reseed at the fork point)
    # are identical, only the amortization is lost.
    if stream_session is not None:
        stream_session.snapshots.bypassed += 1
    execution = _boot_execution(spec, tw_config, warm_options)
    fault_run = None
    if fault_session is not None:
        fault_run = fault_session.begin_run(
            execution.kernel.tapeworm, options.trial_seed
        )
        execution.chunk_tap = fault_run.observe_chunk
    try:
        execution.apply_attributes()
        execution.run(stop_after_refs=warmup.warmup_refs)
        execution.reseed_for_measurement(options.trial_seed)
        execution.run()
    finally:
        if fault_run is not None:
            fault_run.finish()
    return _finish_trap_report(
        spec, execution, tw_config, options.trial_seed, fault_run=fault_run
    )


def run_warm_trials(
    spec: WorkloadSpec,
    tw_config: TapewormConfig,
    options: RunOptions,
    warmup: WarmupPlan,
    n_trials: int,
    base_seed: int = 0,
) -> list[TrapRunReport]:
    """N measurement trials sharing one warmed prefix."""
    return [
        run_trap_driven(
            spec,
            tw_config,
            replace(options, trial_seed=base_seed + trial),
            warmup=warmup,
        )
        for trial in range(n_trials)
    ]


def _describe(config: TapewormConfig) -> str:
    if config.structure == "tlb":
        base = config.tlb.describe()
    elif config.structure == "two_level":
        base = f"{config.cache.describe()} + L2 {config.l2.describe()}"
    else:
        base = config.cache.describe()
    if config.sampling > 1:
        base += f", 1/{config.sampling} sampling"
    return base


@dataclass
class TraceRunReport:
    """Results of one Pixie+Cache2000 run."""

    workload: str
    configuration: str
    misses: int = 0
    refs_simulated: int = 0
    refs_traced: int = 0
    generation_cycles: int = 0
    filter_cycles: int = 0
    processing_cycles: int = 0
    slowdown: float = 0.0
    sampling: int = 1

    @property
    def overhead_cycles(self) -> int:
        return self.generation_cycles + self.filter_cycles + self.processing_cycles

    @property
    def miss_ratio(self) -> float:
        """Misses per traced user reference (Figure 2's convention)."""
        if self.refs_traced == 0:
            return 0.0
        return self.misses * self.sampling / self.refs_traced

    @property
    def estimated_misses(self) -> float:
        return self.misses * self.sampling


def run_trace_driven(
    spec: WorkloadSpec,
    cache_config: CacheConfig,
    user_refs: int,
    sampling: int = 1,
    sampling_seed: int = 0,
    replacement: str = "lru",
    chunk_refs: int = 65536,
    force_general_path: bool = False,
) -> TraceRunReport:
    """One Pixie+Cache2000 simulation of a workload's primary user task."""
    tracer = PixieTracer(spec, chunk_refs=chunk_refs)
    simulator = Cache2000(
        cache_config,
        policy=make_policy(replacement),
        force_general_path=force_general_path,
    )
    sampler = (
        TraceSetSampler(cache_config, sampling, seed=sampling_seed)
        if sampling > 1
        else None
    )
    for chunk in tracer.trace_chunks(user_refs):
        addresses = chunk.addresses
        if sampler is not None:
            addresses = sampler.filter_chunk(addresses)
        simulator.simulate_chunk(addresses, tid=chunk.tid, component=chunk.component)

    session = _telemetry()
    if session is not None:
        simulator.publish_metrics(session.metrics)
        stream_session = _streams()
        if stream_session is not None:
            stream_session.publish_metrics(session.metrics)
        _kernel_registry().publish_metrics(session.metrics)

    report = TraceRunReport(
        workload=spec.name,
        configuration=cache_config.describe()
        + (f", 1/{sampling} sampling" if sampling > 1 else ""),
        misses=simulator.stats.total_misses,
        refs_simulated=simulator.stats.total_refs,
        refs_traced=tracer.refs_traced,
        generation_cycles=tracer.generation_cycles,
        filter_cycles=sampler.preprocessing_cycles if sampler else 0,
        processing_cycles=simulator.processing_cycles,
        sampling=sampling,
    )
    report.slowdown = cache2000_slowdown(
        report.overhead_cycles, spec, user_refs
    )
    return report
