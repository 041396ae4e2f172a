"""Workload specification machinery.

A :class:`WorkloadSpec` is a complete, kernel-independent description of
one workload: its Table 3/4 metadata, one :class:`TaskSpec` per distinct
task (including the system components), and a phase script describing
fork/exit timing and per-component execution shares.  The harness
materializes a spec onto a booted kernel for trap-driven runs, or pulls
just the primary user task's stream for Pixie-style tracing.

Stream seeds derive from CRC32 of ``workload:task`` — stable across
processes — so a workload's reference content never depends on the trial
seed.  Only the *interleaving* of system components does (through the
scheduler's jitter), which is exactly the paper's variance structure.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from repro._types import PAGE_SIZE, Component
from repro.errors import ConfigError
from repro.kernel.kernel import COMPONENT_CPI
from repro.kernel.scheduler import Demand
from repro.kernel.vm import AddressSpaceLayout, Region
from repro.workloads.locality import (
    BlockLoopStream,
    Procedure,
    lay_out_procedures,
)

#: text segments start at this VA in every address space (matches the
#: server/kernel layouts in repro.kernel.servers)
TEXT_BASE_VA = 16 * PAGE_SIZE

#: data segments start here
DATA_BASE_VA = 1024 * PAGE_SIZE

#: the names the kernel gives its boot-time tasks
SYSTEM_TASK_NAMES = {
    Component.KERNEL: "mach_kernel",
    Component.BSD_SERVER: "bsd_server",
    Component.X_SERVER: "x_server",
}


@dataclass(frozen=True)
class WorkloadMeta:
    """Table 3 description plus Table 4 measurements."""

    name: str
    description: str
    instructions_millions: float
    run_time_secs: float
    frac_kernel: float
    frac_bsd: float
    frac_x: float
    frac_user: float
    user_task_count: int

    def __post_init__(self) -> None:
        total = self.frac_kernel + self.frac_bsd + self.frac_x + self.frac_user
        if abs(total - 1.0) > 0.02:
            raise ConfigError(
                f"{self.name}: component fractions sum to {total:.3f}"
            )

    @property
    def cycles_paper(self) -> float:
        """Total cycles of the paper's run (25 MHz DECstation)."""
        return self.run_time_secs * 25e6

    @property
    def effective_cpi(self) -> float:
        """Whole-workload cycles per instruction, from Table 4."""
        return self.cycles_paper / (self.instructions_millions * 1e6)


@dataclass(frozen=True)
class TaskSpec:
    """One task's binary identity, address space, and locality model.

    ``shapes`` rows are ``(size_bytes, weight, block_bytes, repeats)``;
    see :func:`repro.workloads.locality.lay_out_procedures`.  Tasks with
    the same ``binary`` share text frames machine-wide (fork-exec of the
    same program), which drives Tapeworm's shared-page refcounts.
    """

    name: str
    component: Component
    binary: str
    shapes: tuple[tuple[int, float, int, int], ...]
    data_shapes: tuple[tuple[int, float, int, int], ...] = ()
    parent: str | None = "shell"

    def procedures(self) -> tuple[Procedure, ...]:
        return _procedures_for(TEXT_BASE_VA, self.shapes)

    def data_procedures(self) -> tuple[Procedure, ...]:
        if not self.data_shapes:
            return ()
        return _procedures_for(DATA_BASE_VA, self.data_shapes)

    def text_pages(self) -> int:
        return _pages_spanned(TEXT_BASE_VA, self.shapes)

    def layout(self) -> AddressSpaceLayout:
        return _layout_for(self.binary, self.shapes, self.data_shapes)

    def stream_seed(self, workload_name: str) -> int:
        return zlib.crc32(f"{workload_name}:{self.name}".encode())

    def build_stream(self, workload_name: str) -> BlockLoopStream:
        return BlockLoopStream(
            self.procedures(), seed=self.stream_seed(workload_name)
        )

    def build_data_stream(self, workload_name: str) -> BlockLoopStream | None:
        data = self.data_procedures()
        if not data:
            return None
        return BlockLoopStream(
            data, seed=self.stream_seed(workload_name) ^ 0xDA7A
        )


@lru_cache(maxsize=1024)
def _procedures_for(
    base_va: int, shapes: tuple[tuple[int, float, int, int], ...]
) -> tuple[Procedure, ...]:
    """Memoized procedure-table construction.

    ``TaskSpec`` is frozen and its ``shapes`` rows are tuples, so the
    layout of a given spec is pure in ``(base_va, shapes)``; repeated
    ``build_stream``/``build_data_stream`` calls within one process reuse
    the same :class:`Procedure` tuple (and, through the procedure
    template cache, the same visit templates).
    """
    return lay_out_procedures(base_va, [list(s) for s in shapes])


def _pages_spanned(
    base_va: int, shapes: tuple[tuple[int, float, int, int], ...]
) -> int:
    end = max(p.end_va for p in _procedures_for(base_va, shapes))
    return -(-(end - base_va) // PAGE_SIZE)


@lru_cache(maxsize=1024)
def _layout_for(
    binary: str,
    shapes: tuple[tuple[int, float, int, int], ...],
    data_shapes: tuple[tuple[int, float, int, int], ...],
) -> AddressSpaceLayout:
    """Memoized address-space layout, pure in ``(binary, shapes,
    data_shapes)`` like :func:`_procedures_for`: the runner asks for it
    on every fork, hundreds of times per sdet or kenbus trial, and the
    layout is immutable, so forks share it."""
    regions = [
        Region(
            name="text",
            start_vpn=TEXT_BASE_VA // PAGE_SIZE,
            n_pages=_pages_spanned(TEXT_BASE_VA, shapes),
            share_key=f"text:{binary}",
        )
    ]
    if data_shapes:
        regions.append(
            Region(
                name="data",
                start_vpn=DATA_BASE_VA // PAGE_SIZE,
                n_pages=_pages_spanned(DATA_BASE_VA, data_shapes),
            )
        )
    return AddressSpaceLayout(regions=tuple(regions))


@dataclass(frozen=True)
class DemandShare:
    """A task's share of one phase's references."""

    task_name: str
    weight: float


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a workload's execution.

    ``forks`` name user tasks created (from their TaskSpec parent) when
    the phase starts; ``exits`` name tasks terminated when it ends.
    """

    weight: float
    demands: tuple[DemandShare, ...]
    forks: tuple[str, ...] = ()
    exits: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError(f"phase weight must be positive: {self.weight}")


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete workload: metadata, tasks, phase script."""

    meta: WorkloadMeta
    tasks: dict[str, TaskSpec]
    phases: tuple[PhaseSpec, ...]
    #: the single task Pixie can trace (the paper's user-level validation)
    primary_task: str

    def __post_init__(self) -> None:
        known = set(self.tasks) | {"shell"}
        for phase in self.phases:
            for demand in phase.demands:
                if demand.task_name not in known:
                    raise ConfigError(
                        f"{self.meta.name}: phase demands unknown task "
                        f"{demand.task_name!r}"
                    )
            for name in (*phase.forks, *phase.exits):
                if name not in self.tasks:
                    raise ConfigError(
                        f"{self.meta.name}: phase forks/exits unknown task "
                        f"{name!r}"
                    )
        if self.primary_task not in self.tasks:
            raise ConfigError(
                f"{self.meta.name}: primary task {self.primary_task!r} unknown"
            )

    @property
    def name(self) -> str:
        return self.meta.name

    def task(self, name: str) -> TaskSpec:
        return self.tasks[name]

    @cached_property
    def reference_demands(self) -> tuple[tuple[Demand, ...], ...]:
        """Each phase's demands as the scheduler takes them.

        Spec demands are Table 4 *time* fractions; dividing by each
        component's CPI gives reference weights, so measured time
        fractions match.  The shell counts as a user task.  Built once
        per spec: specs are immutable.
        """
        phases = []
        for phase in self.phases:
            demands = []
            for d in phase.demands:
                component = (
                    Component.USER
                    if d.task_name == "shell"
                    else self.tasks[d.task_name].component
                )
                demands.append(
                    Demand(
                        d.task_name,
                        component,
                        d.weight / COMPONENT_CPI[component],
                    )
                )
            phases.append(tuple(demands))
        return tuple(phases)

    def user_task_specs(self) -> list[TaskSpec]:
        return [
            t for t in self.tasks.values() if t.component is Component.USER
        ]

    def component_weights(self) -> dict[Component, float]:
        return {
            Component.KERNEL: self.meta.frac_kernel,
            Component.BSD_SERVER: self.meta.frac_bsd,
            Component.X_SERVER: self.meta.frac_x,
            Component.USER: self.meta.frac_user,
        }

    def scale_factor(self, total_refs: int) -> float:
        """Multiplier from a ``total_refs`` run to paper-length counts."""
        return self.meta.instructions_millions * 1e6 / total_refs


def single_task_phases(
    spec_name: str,
    user_task: str,
    meta: WorkloadMeta,
) -> tuple[PhaseSpec, ...]:
    """The standard one-phase script for a single-user-task workload:
    demands split by the Table 4 component fractions."""
    demands = [DemandShare(user_task, meta.frac_user)]
    demands.append(DemandShare(SYSTEM_TASK_NAMES[Component.KERNEL], meta.frac_kernel))
    demands.append(DemandShare(SYSTEM_TASK_NAMES[Component.BSD_SERVER], meta.frac_bsd))
    if meta.frac_x > 0:
        demands.append(DemandShare(SYSTEM_TASK_NAMES[Component.X_SERVER], meta.frac_x))
    return (
        PhaseSpec(weight=1.0, demands=tuple(demands), forks=(user_task,)),
    )
