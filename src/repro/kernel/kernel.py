"""The kernel facade: boot, task lifecycle, trap plumbing, clock ticks.

This object owns the machine and stands where Mach 3.0 stood in the
paper: it fields page faults (telling Tapeworm about new pages), runs the
clock-interrupt handler whose cache pollution causes time dilation bias,
and masks interrupts while doing so (hiding kernel ECC traps — the
paper's final source of measurement bias).
"""

from __future__ import annotations

import numpy as np

from repro._types import KERNEL_TID, WORD_SIZE, Component
from repro.errors import KernelError
from repro.kernel.servers import bsd_server_layout, kernel_layout, x_server_layout
from repro.kernel.task import Task, TaskTable
from repro.kernel.vm import AddressSpaceLayout, VMSystem
from repro.machine.cpu import ChunkResult, ExecContext
from repro.machine.machine import Machine, MachineConfig

#: Stall-inclusive cycles per instruction, per component.  Calibrated so
#: the paper's own numbers reconcile: mpeg_play's user task takes 44.6%
#: of wall-clock time (Table 4) and its Figure 2 slowdowns imply about
#: 0.25 user references per total cycle — both hold with user code at
#: ~1.8 CPI on the 25 MHz DECstation, with kernel and server paths
#: stalling somewhat more.
COMPONENT_CPI = {
    Component.USER: 1.8,
    Component.BSD_SERVER: 2.0,
    Component.X_SERVER: 2.0,
    Component.KERNEL: 2.2,
}

#: The clock-interrupt handler's instruction footprint: one 4 KB pass
#: per tick.  Roughly 1000 instructions per tick at a 100 Hz clock
#: matches the scale of a Mach hardclock+softclock+callout path, and a
#: footprint spanning the paper's 4 KB experimental cache yields
#: Figure 4's dilation-error magnitudes.
INTERRUPT_BURST_BYTES = 4096
INTERRUPT_BURST_PASSES = 1

#: Only the hardclock prologue runs with interrupts masked; softclock and
#: the rest of the tick path run unmasked.  The paper: "only a very small
#: fraction of kernel code is affected" by the interrupt-mask bias.
INTERRUPT_MASKED_BYTES = 256


class Kernel:
    """A booted simulated system: machine + tasks + VM + servers."""

    def __init__(
        self,
        machine: Machine | None = None,
        alloc_policy: str = "random",
        trial_seed: int = 0,
        reserved_frames: int = 64,
        system_jitter_rng: np.random.Generator | None = None,
    ) -> None:
        self.machine = machine or Machine(MachineConfig())
        self.trial_seed = trial_seed
        self.tasks = TaskTable()
        self.vm = VMSystem(
            self.machine,
            alloc_policy=alloc_policy,
            trial_seed=trial_seed,
            reserved_frames=reserved_frames,
        )
        self.system_jitter_rng = system_jitter_rng or np.random.default_rng(
            trial_seed + 0x5EED
        )
        #: set by Tapeworm when it installs itself
        self.tapeworm = None

        # -- boot: the kernel task itself, then the system servers
        kernel_task = self.tasks.create("mach_kernel", Component.KERNEL)
        assert kernel_task.tid == KERNEL_TID
        self.vm.attach_task(KERNEL_TID, kernel_layout())
        self.bsd_server = self.spawn(
            "bsd_server", Component.BSD_SERVER, layout=bsd_server_layout()
        )
        self.x_server = self.spawn(
            "x_server", Component.X_SERVER, layout=x_server_layout()
        )

        self.machine.install_page_fault_handler(self._page_fault)
        self.machine.install_tick_handler(self._clock_tick)
        self._masked_burst, self._open_burst = self._build_interrupt_bursts()
        self.tick_results = ChunkResult()

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------

    def spawn(
        self,
        name: str,
        component: Component,
        parent_tid: int | None = None,
        layout: AddressSpaceLayout | None = None,
    ) -> Task:
        """Create a task; with a parent this is a fork, and the child
        inherits Tapeworm attributes by the paper's rule."""
        task = self.tasks.create(name, component, parent_tid=parent_tid)
        self.vm.attach_task(task.tid, layout or AddressSpaceLayout())
        return task

    def fork(self, parent_tid: int, name: str, layout: AddressSpaceLayout | None = None) -> Task:
        parent = self.tasks.get(parent_tid)
        return self.spawn(name, parent.component, parent_tid=parent_tid, layout=layout)

    def exit_task(self, tid: int) -> None:
        """Terminate a task: every page is unmapped, which drives
        ``tw_remove_page`` for each (flushing the simulated cache)."""
        if tid == KERNEL_TID:
            raise KernelError("cannot exit the kernel task")
        self.tasks.exit(tid)
        self.vm.detach_task(tid)
        self.machine.hw_tlb.flush_asid(tid)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def context_for(self, task: Task) -> ExecContext:
        return ExecContext(
            tid=task.tid,
            component=task.component,
            cpi=COMPONENT_CPI[task.component],
        )

    def run_chunk(
        self,
        task: Task,
        vas: np.ndarray,
        writes: np.ndarray | None = None,
    ) -> ChunkResult:
        return self.machine.cpu.run_chunk(
            self.context_for(task), vas, writes=writes
        )

    # ------------------------------------------------------------------
    # trap plumbing
    # ------------------------------------------------------------------

    def _page_fault(self, ctx: ExecContext, vpn: int) -> None:
        self.vm.fault(ctx.tid, vpn)

    def _build_interrupt_bursts(self) -> tuple[np.ndarray, np.ndarray]:
        region = kernel_layout().region_named("interrupt")
        masked = np.arange(
            region.start_va,
            region.start_va + INTERRUPT_MASKED_BYTES,
            WORD_SIZE,
            dtype=np.int64,
        )
        body = np.arange(
            region.start_va + INTERRUPT_MASKED_BYTES,
            region.start_va + INTERRUPT_BURST_BYTES,
            WORD_SIZE,
            dtype=np.int64,
        )
        return masked, np.tile(body, INTERRUPT_BURST_PASSES)

    def _clock_tick(self, ticks: int) -> ChunkResult:
        """Run the clock-interrupt handler ``ticks`` times.

        The hardclock prologue executes with interrupts masked, so any
        ECC traps its references would raise are *lost* — the
        kernel-reference measurement bias of section 4.2.  The larger
        softclock body runs unmasked; its cache pollution is what turns
        extra ticks into extra misses (time dilation, Figure 4).
        """
        kernel_task = self.tasks.get(KERNEL_TID)
        ctx = self.context_for(kernel_task)
        total = ChunkResult()
        for _ in range(ticks):
            self.machine.mask_interrupts()
            try:
                total.merge(self.machine.cpu.run_chunk(ctx, self._masked_burst))
            finally:
                self.machine.unmask_interrupts()
            total.merge(self.machine.cpu.run_chunk(ctx, self._open_burst))
        self.tick_results.merge(total)
        return total

    def shutdown(self) -> None:
        """Tear down a finished run; the kernel cannot run afterwards.

        Uninstalls Tapeworm and unhooks the machine, breaking the
        reference cycles between kernel, machine and Tapeworm: the
        run's memory (ECC bitmaps, page tables) is then freed as soon as
        the last reference to the kernel drops, not at the next full
        garbage collection.
        """
        if self.tapeworm is not None:
            self.tapeworm.uninstall()
        self.machine.shutdown()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def publish_metrics(self, metrics) -> None:
        """Publish machine totals plus kernel-level counters into a
        metrics registry (``machine.*`` and ``kernel.*`` namespaces)."""
        self.machine.publish_metrics(metrics)
        metrics.gauge("kernel.tasks.user").set(self.tasks.user_task_count())
        ticks = self.tick_results
        if ticks.n_refs:
            metrics.counter("kernel.interrupt.refs").inc(ticks.n_refs)
            metrics.counter("kernel.interrupt.cycles").inc(
                ticks.base_cycles + ticks.sim_cycles
            )
        if ticks.masked_traps:
            metrics.counter("kernel.interrupt.masked_traps").inc(
                ticks.masked_traps
            )
