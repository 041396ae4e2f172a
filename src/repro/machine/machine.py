"""The machine facade: one object owning all simulated hardware.

A :class:`Machine` is the substrate both simulation styles run on.  The
kernel installs its fault and interrupt callbacks here; Tapeworm reaches
the trap hardware (ECC controller, page tables, breakpoints) through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro._types import CLOCK_TICK_CYCLES, TrapMechanism
from repro.errors import ConfigError, MachineError
from repro.machine.breakpoints import BreakpointUnit
from repro.machine.clock import ClockTimer
from repro.machine.cpu import CPU, ChunkResult, ExecContext
from repro.machine.ecc import ECCController
from repro.machine.memory import PhysicalMemory
from repro.machine.mmu import MMU
from repro.machine.tlb import HardwareTLB
from repro.machine.traps import TrapDispatcher, TrapKind
from repro.telemetry.session import active as _telemetry


@dataclass(frozen=True)
class MachineConfig:
    """Geometry of the simulated DECstation.

    Defaults give 64 MB of physical memory and 32 MB of virtual address
    space per task — generous for the scaled-down synthetic workloads
    while keeping the numpy trap bitmaps small.
    """

    memory_bytes: int = 64 * 1024 * 1024
    n_vpages: int = 8192
    tick_cycles: int = CLOCK_TICK_CYCLES
    #: Modeled write-allocation policy of the host D-cache.  The
    #: DECstation 5000/200 does *not* allocate on write, which clears ECC
    #: traps without entering the miss handler and therefore blocks data
    #: cache simulation on this machine model (paper section 4.4).
    allocate_on_write: bool = False

    def __post_init__(self) -> None:
        if self.n_vpages <= 0:
            raise ConfigError(f"n_vpages must be positive, got {self.n_vpages}")


#: Signature of the kernel's page-fault upcall.
PageFaultHandler = Callable[[ExecContext, int], None]

#: Signature of the kernel's clock-tick upcall.  It may execute interrupt
#: handler references and return their accounting.
TickHandler = Callable[[int], "ChunkResult | None"]


class Machine:
    """All simulated hardware, wired together."""

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.memory = PhysicalMemory(self.config.memory_bytes)
        self.ecc = ECCController(self.memory)
        self.mmu = MMU(self.config.n_vpages)
        self.hw_tlb = HardwareTLB()
        self.breakpoints = BreakpointUnit()
        self.dispatcher = TrapDispatcher()
        self.clock = ClockTimer(self.config.tick_cycles)
        self.cpu = CPU(self)
        #: trap sources the CPU scans on every chunk; Tapeworm enables the
        #: one backing its current simulation
        self.active_mechanisms: set[TrapMechanism] = set()
        #: hardware interrupt mask (kernel-controlled); masks ECC traps
        self.interrupts_masked = False
        self.page_fault_handler: PageFaultHandler | None = None
        self.tick_handler: TickHandler | None = None

    # -- kernel wiring

    def install_page_fault_handler(self, handler: PageFaultHandler) -> None:
        if self.page_fault_handler is not None:
            raise MachineError("a page-fault handler is already installed")
        self.page_fault_handler = handler

    def install_tick_handler(self, handler: TickHandler) -> None:
        if self.tick_handler is not None:
            raise MachineError("a tick handler is already installed")
        self.tick_handler = handler

    def deliver_page_fault(self, ctx: ExecContext, vpn: int) -> None:
        self.dispatcher.counts[TrapKind.PAGE_FAULT] += 1
        session = _telemetry()
        if session is not None:
            session.spans.page_fault(
                self.clock.now, ctx.component, ctx.tid, vpn
            )
        if self.page_fault_handler is None:
            raise MachineError(
                f"page fault on vpn {vpn} of task {ctx.tid} with no kernel "
                "fault handler installed"
            )
        self.page_fault_handler(ctx, vpn)

    def shutdown(self) -> None:
        """Drop the kernel's callbacks and the CPU's back-reference, the
        cycles that keep a finished machine alive until a full garbage
        collection (``Kernel.shutdown``).  The machine cannot run
        afterwards."""
        self.page_fault_handler = None
        self.tick_handler = None
        self.cpu.machine = None

    # -- trap mechanism control (used by Tapeworm's machine-dependent layer)

    def enable_mechanism(self, mechanism: TrapMechanism) -> None:
        self.active_mechanisms.add(mechanism)

    def disable_mechanism(self, mechanism: TrapMechanism) -> None:
        self.active_mechanisms.discard(mechanism)

    def mask_interrupts(self) -> None:
        self.interrupts_masked = True

    def unmask_interrupts(self) -> None:
        self.interrupts_masked = False

    # -- observability

    def publish_metrics(self, metrics) -> None:
        """Publish every hardware unit's totals into a metrics registry
        under the ``machine.*`` namespace."""
        self.cpu.publish_metrics(metrics)
        self.dispatcher.publish_metrics(metrics)
        self.clock.publish_metrics(metrics)
