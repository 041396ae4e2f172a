"""The reference-stream execution engine.

This is the simulated hardware's fast path.  A workload presents whole
*chunks* of virtual addresses (numpy arrays); the CPU translates them,
consults the trap state (ECC granule bits, page valid bits, breakpoints)
vectorized, and enters the kernel only for the references that actually
trap — the exact analogue of the paper's claim that "Tapeworm uses the
underlying hardware to filter out hits in the simulated cache structure."

Correct in-order delivery matters: a miss handler *sets* a trap on the
displaced line, and if that line is referenced again later in the same
chunk the hardware must trap there too.  The engine therefore keeps a heap
of candidate chunk positions; after every handled trap it drains the
ECC controller's / page table's log of newly trapped locations and pushes
any later occurrences of them back onto the heap.  Every candidate is
re-checked against live trap state before dispatch, so stale candidates
(cleared by an earlier handler) are skipped.  The result is bit-identical
to a reference-at-a-time simulation, at numpy chunk speed.

When ECC is the only trap source, a segment is first offered whole to
the trap vector's batch handler, which may deliver all of its traps as
one vectorized update; the heap above is the path for everything it
declines (``docs/INTERNALS.md``, "Batched trap delivery").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro._types import Component, TrapMechanism
from repro.errors import MachineError
from repro.machine.chunkindex import RescanBinding
from repro.machine.mmu import PAGE_SHIFT, PageTable
from repro.machine.traps import TrapFrame, TrapKind, TrapSegment
from repro.telemetry.session import active as _telemetry

#: log2 of the ECC check granule (16 bytes).
GRANULE_SHIFT = 4

#: the granule size/mask derived from it — used wherever a physical
#: address must be aligned to one ECC check granule
GRANULE_BYTES = 1 << GRANULE_SHIFT

#: Cycles charged for a VM page fault (kernel fault path + map).  Faults
#: occur in instrumented and uninstrumented runs alike, so this is *base*
#: cost, never simulation overhead.
PAGE_FAULT_CYCLES = 300


@dataclass(frozen=True)
class ExecContext:
    """Who is executing: task, workload component, and its base CPI."""

    tid: int
    component: Component
    cpi: float = 1.0


@dataclass
class ChunkResult:
    """Cycle and trap accounting for one executed chunk."""

    n_refs: int = 0
    base_cycles: int = 0
    sim_cycles: int = 0
    traps: int = 0
    page_faults: int = 0
    masked_traps: int = 0
    #: traps erased by writes on a no-allocate-on-write machine — the
    #: misses a data-cache simulation would silently lose (section 4.4)
    silent_clears: int = 0
    ticks: int = 0

    def merge(self, other: "ChunkResult") -> None:
        self.n_refs += other.n_refs
        self.base_cycles += other.base_cycles
        self.sim_cycles += other.sim_cycles
        self.traps += other.traps
        self.page_faults += other.page_faults
        self.masked_traps += other.masked_traps
        self.silent_clears += other.silent_clears
        self.ticks += other.ticks


class CPU:
    """Executes reference chunks against a :class:`~repro.machine.machine.Machine`."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self._in_tick = False
        #: per-component totals, for the Monster-style monitor
        self.refs_by_component: dict[Component, int] = {c: 0 for c in Component}
        self.cycles_by_component: dict[Component, int] = {c: 0 for c in Component}

    # ------------------------------------------------------------------
    # the chunk engine
    # ------------------------------------------------------------------

    def run_chunk(
        self,
        ctx: ExecContext,
        vas: np.ndarray,
        writes: np.ndarray | None = None,
    ) -> ChunkResult:
        """Execute one chunk of virtual addresses in ``ctx``.

        Page faults are taken *in reference order*: execution proceeds
        up to the first unmapped reference, the kernel faults the page
        in (possibly evicting another — which later references in this
        very chunk may then re-fault, exactly as on real hardware under
        memory pressure), and execution continues.  First-touch order is
        what exposes run-to-run page-allocation variance (Table 9).

        ``writes`` optionally marks store references.  On a machine
        without allocate-on-write, a store to a trapped location
        *overwrites* it, regenerating correct ECC: the trap evaporates
        without any kernel entry — the mechanism that blocks data-cache
        simulation on the DECstation (section 4.4).

        Returns the cycle/trap accounting; the machine's clock advances
        and pending clock interrupts are delivered at chunk end.
        """
        machine = self.machine
        result = ChunkResult(n_refs=len(vas))
        if len(vas) == 0:
            return result
        vas = np.ascontiguousarray(vas, dtype=np.int64)
        if writes is not None:
            writes = np.ascontiguousarray(writes, dtype=bool)
        table = machine.mmu.table(ctx.tid)

        start = 0
        while start < len(vas):
            vpns = vas[start:] >> PAGE_SHIFT
            unmapped = np.nonzero(table.v2p[vpns] < 0)[0]
            if len(unmapped) == 0:
                end = len(vas)
            elif unmapped[0] == 0:
                machine.deliver_page_fault(ctx, int(vpns[0]))
                result.page_faults += 1
                result.base_cycles += PAGE_FAULT_CYCLES
                continue
            else:
                end = start + int(unmapped[0])
            self._execute_segment(
                ctx,
                table,
                vas[start:end],
                result,
                None if writes is None else writes[start:end],
            )
            start = end

        result.base_cycles += int(round(len(vas) * ctx.cpi))
        self.refs_by_component[ctx.component] += len(vas)
        self.cycles_by_component[ctx.component] += result.base_cycles

        ticks = machine.clock.advance(result.base_cycles + result.sim_cycles)
        if ticks:
            session = _telemetry()
            if session is not None:
                session.spans.clock_ticks(machine.clock.now, ticks)
        if ticks and not self._in_tick and machine.tick_handler is not None:
            self._in_tick = True
            try:
                tick_result = machine.tick_handler(ticks)
            finally:
                self._in_tick = False
            if tick_result is not None:
                result.merge(tick_result)
        result.ticks += ticks
        return result

    def _execute_segment(
        self,
        ctx: ExecContext,
        table: PageTable,
        vas: np.ndarray,
        result: ChunkResult,
        writes: np.ndarray | None = None,
    ) -> None:
        """Run one fully-mapped run of references: translate, scan for
        trap candidates, deliver in order."""
        machine = self.machine
        vpns = vas >> PAGE_SHIFT
        pas = table.translate(vas)

        mechanisms = machine.active_mechanisms
        use_ecc = TrapMechanism.ECC in mechanisms
        use_pages = TrapMechanism.PAGE_VALID in mechanisms
        use_breakpoints = (
            TrapMechanism.BREAKPOINT in mechanisms
            and machine.breakpoints.n_active() > 0
        )
        # One candidate mask per active mechanism.  Each is a fresh array
        # (fancy indexing / elementwise ops), so OR-ing into the first
        # mutates no trap state.
        granules = pas >> GRANULE_SHIFT if use_ecc else None
        masks = []
        if use_ecc:
            masks.append(machine.ecc.granule_trapped[granules])
        if use_pages:
            masks.append(table.resident[vpns] & ~table.valid[vpns])
        if use_breakpoints:
            masks.append(machine.breakpoints.check_chunk(vas))
        if not masks:
            return  # no trap mechanism active: no candidates exist
        candidate_mask = masks[0]
        for mask in masks[1:]:
            candidate_mask |= mask
        if not candidate_mask.any():
            return
        if (
            use_ecc
            and not use_pages
            and not use_breakpoints
            and writes is None
            and not machine.interrupts_masked
        ):
            # ECC is the only trap source: the miss handler may take the
            # whole segment at once, or decline it back to the loop below
            batch = machine.dispatcher.dispatch_segment(
                TrapSegment(
                    kind=TrapKind.ECC_ERROR,
                    tid=ctx.tid,
                    component=ctx.component,
                    cycle=machine.clock.now,
                    vas=vas,
                    pas=pas,
                    candidates=candidate_mask,
                )
            )
            if batch is not None:
                result.sim_cycles += batch.cycles
                result.traps += len(batch.positions)
                return
        machine.dispatcher.segments["per_trap"] += 1
        self._process_candidates(
            ctx, table, vas, vpns, pas, granules, candidate_mask,
            result, use_ecc, use_pages, use_breakpoints, writes,
        )

    def _process_candidates(
        self,
        ctx: ExecContext,
        table: PageTable,
        vas: np.ndarray,
        vpns: np.ndarray,
        pas: np.ndarray,
        granules: np.ndarray | None,
        candidate_mask: np.ndarray,
        result: ChunkResult,
        use_ecc: bool,
        use_pages: bool,
        use_breakpoints: bool,
        writes: np.ndarray | None = None,
    ) -> None:
        """In-order trap delivery with displaced-line rescans."""
        machine = self.machine
        # Stale logs from outside this chunk are irrelevant.
        if use_ecc:
            machine.ecc.drain_recent_sets()
        if use_pages:
            table.drain_recent_invalidations()

        heap = [int(i) for i in np.nonzero(candidate_mask)[0]]
        heapq.heapify(heap)
        # The PositionIndex behind each binding is built lazily on the
        # first handler that traps a displaced location — "next
        # occurrence of this granule/VPN after position i" becomes two
        # bisects, not an O(chunk) scan.
        granule_rescan = RescanBinding(granules, "granule") if use_ecc else None
        vpn_rescan = RescanBinding(vpns, "vpn") if use_pages else None
        previous = -1
        while heap:
            i = heapq.heappop(heap)
            if i == previous:
                continue  # duplicate candidate for the same reference
            previous = i
            delivered = False

            # Page-invalid traps fire at translation time, before the
            # memory access, so they take priority over ECC traps.
            if use_pages and table.is_page_trapped(int(vpns[i])):
                frame = TrapFrame(
                    kind=TrapKind.PAGE_INVALID,
                    tid=ctx.tid,
                    component=ctx.component,
                    va=int(vas[i]),
                    pa=int(pas[i]),
                    cycle=machine.clock.now,
                )
                result.sim_cycles += machine.dispatcher.dispatch(frame)
                result.traps += 1
                delivered = True

            if use_ecc and machine.ecc.granule_trapped[granules[i]]:
                is_write = writes is not None and bool(writes[i])
                if is_write and not machine.config.allocate_on_write:
                    # the store overwrites the word, regenerating correct
                    # ECC: the trap evaporates with no kernel entry — the
                    # no-allocate-on-write mechanism that defeats D-cache
                    # simulation on this machine (section 4.4)
                    machine.ecc.clear_trap(
                        int(pas[i]) & ~(GRANULE_BYTES - 1), GRANULE_BYTES
                    )
                    result.silent_clears += 1
                elif machine.interrupts_masked:
                    # ECC errors raise a hardware *interrupt* on this
                    # machine; with interrupts masked the trap is lost and
                    # the miss goes uncounted (paper, "Sources of
                    # Measurement Bias").
                    result.masked_traps += 1
                else:
                    frame = TrapFrame(
                        kind=TrapKind.ECC_ERROR,
                        tid=ctx.tid,
                        component=ctx.component,
                        va=int(vas[i]),
                        pa=int(pas[i]),
                        cycle=machine.clock.now,
                    )
                    result.sim_cycles += machine.dispatcher.dispatch(frame)
                    result.traps += 1
                    delivered = True

            if use_breakpoints and machine.breakpoints.hits(int(vas[i])):
                frame = TrapFrame(
                    kind=TrapKind.BREAKPOINT,
                    tid=ctx.tid,
                    component=ctx.component,
                    va=int(vas[i]),
                    pa=int(pas[i]),
                    cycle=machine.clock.now,
                )
                result.sim_cycles += machine.dispatcher.dispatch(frame)
                result.traps += 1
                delivered = True

            if not delivered:
                continue

            # A handler may have set traps on displaced locations that
            # occur later in this very chunk; queue those positions.
            if use_ecc:
                for granule in machine.ecc.drain_recent_sets():
                    for pos in granule_rescan.occurrences_after(granule, i):
                        heapq.heappush(heap, int(pos))
            if use_pages:
                for vpn in table.drain_recent_invalidations():
                    for pos in vpn_rescan.occurrences_after(vpn, i):
                        heapq.heappush(heap, int(pos))

    # ------------------------------------------------------------------

    def reset_counters(self) -> None:
        self.refs_by_component = {c: 0 for c in Component}
        self.cycles_by_component = {c: 0 for c in Component}

    def publish_metrics(self, metrics) -> None:
        """Copy the per-component totals into a metrics registry
        (``machine.cpu.refs{component=...}`` / ``machine.cpu.cycles``)."""
        for component in Component:
            refs = self.refs_by_component[component]
            if refs:
                metrics.counter(
                    "machine.cpu.refs", component=component.value
                ).inc(refs)
            cycles = self.cycles_by_component[component]
            if cycles:
                metrics.counter(
                    "machine.cpu.cycles", component=component.value
                ).inc(cycles)
