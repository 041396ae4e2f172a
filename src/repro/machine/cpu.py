"""The reference-stream execution engine.

This is the simulated hardware's fast path.  A workload presents whole
*chunks* of virtual addresses (numpy arrays); the CPU translates them,
consults the trap state (ECC granule bits, page valid bits, breakpoints)
vectorized, and enters the kernel only for the references that actually
trap — the exact analogue of the paper's claim that "Tapeworm uses the
underlying hardware to filter out hits in the simulated cache structure."

Correct in-order delivery matters: a miss handler *sets* a trap on the
displaced line, and if that line is referenced again later in the same
chunk the hardware must trap there too.  The engine therefore keeps a
heap that holds, for each trapped location (an ECC granule or a VPN),
only that location's next occurrence in the segment.  It is seeded with
every trapped location's first occurrence (and every breakpoint hit).
After each queued position it adds the next occurrence of every
location a handler newly trapped — drained from the ECC controller's /
page table's logs — and of the position's own granule and VPN if they
are still trapped.  A later reference can trap only if its location is
trapped when it is reached, and that happens in exactly those three
ways, so no trap is missed; every queued position is re-checked against
live trap state before dispatch.  The heap's pops scale with the traps
delivered, not with the references that were candidates at segment
start, and the result is bit-identical to a reference-at-a-time
simulation, at numpy chunk speed (``docs/INTERNALS.md`` §4).

When ECC is the only trap source, a segment is first offered whole to
the trap vector's batch handler, which may deliver all of its traps as
one vectorized update; the heap above is the path for everything it
declines (``docs/INTERNALS.md``, "Batched trap delivery").
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

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


class ExecContext(NamedTuple):
    """Who is executing: task, workload component, and its base CPI."""

    tid: int
    component: Component
    cpi: float = 1.0


@dataclass(slots=True)
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
            pfns = table.v2p[vpns]
            unmapped = (pfns < 0).nonzero()[0]
            if len(unmapped) == 0:
                end = len(vas)
            elif unmapped[0] == 0:
                machine.deliver_page_fault(ctx, int(vpns[0]))
                result.page_faults += 1
                result.base_cycles += PAGE_FAULT_CYCLES
                continue
            else:
                end = start + int(unmapped[0])
                vpns, pfns = vpns[: end - start], pfns[: end - start]
            segment = vas[start:end]
            self._execute_segment(
                ctx,
                table,
                segment,
                vpns,
                # the translation, from the gather the unmapped check made
                table.addresses_from(pfns, segment),
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
        vpns: np.ndarray,
        pas: np.ndarray,
        result: ChunkResult,
        writes: np.ndarray | None = None,
    ) -> None:
        """Run one fully-mapped run of references (``vpns`` and ``pas``
        are its translation): scan for trap candidates, deliver in
        order."""
        machine = self.machine
        mechanisms = machine.active_mechanisms
        use_ecc = TrapMechanism.ECC in mechanisms
        use_pages = TrapMechanism.PAGE_VALID in mechanisms
        use_breakpoints = (
            TrapMechanism.BREAKPOINT in mechanisms
            and machine.breakpoints.n_active() > 0
        )
        # One candidate mask per active mechanism, None when inactive.
        granules = pas >> GRANULE_SHIFT if use_ecc else None
        ecc_mask = machine.ecc.granule_trapped[granules] if use_ecc else None
        page_mask = (
            table.resident[vpns] & ~table.valid[vpns] if use_pages else None
        )
        breakpoint_mask = (
            machine.breakpoints.check_chunk(vas) if use_breakpoints else None
        )
        if not (
            (use_ecc and ecc_mask.any())
            or (use_pages and page_mask.any())
            or (use_breakpoints and breakpoint_mask.any())
        ):
            return  # no trap candidates
        if use_ecc and not use_pages and not use_breakpoints and writes is None:
            if machine.interrupts_masked:
                # no handler runs and no store clears a trap, so the
                # trap state stays as it is: every candidate is a lost
                # trap, as the loop below would count them one by one
                machine.dispatcher.segments["per_trap"] += 1
                result.masked_traps += int(np.count_nonzero(ecc_mask))
                return
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
                    candidates=ecc_mask,
                )
            )
            if batch is not None:
                result.sim_cycles += batch.cycles
                result.traps += len(batch.positions)
                return
        machine.dispatcher.segments["per_trap"] += 1
        self._process_candidates(
            ctx, table, vas, vpns, pas, granules,
            ecc_mask, page_mask, breakpoint_mask, result, writes,
        )

    def _process_candidates(
        self,
        ctx: ExecContext,
        table: PageTable,
        vas: np.ndarray,
        vpns: np.ndarray,
        pas: np.ndarray,
        granules: np.ndarray | None,
        ecc_mask: np.ndarray | None,
        page_mask: np.ndarray | None,
        breakpoint_mask: np.ndarray | None,
        result: ChunkResult,
        writes: np.ndarray | None = None,
    ) -> None:
        """In-order trap delivery, one queued occurrence per trapped
        location.

        ``ecc_mask`` / ``page_mask`` / ``breakpoint_mask`` flag the
        positions each active mechanism would trap at segment start
        (None when the mechanism is off).  The heap holds each trapped
        location's next occurrence only; see the module docstring for
        why that queues every reference that traps.
        """
        machine = self.machine
        ecc = machine.ecc
        use_ecc = ecc_mask is not None
        use_pages = page_mask is not None
        use_breakpoints = breakpoint_mask is not None
        # Stale logs from outside this segment are irrelevant.
        if use_ecc:
            ecc.drain_recent_sets()
        if use_pages:
            table.drain_recent_invalidations()

        # One PositionIndex per location array, built on first use,
        # serves the seeds, each position's next occurrence and the
        # lookups for newly trapped locations.
        granule_rescan = RescanBinding(granules, "granule") if use_ecc else None
        vpn_rescan = RescanBinding(vpns, "vpn") if use_pages else None
        seeds = []
        if use_ecc and ecc_mask.any():
            seeds.append(granule_rescan.first_occurrences(ecc_mask))
        if use_pages and page_mask.any():
            seeds.append(vpn_rescan.first_occurrences(page_mask))
        if use_breakpoints:
            seeds.append(np.flatnonzero(breakpoint_mask))
        heap = np.sort(np.concatenate(seeds)).tolist()  # sorted: a heap
        previous = -1
        while heap:
            i = heappop(heap)
            if i == previous:
                continue  # queued twice for the same reference
            previous = i
            delivered = page_trapped = ecc_trapped = False

            # Page-invalid traps fire at translation time, before the
            # memory access, so they take priority over ECC traps.
            if use_pages:
                vpn = int(vpns[i])
                page_trapped = table.is_page_trapped(vpn)
                if page_trapped:
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

            if use_ecc:
                granule = granules[i]
                ecc_trapped = bool(ecc.granule_trapped[granule])
            if ecc_trapped:
                is_write = writes is not None and bool(writes[i])
                if is_write and not machine.config.allocate_on_write:
                    # the store overwrites the word, regenerating correct
                    # ECC: the trap evaporates with no kernel entry — the
                    # no-allocate-on-write mechanism that defeats D-cache
                    # simulation on this machine (section 4.4)
                    ecc.clear_trap(
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

            # Only a handler sets traps: queue the next occurrence
            # after i of every location it trapped.
            if delivered:
                if use_ecc:
                    for trapped in ecc.drain_recent_sets():
                        later = granule_rescan.occurrences_after(trapped, i)
                        if len(later):
                            heappush(heap, int(later[0]))
                if use_pages:
                    for trapped in table.drain_recent_invalidations():
                        later = vpn_rescan.occurrences_after(trapped, i)
                        if len(later):
                            heappush(heap, int(later[0]))
            # A location trapped here that still is (a masked interrupt,
            # a dropped clear, a restored true-error trap, a handler that
            # leaves it) traps at its next occurrence too: queue that.
            if ecc_trapped and ecc.granule_trapped[granule]:
                later = granule_rescan.next_occurrence(i)
                if later >= 0:
                    heappush(heap, later)
            if page_trapped and table.is_page_trapped(vpn):
                later = vpn_rescan.next_occurrence(i)
                if later >= 0:
                    heappush(heap, later)

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
