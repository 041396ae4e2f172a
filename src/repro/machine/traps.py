"""Trap kinds, trap frames, and the kernel trap dispatch table.

Every hardware event that enters the kernel is represented as a
:class:`TrapFrame`.  The kernel installs handlers on a
:class:`TrapDispatcher`; Tapeworm's miss handler is just one such handler
(for :data:`TrapKind.ECC_ERROR` or :data:`TrapKind.PAGE_INVALID`),
registered through the kernel exactly as the paper describes — "modified
kernel entry code" directing these traps to Tapeworm.

A handler returns the number of cycles it consumed, which the CPU adds to
the run's overhead.  This is how the paper's 246-cycle miss handler turns
into measured slowdown.

Beside the per-trap vector, a kind may carry a *batch handler*: the CPU
offers it a whole :class:`TrapSegment`, and the handler either delivers
every trap of the segment at once (returning a :class:`TrapBatch`) or
declines, and the CPU delivers trap by trap as usual.  The dispatcher
counts and traces a batch's traps exactly as it would have dispatched
them one at a time (``docs/INTERNALS.md``, "Batched trap delivery").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro._types import Component
from repro.errors import MachineError
from repro.telemetry.profile import phase
from repro.telemetry.session import active as _telemetry


class TrapKind(enum.Enum):
    """Hardware events that vector into the kernel."""

    ECC_ERROR = "ecc_error"
    PAGE_INVALID = "page_invalid"
    PAGE_FAULT = "page_fault"
    BREAKPOINT = "breakpoint"
    TLB_MISS = "tlb_miss"
    CLOCK_INTERRUPT = "clock_interrupt"
    DOUBLE_BIT_ERROR = "double_bit_error"


@dataclass(frozen=True)
class TrapFrame:
    """State pushed by the (simulated) hardware on a kernel entry."""

    kind: TrapKind
    tid: int
    component: Component
    va: int
    pa: int
    cycle: int


#: A trap handler consumes a frame and returns the cycles it spent.
TrapHandler = Callable[[TrapFrame], int]


class TrapSegment(NamedTuple):
    """A fully mapped run of references offered for batched delivery.

    ``candidates`` flags the references whose trap state was set when
    the segment started; ``cycle`` is the clock reading every trap of
    the segment would carry (the clock advances only at chunk end).
    """

    kind: TrapKind
    tid: int
    component: Component
    cycle: int
    vas: np.ndarray
    pas: np.ndarray
    candidates: np.ndarray


class TrapBatch(NamedTuple):
    """What a batch handler delivered: the segment positions that
    trapped, ascending, and the cycles each trap's handler took."""

    positions: np.ndarray
    cycles_each: int

    @property
    def cycles(self) -> int:
        return len(self.positions) * self.cycles_each


#: A batch handler delivers a whole segment's traps, or declines (None).
BatchHandler = Callable[[TrapSegment], "TrapBatch | None"]


class TrapDispatcher:
    """The kernel's trap vector table."""

    def __init__(self) -> None:
        self._handlers: dict[TrapKind, TrapHandler] = {}
        self._batch_handlers: dict[TrapKind, BatchHandler] = {}
        self.counts: dict[TrapKind, int] = {kind: 0 for kind in TrapKind}
        #: segments with trap candidates, by the path that delivered them
        self.segments: dict[str, int] = {"batch": 0, "per_trap": 0}

    def install(self, kind: TrapKind, handler: TrapHandler) -> None:
        if kind in self._handlers:
            raise MachineError(f"a handler is already installed for {kind}")
        self._handlers[kind] = handler

    def replace(self, kind: TrapKind, handler: TrapHandler) -> TrapHandler | None:
        """Swap in a new handler, returning the old one (or None).

        Any batch handler for ``kind`` is dropped: it would deliver
        traps without ever calling the new handler.
        """
        old = self._handlers.get(kind)
        self._handlers[kind] = handler
        self._batch_handlers.pop(kind, None)
        return old

    def uninstall(self, kind: TrapKind) -> None:
        if kind not in self._handlers:
            raise MachineError(f"no handler installed for {kind}")
        del self._handlers[kind]
        self._batch_handlers.pop(kind, None)

    def install_batch(self, kind: TrapKind, handler: BatchHandler) -> None:
        """Add a batch handler beside ``kind``'s installed trap handler."""
        if kind not in self._handlers:
            raise MachineError(f"no handler installed for {kind}")
        if kind in self._batch_handlers:
            raise MachineError(
                f"a batch handler is already installed for {kind}"
            )
        self._batch_handlers[kind] = handler

    def withdraw_batch(self, kind: TrapKind) -> BatchHandler | None:
        """Remove ``kind``'s batch handler, returning it (or None), so
        every trap goes through the per-trap handler — for interposers
        that wrap or intercept it."""
        return self._batch_handlers.pop(kind, None)

    def dispatch_segment(self, segment: TrapSegment) -> TrapBatch | None:
        """Offer a segment to its kind's batch handler.

        Returns None when no batch handler is installed or it declines;
        otherwise counts the delivered traps and records one trace event
        per trap, in delivery order, as :meth:`dispatch` would have.
        """
        handler = self._batch_handlers.get(segment.kind)
        if handler is None:
            return None
        with phase("machine.trap_batch"):
            batch = handler(segment)
        if batch is None:
            return None
        self.segments["batch"] += 1
        self.counts[segment.kind] += len(batch.positions)
        session = _telemetry()
        if session is not None:
            vas = segment.vas[batch.positions].tolist()
            pas = segment.pas[batch.positions].tolist()
            for va, pa in zip(vas, pas):
                frame = TrapFrame(
                    segment.kind, segment.tid, segment.component,
                    va, pa, segment.cycle,
                )
                session.spans.trap(frame, batch.cycles_each)
        return batch

    def installed(self, kind: TrapKind) -> bool:
        return kind in self._handlers

    def dispatch(self, frame: TrapFrame) -> int:
        """Deliver a trap; returns handler cycles (0 if unhandled)."""
        self.counts[frame.kind] += 1
        handler = self._handlers.get(frame.kind)
        cycles = 0 if handler is None else handler(frame)
        session = _telemetry()
        if session is not None:
            session.spans.trap(frame, cycles)
        return cycles

    def publish_metrics(self, metrics) -> None:
        """Copy dispatch totals into a metrics registry
        (``machine.traps.dispatched{kind=...}``, and
        ``machine.traps.segments{path=batch|per_trap}``)."""
        for kind, count in self.counts.items():
            if count:
                metrics.counter(
                    "machine.traps.dispatched", kind=kind.value
                ).inc(count)
        for path, count in self.segments.items():
            if count:
                metrics.counter("machine.traps.segments", path=path).inc(count)
