"""Machine-plane fault injection.

The injector rides the execution engine's chunk tap: after every
executed chunk it consults the plan's schedule and perturbs the
*machine* — ECC state, DMA engine, trap primitives — never the
simulator's own bookkeeping.  That discipline is the point: an injected
fault must be discovered the way the paper's hazards were discovered
(a trap classifying as a true error, an invariant audit, a miss count
drifting), not by the injector whispering to the detector.

Every random choice is drawn from ``default_rng([plan.seed,
trial_seed])``, so a chaos run replays exactly from ``(plan, seed)``.

Fault semantics (all between chunks, on granule/line boundaries):

``ecc_single``
    flips one data bit on a granule that carries *no* Tapeworm trap —
    a correctable true error.  The handler must classify, scrub, and
    leave the miss counts alone.  (On a trapped granule the same flip
    would also be recoverable, but the real machine re-executes the
    interrupted load after scrubbing while this simulator does not, so
    the displaced Tapeworm miss would surface one reference later —
    targeting untrapped granules keeps "miss counts unperturbed" exact.)
``ecc_double``
    flips two data bits in one word — uncorrectable; the next refill
    must raise :class:`~repro.errors.DoubleBitError`.
``dma_trap_clear``
    a DMA write (no shield hook — the un-ported 5000/240) over a
    trapped line: ECC regenerated, trap silently gone.
``spurious_trap``
    sets the Tapeworm check bit on a line the simulated cache holds.
``trap_clear_drop``
    arms a one-shot interceptor on ``tw_clear_trap``: the next clear is
    silently lost, as if the diagnostic-mode write never reached the
    ASIC.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.machine.dma import DMAEngine
from repro.machine.memory import GRANULE_BYTES
from repro.machine.traps import TrapKind

logger = logging.getLogger(__name__)

#: in-memory ledger entry cap; beyond it the oldest half rotates out so
#: a fault storm cannot grow the ledger without bound (applied counts
#: stay exact — they are tallied at append time, not by scanning)
LEDGER_CAP = 4096


@dataclass
class Injection:
    """Ledger entry: one scheduled fault occurrence."""

    kind: FaultKind
    chunk_index: int
    detail: str
    pa: int | None = None
    granule: int | None = None
    #: False when no viable target existed at the scheduled moment
    applied: bool = True

    def describe(self) -> str:
        where = f" pa={self.pa:#x}" if self.pa is not None else ""
        state = "" if self.applied else " (not applied)"
        return (
            f"{self.kind.value}@chunk{self.chunk_index}{where}: "
            f"{self.detail}{state}"
        )


class MachineFaultInjector:
    """Executes the machine-plane schedule of a :class:`FaultPlan`."""

    #: attempts at finding a target satisfying a fault's preconditions
    _PICK_TRIES = 16

    def __init__(
        self, tapeworm, plan: FaultPlan, trial_seed: int = 0
    ) -> None:
        self.tapeworm = tapeworm
        self.machine = tapeworm.machine
        self.plan = plan
        self.rng = np.random.default_rng(
            [plan.seed & 0xFFFFFFFF, trial_seed & 0xFFFFFFFF]
        )
        self.ledger: list[Injection] = []
        self.ledger_rotations = 0
        self._applied_counts: dict[FaultKind, int] = {}
        self._rotation_logged = False
        self.dropped_clears: list[tuple[int, int]] = []
        self._pending_drops = 0
        self._drop_entries: list[Injection] = []
        self._chunks = 0
        self._armed = False
        self._orig_clear = None
        self._batch = None
        self._dma = DMAEngine(self.machine)
        self._schedule: dict[int, list[FaultSpec]] = {}
        for spec in plan.machine_specs():
            for when in spec.occurrences():
                self._schedule.setdefault(when, []).append(spec)

    # ------------------------------------------------------------------
    # arming: intercept tw_clear_trap for drop faults
    # ------------------------------------------------------------------

    def arm(self) -> None:
        if self._armed:
            return
        # batched delivery writes trap bits without calling
        # tw_clear_trap, so it would never see a drop: withdraw it
        dispatcher = self.machine.dispatcher
        self._batch = dispatcher.withdraw_batch(TrapKind.ECC_ERROR)
        primitives = self.tapeworm.primitives
        self._orig_clear = primitives.tw_clear_trap

        def intercepted(pa: int, size: int) -> None:
            if self._pending_drops > 0:
                self._pending_drops -= 1
                self.dropped_clears.append((pa, size))
                if len(self.dropped_clears) > LEDGER_CAP:
                    del self.dropped_clears[: LEDGER_CAP // 2]
                entry = self._drop_entries.pop(0)
                entry.pa = pa
                entry.granule = pa // GRANULE_BYTES
                entry.detail = (
                    f"dropped tw_clear_trap({pa:#x}, {size}) on the floor"
                )
                return
            self._orig_clear(pa, size)

        primitives.tw_clear_trap = intercepted
        self._armed = True

    def disarm(self) -> None:
        if not self._armed:
            return
        self.tapeworm.primitives.tw_clear_trap = self._orig_clear
        self._orig_clear = None
        if self._batch is not None:
            dispatcher = self.machine.dispatcher
            dispatcher.install_batch(TrapKind.ECC_ERROR, self._batch)
            self._batch = None
        self._armed = False

    # ------------------------------------------------------------------
    # the chunk tap
    # ------------------------------------------------------------------

    def on_chunk(self, tid: int, component, vas: np.ndarray) -> None:
        index = self._chunks
        self._chunks += 1
        for spec in self._schedule.get(index, ()):
            self._inject(spec, index, tid, vas)

    def injections_applied(self, kind: FaultKind | None = None) -> int:
        if kind is not None:
            return self._applied_counts.get(kind, 0)
        return sum(self._applied_counts.values())

    def _ledger_append(self, entry: Injection) -> None:
        """Record an injection, rotating the oldest half past the cap.

        The applied tally is taken here (entries never flip ``applied``
        later), so rotation loses narrative detail but never counts.
        """
        if entry.applied:
            self._applied_counts[entry.kind] = (
                self._applied_counts.get(entry.kind, 0) + 1
            )
        self.ledger.append(entry)
        if len(self.ledger) > LEDGER_CAP:
            del self.ledger[: LEDGER_CAP // 2]
            self.ledger_rotations += 1
            if not self._rotation_logged:
                self._rotation_logged = True
                logger.warning(
                    "fault ledger exceeded %d entries; rotating the "
                    "oldest half out (counts stay exact; further "
                    "rotations are silent)", LEDGER_CAP,
                )

    # ------------------------------------------------------------------
    # per-kind implementations
    # ------------------------------------------------------------------

    def _inject(
        self, spec: FaultSpec, index: int, tid: int, vas: np.ndarray
    ) -> None:
        kind = spec.kind
        if kind is FaultKind.ECC_SINGLE:
            entry = self._inject_ecc(index, tid, vas, double=False)
        elif kind is FaultKind.ECC_DOUBLE:
            entry = self._inject_ecc(index, tid, vas, double=True)
        elif kind is FaultKind.DMA_TRAP_CLEAR:
            entry = self._inject_dma_clear(index)
        elif kind is FaultKind.SPURIOUS_TRAP:
            entry = self._inject_spurious_trap(index)
        elif kind is FaultKind.TRAP_CLEAR_DROP:
            entry = Injection(
                kind=FaultKind.TRAP_CLEAR_DROP,
                chunk_index=index,
                detail="armed: next tw_clear_trap will be lost",
            )
            self._pending_drops += 1
            self._drop_entries.append(entry)
        else:  # pragma: no cover - the plan split keeps infra kinds out
            raise AssertionError(f"not a machine-plane fault: {kind}")
        self._ledger_append(entry)

    def _sample_pa(self, tid: int, vas: np.ndarray) -> int:
        """A physical address the just-run chunk actually touched."""
        table = self.machine.mmu.table(tid)
        va = int(vas[int(self.rng.integers(0, len(vas)))])
        return int(table.translate(np.array([va], dtype=np.int64))[0])

    def _inject_ecc(
        self, index: int, tid: int, vas: np.ndarray, double: bool
    ) -> Injection:
        kind = FaultKind.ECC_DOUBLE if double else FaultKind.ECC_SINGLE
        ecc = self.machine.ecc
        pa = None
        for _ in range(self._PICK_TRIES):
            candidate = self._sample_pa(tid, vas)
            granule = self.machine.memory.granule_of(candidate)
            if granule in ecc.true_error_granules():
                continue  # stacking onto an existing error changes class
            if not double and ecc.is_tapeworm_trapped(candidate):
                continue  # singles target untrapped granules (see module doc)
            pa = candidate
            break
        if pa is None:
            return Injection(
                kind=kind, chunk_index=index, applied=False,
                detail="no viable target granule in this chunk",
            )
        bit = int(self.rng.integers(0, 32))
        ecc.inject_true_error(pa, bit=bit, double=double)
        pattern = "double-bit" if double else "single-bit"
        return Injection(
            kind=kind,
            chunk_index=index,
            pa=pa,
            granule=pa // GRANULE_BYTES,
            detail=f"injected {pattern} true error, first bit {bit}",
        )

    def _line_bytes(self) -> int:
        replacer = self.tapeworm.replacer
        return replacer.line_bytes if replacer is not None else GRANULE_BYTES

    def _inject_dma_clear(self, index: int) -> Injection:
        ecc = self.machine.ecc
        registry = self.tapeworm.registry
        candidates = [
            int(g)
            for g in ecc.tapeworm_granules()
            if registry.is_registered_frame(int(g) * GRANULE_BYTES)
        ]
        if not candidates:
            return Injection(
                kind=FaultKind.DMA_TRAP_CLEAR, chunk_index=index,
                applied=False, detail="no trapped granules to overwrite",
            )
        granule = candidates[int(self.rng.integers(0, len(candidates)))]
        line_bytes = self._line_bytes()
        base = (granule * GRANULE_BYTES) & ~(line_bytes - 1)
        # an unshielded engine: ECC regenerated, Tapeworm never notified
        self._dma.write(base, line_bytes)
        return Injection(
            kind=FaultKind.DMA_TRAP_CLEAR,
            chunk_index=index,
            pa=base,
            granule=base // GRANULE_BYTES,
            detail=f"unshielded DMA write of {line_bytes} bytes",
        )

    def _inject_spurious_trap(self, index: int) -> Injection:
        structure = getattr(self.tapeworm, "structure", None)
        if structure is None:
            return Injection(
                kind=FaultKind.SPURIOUS_TRAP, chunk_index=index,
                applied=False, detail="no ECC-trapped structure to target",
            )
        cache = getattr(structure, "l1", structure)
        keys = sorted(cache.resident_keys())
        line_bytes = self._line_bytes()
        for _ in range(self._PICK_TRIES):
            if not keys:
                break
            key = keys[int(self.rng.integers(0, len(keys)))]
            pa = self.tapeworm.replacer.trap_target(key)
            if pa is None:
                continue
            self.machine.ecc.set_trap(pa, line_bytes)
            return Injection(
                kind=FaultKind.SPURIOUS_TRAP,
                chunk_index=index,
                pa=pa,
                granule=pa // GRANULE_BYTES,
                detail="trap set on a simulated-cache-resident line",
            )
        return Injection(
            kind=FaultKind.SPURIOUS_TRAP, chunk_index=index,
            applied=False, detail="no resident registered line found",
        )
