"""The Tapeworm II simulator.

The trap-driven core loop (Figure 1, right)::

    kernel traps invoke tw_miss(address):

    tw_miss(address){
        miss++;
        tw_clear_trap(address);
        displaced_address = tw_replace(address);
        tw_set_trap(displaced_address);
    }

A :class:`Tapeworm` installs itself into a booted kernel: it hooks the VM
system's page registration protocol, installs its miss handler on the
trap vector for its mechanism (ECC errors for cache simulation, invalid-
page traps for TLB simulation), and manages per-task ``(simulate,
inherit)`` attributes.  From then on the workload just runs; the hardware
filters hits and only simulated misses reach the handler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._types import PAGE_SIZE, Indexing, TrapMechanism
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig, TLBConfig
from repro.caches.kernels import (
    GROUPABLE_POLICIES,
    dm_grouped_pass,
    line_address,
    pack,
    unpack,
)
from repro.caches.multilevel import TwoLevelCache
from repro.caches.replacement import make_policy
from repro.caches.stats import CacheStats
from repro.caches.tlb import SimulatedTLB
from repro.core.costs import HandlerCostModel
from repro.core.flexibility import StructureKind, assert_trap_simulable
from repro.core.primitives import TrapPrimitives
from repro.core.registration import PageRegistry
from repro.core.replace import Replacer
from repro.core.sampling import SetSampler
from repro.errors import (
    ConfigError,
    DoubleBitError,
    TapewormError,
    UnsupportedStructure,
)
from repro.kernel.kernel import Kernel
from repro.machine.ecc import TrapClass
from repro.machine.memory import GRANULE_BYTES
from repro.machine.mmu import PAGE_SHIFT
from repro.machine.traps import TrapBatch, TrapFrame, TrapKind, TrapSegment

#: cycles the handler spends logging/scrubbing a *true* ECC error before
#: resuming (rare: about one per year of operation in the paper)
TRUE_ERROR_HANDLING_CYCLES = 500


@dataclass(frozen=True)
class TapewormConfig:
    """What to simulate, and how.

    ``structure`` selects among:

    * ``"cache"``     — one cache (``cache`` config), ECC-bit traps;
    * ``"two_level"`` — inclusive hierarchy (``cache`` = L1, ``l2``), ECC;
    * ``"tlb"``       — a TLB (``tlb`` config), page-valid-bit traps.

    ``sampling`` is the set-sampling denominator (1 = no sampling), with
    ``sampling_seed`` choosing which sets, per trial.
    """

    structure: str = "cache"
    cache: CacheConfig | None = None
    l2: CacheConfig | None = None
    tlb: TLBConfig | None = None
    replacement: str = "lru"
    sampling: int = 1
    sampling_seed: int = 0
    handler_variant: str = "optimized"
    policy_seed: int = 0
    #: what the cache models; data/unified caches need a write-allocate
    #: host machine, write buffers are rejected outright (section 4.4)
    kind: StructureKind = StructureKind.INSTRUCTION_CACHE

    def __post_init__(self) -> None:
        if self.structure not in ("cache", "two_level", "tlb"):
            raise ConfigError(f"unknown structure {self.structure!r}")
        if self.structure in ("cache", "two_level") and self.cache is None:
            raise ConfigError(f"structure {self.structure!r} needs a cache config")
        if self.structure == "two_level" and self.l2 is None:
            raise ConfigError("two_level structure needs an l2 config")
        if self.structure == "tlb" and self.tlb is None:
            raise ConfigError("tlb structure needs a tlb config")


class Tapeworm:
    """The in-kernel trap-driven simulator."""

    def __init__(self, kernel: Kernel, config: TapewormConfig) -> None:
        self.kernel = kernel
        self.machine = kernel.machine
        self.config = config
        self.cost_model = HandlerCostModel(config.handler_variant)
        # TLB simulations index registrations by (tid, superpage) so the
        # miss handler can enumerate an entry's pages without scanning
        # the whole task (cache simulations never query that index).
        self.registry = PageRegistry(
            pages_per_superpage=(
                config.tlb.pages_per_entry
                if config.structure == "tlb"
                else 1
            )
        )
        self.stats = CacheStats()
        self.overhead_cycles = 0
        self.true_errors_detected = 0
        self._installed = False

        if config.structure == "tlb":
            mechanism = TrapMechanism.PAGE_VALID
            self.tlb = SimulatedTLB(
                config.tlb, make_policy(config.replacement, config.policy_seed)
            )
            self.replacer = None
            n_sets = config.tlb.n_sets
            self._miss_cycles = self.cost_model.cycles_per_tlb_miss(config.tlb)
        else:
            mechanism = TrapMechanism.ECC
            self.tlb = None
            if config.structure == "two_level":
                structure = TwoLevelCache(
                    config.cache,
                    config.l2,
                    make_policy(config.replacement, config.policy_seed),
                    make_policy(config.replacement, config.policy_seed + 1),
                )
            else:
                structure = SetAssociativeCache(
                    config.cache,
                    make_policy(config.replacement, config.policy_seed),
                )
            self.structure = structure
            self.replacer = Replacer(structure, self.registry)
            n_sets = config.cache.n_sets
            self._miss_cycles = self.cost_model.cycles_per_cache_miss(
                config.cache
            )
        self.primitives = TrapPrimitives(self.machine, mechanism)
        self.sampler = SetSampler(
            n_sets, config.sampling, seed=config.sampling_seed
        )

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Hook the kernel: VM protocol, trap vector, mechanism enable."""
        if self._installed:
            raise TapewormError("Tapeworm is already installed")
        if self.kernel.tapeworm is not None:
            raise TapewormError("another Tapeworm is installed in this kernel")
        kind = (
            StructureKind.TLB
            if self.config.structure == "tlb"
            else self.config.kind
        )
        assert_trap_simulable(kind, self.machine)
        vm = self.kernel.vm
        if vm.on_register_page is not None or vm.on_remove_page is not None:
            raise TapewormError("the VM hooks are already claimed")
        vm.on_register_page = self._vm_registered
        vm.on_remove_page = self._vm_removed
        kind = (
            TrapKind.PAGE_INVALID
            if self.config.structure == "tlb"
            else TrapKind.ECC_ERROR
        )
        self.machine.dispatcher.install(kind, self._miss_trap)
        if self._batchable():
            self.machine.dispatcher.install_batch(
                TrapKind.ECC_ERROR, self._deliver_segment
            )
        self.primitives.activate()
        self.kernel.tapeworm = self
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            raise TapewormError("Tapeworm is not installed")
        vm = self.kernel.vm
        vm.on_register_page = None
        vm.on_remove_page = None
        kind = (
            TrapKind.PAGE_INVALID
            if self.config.structure == "tlb"
            else TrapKind.ECC_ERROR
        )
        self.machine.dispatcher.uninstall(kind)
        self.primitives.deactivate()
        self.kernel.tapeworm = None
        self._installed = False

    # ------------------------------------------------------------------
    # attributes (Table 1: tw_attributes)
    # ------------------------------------------------------------------

    def tw_attributes(self, tid: int, simulate: int, inherit: int) -> None:
        """Assign (simulate, inherit); register/remove live pages on a
        simulate transition so attributes can change mid-run."""
        task = self.kernel.tasks.get(tid)
        was_simulated = bool(task.simulate)
        task.simulate = simulate
        task.inherit = inherit
        now_simulated = bool(simulate)
        if now_simulated and not was_simulated:
            self._register_existing_pages(tid)
        elif was_simulated and not now_simulated:
            self._remove_all_pages(tid)

    def _register_existing_pages(self, tid: int) -> None:
        table = self.machine.mmu.table(tid)
        for vpn in table.mapped_vpns():
            pa = table.frame_of(int(vpn)) * PAGE_SIZE
            self.tw_register_page(tid, pa, int(vpn) * PAGE_SIZE)

    def _remove_all_pages(self, tid: int) -> None:
        for vpn, pfn in self.registry.mappings_of_task(tid):
            self.tw_remove_page(tid, pfn * PAGE_SIZE, vpn * PAGE_SIZE)

    # ------------------------------------------------------------------
    # VM protocol (Table 1: tw_register_page / tw_remove_page)
    # ------------------------------------------------------------------

    def _vm_registered(self, tid: int, pa: int, va: int) -> None:
        """VM hook: called on *every* page mapped; Tapeworm screens by
        the owning task's simulate attribute."""
        if self.kernel.tasks.get(tid).simulate:
            self.tw_register_page(tid, pa, va)

    def _vm_removed(self, tid: int, pa: int, va: int) -> None:
        if self.registry.is_registered_mapping(tid, va):
            self.tw_remove_page(tid, pa, va)

    def tw_register_page(self, tid: int, pa: int, va: int) -> None:
        """Add a page to the Tapeworm domain.

        First mapping of the frame: set traps on all of its (sampled)
        memory locations.  Further mappings only bump the reference count
        — "this enables a new task to benefit from shared entries brought
        into the cache by another task."
        """
        first = self.registry.register(tid, pa, va)
        if self.config.structure == "tlb":
            self._register_page_tlb(tid, va)
        elif first:
            self._set_page_traps(pa, va)

    def _set_page_traps(self, pa: int, va: int) -> None:
        """Trap every sampled line of one freshly registered page: one
        set mask over the page's lines, one bulk ECC write."""
        if not self.sampler.is_sampling:
            self.primitives.tw_set_trap(pa, PAGE_SIZE)
            return
        line_bytes = self.replacer.line_bytes
        config = self._cache_config()
        index_base = va if config.indexing is Indexing.VIRTUAL else pa
        offsets = np.arange(0, PAGE_SIZE, line_bytes, dtype=np.int64)
        sampled = self.sampler.mask_for_sets(config.set_of(index_base + offsets))
        self.primitives.tw_set_traps(pa + offsets[sampled], line_bytes)

    def _cache_config(self) -> CacheConfig:
        return self.config.cache

    def _register_page_tlb(self, tid: int, va: int) -> None:
        """Page-granularity registration: trap unless the covering
        (super)page entry is already simulated-TLB resident."""
        vpn = va >> PAGE_SHIFT
        superpage = self.tlb.superpage_of(vpn)
        if not self.sampler.covers_set(superpage % self.config.tlb.n_sets):
            return
        if self.tlb.contains(tid, vpn):
            return
        self.primitives.tw_set_page_trap(tid, vpn)

    def tw_remove_page(self, tid: int, pa: int, va: int) -> None:
        """Remove a page from the Tapeworm domain.

        The last mapping flushes the page from the simulated structure
        and clears its traps, mimicking what the VM system does to the
        host's real cache on an unmap.
        """
        if self.config.structure == "tlb":
            self._remove_page_tlb(tid, pa, va)
            return
        mappings = self.registry.mappings_of_frame(pa)
        last = self.registry.remove(tid, pa, va)
        structure = self.structure
        caches = (
            (structure.l1, structure.l2)
            if isinstance(structure, TwoLevelCache)
            else (structure,)
        )
        if self._cache_config().indexing is Indexing.VIRTUAL:
            victims = mappings if last else {(tid, va >> PAGE_SHIFT)}
            for cache in caches:
                for mtid, mvpn in victims:
                    cache.flush_page(mtid, mvpn * PAGE_SIZE, PAGE_SIZE)
        elif last:
            for cache in caches:
                cache.flush_page(tid, pa & ~(PAGE_SIZE - 1), PAGE_SIZE)
        if last:
            self.primitives.tw_clear_trap(pa & ~(PAGE_SIZE - 1), PAGE_SIZE)

    def _remove_page_tlb(self, tid: int, pa: int, va: int) -> None:
        vpn = va >> PAGE_SHIFT
        self.registry.remove(tid, pa, va)
        table = self.machine.mmu.table(tid)
        if table.is_page_trapped(vpn):
            self.primitives.tw_clear_page_trap(vpn=vpn, tid=tid)
        if self.tlb.contains(tid, vpn):
            remaining = self.registry.vpns_under(
                tid, self.tlb.superpage_of(vpn)
            )
            if not remaining:
                self.tlb.evict(tid, vpn)
            # pages still registered under the entry keep running free;
            # the entry stays until displaced or its last page leaves.

    # ------------------------------------------------------------------
    # DMA cooperation (the 5000/240 port hazard, section 4.3)
    # ------------------------------------------------------------------

    def tw_dma_transfer(self, pa: int, size: int) -> None:
        """Driver notification: a DMA write landed on ``[pa, pa+size)``.

        DMA regenerates correct ECC, silently erasing traps.  A
        cooperating driver calls this afterward so Tapeworm can flush
        the buffer from the simulated cache (real DMA invalidates it in
        the host cache too) and re-arm the traps its simulation needs.
        Without this hook — the paper's un-ported 5000/240 situation —
        misses on DMA'd pages silently vanish.
        """
        if self.config.structure == "tlb":
            return  # valid bits are unaffected by DMA data writes
        first_page = pa & ~(PAGE_SIZE - 1)
        last_page = (pa + size - 1) & ~(PAGE_SIZE - 1)
        for page in range(first_page, last_page + PAGE_SIZE, PAGE_SIZE):
            if not self.registry.is_registered_frame(page):
                continue
            mappings = self.registry.mappings_of_frame(page)
            structure = self.structure
            caches = (
                (structure.l1, structure.l2)
                if isinstance(structure, TwoLevelCache)
                else (structure,)
            )
            if self._cache_config().indexing is Indexing.VIRTUAL:
                for cache in caches:
                    for mtid, mvpn in mappings:
                        cache.flush_page(mtid, mvpn * PAGE_SIZE, PAGE_SIZE)
            else:
                for cache in caches:
                    cache.flush_page(0, page, PAGE_SIZE)
            # re-arm: clear any residue, then trap the page afresh using
            # a recorded mapping for the indexing address
            self.primitives.tw_clear_trap(page, PAGE_SIZE)
            mtid, mvpn = min(mappings)
            self._set_page_traps(page, mvpn * PAGE_SIZE)

    # ------------------------------------------------------------------
    # the miss handler (Figure 1, right)
    # ------------------------------------------------------------------

    def _miss_trap(self, frame: TrapFrame) -> int:
        if frame.kind is TrapKind.PAGE_INVALID:
            return self._tlb_miss(frame)
        return self._cache_miss(frame)

    def _cache_miss(self, frame: TrapFrame) -> int:
        # Classify first: Tapeworm must not swallow true memory errors.
        diagnostic = self.machine.ecc.diagnose(frame.pa)
        trap_class = diagnostic.trap_class
        if trap_class is not TrapClass.TAPEWORM:
            self.true_errors_detected += 1
            if not diagnostic.recoverable:
                # Two or more corrupted data bits: an uncorrectable
                # pattern even after software undoes its own check-bit
                # flip.  The real machine would panic; we surface the
                # structured diagnostic instead of silently scrubbing.
                raise DoubleBitError(
                    "uncorrectable ECC error in task "
                    f"{frame.tid} at cycle {frame.cycle}: "
                    f"{diagnostic.describe()}",
                    diagnostic=diagnostic,
                )
            self.machine.ecc.scrub(frame.pa)
            if self.machine.ecc.is_tapeworm_trapped(frame.pa):
                # restore our own trap that scrubbing removed
                granule_base = frame.pa & ~(self.primitives.trap_granule_bytes() - 1)
                self.machine.ecc.set_trap(
                    granule_base, self.primitives.trap_granule_bytes()
                )
            self.overhead_cycles += TRUE_ERROR_HANDLING_CYCLES
            return TRUE_ERROR_HANDLING_CYCLES

        line_bytes = self.replacer.line_bytes
        pa_line = frame.pa & ~(line_bytes - 1)
        va_line = frame.va & ~(line_bytes - 1)

        self.stats.count_miss(frame.component)
        self.primitives.tw_clear_trap(pa_line, line_bytes)
        outcome = self.replacer.tw_replace(frame.tid, pa_line, va_line)
        if outcome.l2_missed:
            self.stats.l2_misses += 1
        for target in outcome.trap_targets:
            self.primitives.tw_set_trap(target, line_bytes)
        self.overhead_cycles += self._miss_cycles
        return self._miss_cycles

    def _batchable(self) -> bool:
        """Whether batched delivery is exact for this configuration:
        one direct-mapped, physically indexed cache under a replacement
        policy the grouped kernels replay (random replacement draws its
        RNG per miss), with lines between the ECC granule and a page."""
        config = self.config
        cache = config.cache
        return (
            config.structure == "cache"
            and cache.associativity == 1
            and cache.indexing is Indexing.PHYSICAL
            and config.replacement in GROUPABLE_POLICIES
            and GRANULE_BYTES <= cache.line_bytes <= PAGE_SIZE
        )

    def _deliver_segment(self, segment: TrapSegment) -> TrapBatch | None:
        """The miss handler for a whole segment: every trap at once.

        While the trap complement holds for every trappable reference
        (registered frame, sampled set), per-trap delivery traps exactly
        at the direct-mapped misses of those references, so one
        :func:`dm_grouped_pass` replays them all; a set without a
        candidate replays as hits and cannot change.  Declines (None)
        when true memory errors are pending or the check fails — the
        CPU then delivers trap by trap.  ``docs/INTERNALS.md``,
        "Batched trap delivery", has the argument.
        """
        ecc = self.machine.ecc
        if ecc.has_true_errors:
            return None
        cache = self.structure
        config = cache.config
        shift = config.line_shift
        pas = segment.pas
        lines = pas >> shift
        sets = lines & (config.n_sets - 1)
        trappable = self.registry.registered_mask(pas)
        if self.sampler.is_sampling:
            trappable &= self.sampler.mask_for_sets(sets)
        at = trappable.nonzero()[0]
        sets = sets[at]
        keys = pack(lines[at], 0)
        # the trap complement, checked: the candidates are exactly the
        # trappable references whose line is not its set's resident (a
        # trap erased by DMA, a spurious trap or a dropped clear fails)
        expected = at[keys != cache.sets[sets]]
        candidates = segment.candidates.nonzero()[0]
        if len(candidates) != len(expected) or (candidates != expected).any():
            return None

        ecc.drain_recent_sets()
        missed = np.empty(len(at), dtype=bool)
        previous = np.empty(len(at), dtype=np.int64)
        misses = dm_grouped_pass(cache.sets, sets, keys, missed, previous)
        cache.insertions += misses
        victims = previous[missed]
        victims = line_address(victims[victims >= 0], shift)
        victims = victims[self.registry.registered_mask(victims)]
        # a set holding a candidate ends with its last miss resident;
        # every other set keeps its resident and its trap state
        finals = line_address(cache.sets[sets[missed]], shift)
        self.primitives.tw_retrap_lines(
            victims, finals, config.line_bytes, clears=misses
        )
        self.stats.count_miss(segment.component, misses)
        self.overhead_cycles += misses * self._miss_cycles
        return TrapBatch(at[missed], self._miss_cycles)

    def _tlb_miss(self, frame: TrapFrame) -> int:
        tid = frame.tid
        vpn = frame.va >> PAGE_SHIFT
        self.stats.count_miss(frame.component)
        displaced = self.tlb.miss_insert(tid, vpn)
        # The new entry covers its whole superpage: clear traps on every
        # registered machine page under it.
        for covered in self._registered_pages_of_entry(tid, self.tlb.superpage_of(vpn)):
            table = self.machine.mmu.table(tid)
            if table.is_page_trapped(covered):
                self.primitives.tw_clear_page_trap(tid, covered)
        if displaced is not None:
            dspn, dtid = unpack(displaced)
            for covered in self._registered_pages_of_entry(dtid, dspn):
                table = self.machine.mmu.table(dtid)
                if table.resident[covered] and not table.is_page_trapped(covered):
                    self.primitives.tw_set_page_trap(dtid, covered)
        self.overhead_cycles += self._miss_cycles
        return self._miss_cycles

    def _registered_pages_of_entry(self, tid: int, superpage: int) -> list[int]:
        """The machine pages one simulated entry covers — served by the
        registry's (tid, superpage) index, not a scan of the task."""
        return self.registry.vpns_under(tid, superpage)

    # ------------------------------------------------------------------
    # results (read through the syscall interface)
    # ------------------------------------------------------------------

    def snapshot_stats(self) -> CacheStats:
        copy = CacheStats()
        copy.merge(self.stats)
        return copy

    def publish_metrics(self, metrics) -> None:
        """Publish simulation totals into a metrics registry under the
        ``tapeworm.*`` namespace.

        ``tapeworm.traps{kind=...}`` reports the trap kind backing this
        simulation (ECC errors for caches, page-invalid for TLBs) as
        counted by the kernel's dispatcher — i.e. the traps that
        actually vectored into the miss handler.
        """
        kind = (
            TrapKind.PAGE_INVALID
            if self.config.structure == "tlb"
            else TrapKind.ECC_ERROR
        )
        dispatched = self.machine.dispatcher.counts[kind]
        if dispatched:
            metrics.counter("tapeworm.traps", kind=kind.value).inc(dispatched)
        for component, misses in self.stats.misses.items():
            if misses:
                metrics.counter(
                    "tapeworm.misses", component=component.value
                ).inc(misses)
        if self.stats.l2_misses:
            metrics.counter("tapeworm.l2_misses").inc(self.stats.l2_misses)
        if self.overhead_cycles:
            metrics.counter("tapeworm.overhead_cycles").inc(
                self.overhead_cycles
            )
        if self.true_errors_detected:
            metrics.counter("tapeworm.true_errors").inc(
                self.true_errors_detected
            )
        metrics.gauge("tapeworm.estimated_misses").set(
            self.estimated_total_misses()
        )

    def reset_stats(self) -> None:
        self.stats = CacheStats()
        self.overhead_cycles = 0

    def estimated_total_misses(self) -> float:
        """Sampled miss counts scaled to a full-structure estimate."""
        return self.sampler.estimate(self.stats.total_misses)
