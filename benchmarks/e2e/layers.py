"""Per-layer attribution, timed from outside the program.

:class:`LayerTracer` replaces each layer's public methods at class (or
module) level with a wrapper that times the call, and restores the
originals on :meth:`LayerTracer.uninstall`.  Nothing under ``src/`` knows
it is being traced.

Self time is a call's inclusive time minus the inclusive time of the
wrapped calls it made, kept with a stack of open frames.  The root frame
is one whole pass of a workload; its self time is the part no wrapped
layer claimed (``harness.unattributed_frac``).

Spans for the coarse layers (boot, task lifecycle, faults, ticks,
``run_chunk``, farm calls) also go to a
:class:`~repro.telemetry.spans.SpanRecorder`, for a Chrome trace.  The
per-trap layers are counted and timed but get no span: there are ~10^5
of them per trial.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.machine.traps import TrapKind
from repro.telemetry.spans import SpanRecorder, chrome_span_events

#: layer name -> (owner import path, attribute names); the owner is a
#: class, or a module when the attribute is a module-level function
LAYER_TARGETS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "machine.traps": (("repro.machine.traps:TrapDispatcher", ("dispatch",)),),
    "machine.ecc": (
        ("repro.machine.ecc:ECCController", ("diagnose", "set_trap", "clear_trap")),
    ),
    "core.primitives": (
        (
            "repro.core.primitives:TrapPrimitives",
            ("tw_set_trap", "tw_clear_trap", "tw_set_page_trap", "tw_clear_page_trap"),
        ),
    ),
    "core.replace": (("repro.core.replace:Replacer", ("tw_replace",)),),
    "caches": (
        ("repro.caches.cache:SetAssociativeCache", ("miss_insert", "flush_page")),
        ("repro.caches.tlb:SimulatedTLB", ("miss_insert",)),
    ),
    "machine.cpu": (("repro.machine.cpu:CPU", ("run_chunk",)),),
    "machine.chunkindex": (
        ("repro.machine.chunkindex:RescanBinding", ("occurrences_after",)),
    ),
    "machine.mmu": (
        ("repro.machine.mmu:PageTable", ("translate", "is_page_trapped")),
    ),
    "core.registration": (
        ("repro.core.tapeworm:Tapeworm", ("tw_register_page", "tw_remove_page")),
    ),
    "kernel.task": (("repro.kernel.kernel:Kernel", ("fork", "exit_task")),),
    "kernel.boot": (
        ("repro.kernel.kernel:Kernel", ("__init__",)),
        ("repro.core.tapeworm:Tapeworm", ("install", "tw_attributes")),
    ),
    "kernel.vm": (("repro.kernel.vm:VMSystem", ("fault",)),),
    "streams": (
        ("repro.streams.compile:CompiledStream", ("next_chunk",)),
        ("repro.streams.session:StreamSession", ("stream_for",)),
    ),
    "farm.exec": (("repro.farm.measures", ("trap_measure",)),),
    "farm.cache": (("repro.farm.cache:ResultCache", ("get", "put")),),
    "farm.journal": (
        (
            "repro.farm.journal:JobJournal",
            ("queue", "lease", "commit", "reconcile"),
        ),
    ),
}

#: layers whose handler is wrapped where it is installed, not where it
#: is defined: (owner, installer method, layer)
HANDLER_INSTALLERS = (
    ("repro.machine.traps:TrapDispatcher", "install", "core.tapeworm"),
    ("repro.machine.machine:Machine", "install_tick_handler", "kernel.tick"),
)

#: every timed layer, in report order (the handlers included)
LAYERS = (
    "machine.traps",
    "core.tapeworm",
    "machine.ecc",
    "core.primitives",
    "core.replace",
    "caches",
    "machine.cpu",
    "machine.chunkindex",
    "machine.mmu",
    "core.registration",
    "kernel.task",
    "kernel.boot",
    "kernel.vm",
    "kernel.tick",
    "streams",
    "farm.exec",
    "farm.cache",
    "farm.journal",
)

#: layers that also record a span (coarse enough for a Chrome trace)
SPANNED = frozenset(
    {
        "machine.cpu",
        "kernel.task",
        "kernel.boot",
        "kernel.vm",
        "kernel.tick",
        "farm.exec",
        "farm.cache",
        "farm.journal",
    }
)

#: the append helpers whose rewrite cost ``write_amplification`` counts:
#: (module, function name, whether it takes a list of lines)
APPEND_HELPERS = (
    ("repro.farm.journal", "atomic_append_lines", True),
    ("repro.farm.cache", "atomic_append_line", False),
)

#: span slots per traced run; later spans are dropped and counted
SPAN_CAPACITY = 60_000


def _resolve(path: str) -> Any:
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    for part in filter(None, qualname.split(".")):
        owner = getattr(owner, part)
    return owner


@dataclass
class LayerTotals:
    """Accumulated time and calls of one layer."""

    self_s: float = 0.0
    inclusive_s: float = 0.0
    calls: int = 0


class LayerTracer:
    """Installs timing wrappers and accumulates per-layer totals."""

    def __init__(self, span_capacity: int = SPAN_CAPACITY) -> None:
        self.totals = {layer: LayerTotals() for layer in LAYERS}
        self.root = LayerTotals()
        #: wall seconds of every traced pass (the self_frac denominator)
        self.pass_seconds: list[float] = []
        self.spans = SpanRecorder(span_capacity)
        self.chunkindex_lookups = 0
        self.chunkindex_hits = 0
        self.page_traps = 0
        self.appends = 0
        self.bytes_appended = 0
        self.bytes_rewritten = 0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- the wrappers

    def _timed(
        self,
        layer: str,
        fn: Callable[..., Any],
        tally: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        totals = self.totals[layer]
        stack = self._stack
        clock = time.perf_counter
        if layer in SPANNED:
            span = self.spans.span
            inner = fn

            @functools.wraps(inner)
            def fn(*args: Any, **kwargs: Any) -> Any:
                with span(layer):
                    return inner(*args, **kwargs)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals.self_s += elapsed - frame[0]
                totals.inclusive_s += elapsed
                totals.calls += 1
            if tally is not None:
                tally(args, result)
            return result

        return timed

    def _handler_installer(
        self, original: Callable[..., Any], layer: str
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def install(owner: Any, *args: Any) -> Any:
            *head, handler = args
            return original(owner, *head, tracer._timed(layer, handler))

        return install

    def _tally_dispatch(self, args: tuple, result: Any) -> None:
        if args[1].kind is TrapKind.PAGE_INVALID:
            self.page_traps += 1

    def _tally_lookup(self, args: tuple, result: Any) -> None:
        self.chunkindex_lookups += 1
        if len(result):
            self.chunkindex_hits += 1

    def _append_counter(
        self, original: Callable[..., Any], many: bool
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def append(path: Any, payload: Any) -> Any:
            target = Path(path)
            lines = payload if many else [payload]
            if lines:
                tracer.appends += 1
                tracer.bytes_appended += sum(
                    len(line.encode("utf-8")) + 1 for line in lines
                )
                if target.exists():
                    tracer.bytes_rewritten += target.stat().st_size
            return original(path, payload)

        return append

    # -- installation

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        tallies = {
            ("machine.traps", "dispatch"): self._tally_dispatch,
            ("machine.chunkindex", "occurrences_after"): self._tally_lookup,
        }
        for layer, targets in LAYER_TARGETS.items():
            for owner_path, names in targets:
                owner = _resolve(owner_path)
                for name in names:
                    self._patch(
                        owner,
                        name,
                        self._timed(
                            layer,
                            getattr(owner, name),
                            tallies.get((layer, name)),
                        ),
                    )
        for owner_path, name, layer in HANDLER_INSTALLERS:
            owner = _resolve(owner_path)
            self._patch(
                owner, name, self._handler_installer(getattr(owner, name), layer)
            )
        for module_path, name, many in APPEND_HELPERS:
            module = _resolve(module_path)
            self._patch(
                module, name, self._append_counter(getattr(module, name), many)
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def measure(self, fn: Callable[[], Any]) -> Any:
        """Run one pass as the root frame, wrappers installed."""
        self.install()
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            with self.spans.span("pass"):
                return fn()
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.uninstall()
            self.root.self_s += elapsed - frame[0]
            self.root.inclusive_s += elapsed
            self.root.calls += 1
            self.pass_seconds.append(elapsed)

    # -- results

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.self_frac`` / ``<layer>.calls`` plus the ratios."""
        wall = sum(self.pass_seconds)
        passes = len(self.pass_seconds)
        if not passes or wall <= 0:
            raise RuntimeError("no traced pass was measured")
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            totals = self.totals[layer]
            metrics[f"{layer}.self_frac"] = totals.self_s / wall
            metrics[f"{layer}.calls"] = totals.calls / passes
        handler = self.totals["core.tapeworm"]
        metrics["core.tapeworm.us_per_trap"] = (
            1e6 * handler.inclusive_s / handler.calls if handler.calls else 0.0
        )
        metrics["machine.chunkindex.hit_ratio"] = (
            self.chunkindex_hits / self.chunkindex_lookups
            if self.chunkindex_lookups
            else 0.0
        )
        probes = self.totals["machine.mmu"].calls
        metrics["machine.mmu.candidate_yield"] = (
            self.page_traps / probes if probes else 0.0
        )
        metrics["farm.journal.appends"] = self.appends / passes
        metrics["farm.journal.write_amplification"] = (
            self.bytes_rewritten / self.bytes_appended
            if self.bytes_appended
            else 0.0
        )
        metrics["harness.unattributed_frac"] = self.root.self_s / wall
        return metrics

    def chrome_trace(self) -> dict[str, Any]:
        return {
            "traceEvents": chrome_span_events(self.spans.spans, pid=1, tid=1),
            "displayTimeUnit": "ms",
            "otherData": {
                "spans": len(self.spans),
                "spans_dropped": self.spans.dropped,
            },
        }
