"""The Pixie-style trace annotator.

Pixie rewrites a binary so that running it emits its own address trace
"on the fly".  Two properties of the real tool shape this model, both
from the paper:

* it traces **one user-level task only** — no servers, no kernel, no
  children — which is why Table 6's *From Traces* column is blank for
  the multi-task workloads;
* generating and processing a trace address costs roughly 40–60 cycles;
  the generation share modeled here, plus Cache2000's processing cost,
  reproduces the flat ~20–30x slowdowns of Figure 2.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro._types import Component
from repro.errors import TraceError
from repro.streams.session import active as _streams
from repro.tracing.trace import TraceChunk
from repro.workloads.base import WorkloadSpec

#: cycles the annotated workload spends producing each trace address
#: (the generation share of Table 5's per-address cost)
PIXIE_GENERATION_CYCLES_PER_REF = 36


class PixieTracer:
    """Generates the primary user task's instruction-address trace."""

    def __init__(self, spec: WorkloadSpec, chunk_refs: int = 65536) -> None:
        if chunk_refs <= 0:
            raise TraceError(f"chunk_refs must be positive, got {chunk_refs}")
        task_spec = spec.task(spec.primary_task)
        if task_spec.component is not Component.USER:
            raise TraceError(
                "Pixie only traces user-level tasks; "
                f"{spec.primary_task!r} is {task_spec.component.value}"
            )
        self.spec = spec
        self.task_spec = task_spec
        self.chunk_refs = chunk_refs
        self._stream = None
        self.generation_cycles = 0
        self.refs_traced = 0

    def _ensure_stream(self):
        """Build the stream on first use: a cursor over the session's
        prefix when a stream session is active, the plain generator
        otherwise — bit-identical either way."""
        if self._stream is None:
            session = _streams()
            if session is not None:
                self._stream = session.stream_for(
                    self.spec, self.spec.primary_task
                )
            else:
                self._stream = self.task_spec.build_stream(self.spec.name)
        return self._stream

    def trace_chunks(self, total_refs: int) -> Iterator[TraceChunk]:
        """Yield the first ``total_refs`` references of the task.

        The stream is identical to what the same task executes under a
        trap-driven run (same seed, same generator) — the property behind
        the paper's validation that Tapeworm's user-component miss counts
        are "nearly identical" to Pixie+Cache2000's.
        """
        stream = self._ensure_stream()
        remaining = total_refs
        while remaining > 0:
            n = min(self.chunk_refs, remaining)
            addresses = stream.next_chunk(n)
            self.generation_cycles += n * PIXIE_GENERATION_CYCLES_PER_REF
            self.refs_traced += n
            remaining -= n
            yield TraceChunk(
                addresses=addresses, tid=1, component=Component.USER
            )

    def full_trace(self, total_refs: int) -> np.ndarray:
        """Materialize a flat address array (for offline simulation)."""
        return np.concatenate(
            [c.addresses for c in self.trace_chunks(total_refs)]
        )
