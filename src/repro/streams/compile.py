"""Reference streams generated on demand and replayed from a shared prefix.

The generators in :mod:`repro.workloads.locality` have the *prefix
property*: their output sequence is independent of how it is chunked —
``BlockLoopStream`` draws a new template exactly when its pending queue
runs dry, and ``MixedStream`` interleaves on a fixed period with a
leftover buffer — so draining the first N references once and replaying
them by slicing is bit-identical to generating them chunk by chunk.
``tests/streams/test_bit_equality.py`` pins that property for every
registered workload.

:class:`StreamPrefix` holds the longest prefix of one stream generated
so far, with its generator parked at the end.  :class:`CompiledStream`
is a replay cursor over one: a read past the end grows the prefix to at
least twice its length, so reading N references generates at most ~2N
and every cursor over the prefix shares the work.  A prefix seeded from
a stored blob or a shared memory segment has no parked generator;
growing it builds a fresh one and fast-forwards it past the seed, which
is bit-identical to having generated live all along (the prefix
property again).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.workloads.base import TaskSpec
from repro.workloads.locality import BlockLoopStream, MixedStream

#: chunk size used when draining a generator into a compiled array —
#: large enough to amortize per-call overhead, small enough to keep the
#: working buffer cache-friendly
COMPILE_CHUNK_REFS = 65_536

StreamFactory = Callable[[], "BlockLoopStream | MixedStream"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


def build_live_stream(
    spec_name: str, task: TaskSpec, include_data_refs: bool
) -> BlockLoopStream | MixedStream:
    """The generator the trap-driven harness would build natively."""
    stream = task.build_stream(spec_name)
    if include_data_refs:
        data = task.build_data_stream(spec_name)
        if data is not None:
            return MixedStream(stream, data)
    return stream


def _drain(stream: BlockLoopStream | MixedStream, out: np.ndarray) -> None:
    """Fill ``out`` with the next ``len(out)`` references of ``stream``."""
    filled = 0
    while filled < len(out):
        n = min(COMPILE_CHUNK_REFS, len(out) - filled)
        out[filled:filled + n] = stream.next_chunk(n)
        filled += n


def compile_stream(
    stream: BlockLoopStream | MixedStream, refs: int
) -> np.ndarray:
    """Drain ``refs`` references from ``stream`` into one int64 array."""
    if refs <= 0:
        raise ConfigError(f"refs must be positive, got {refs}")
    compiled = np.empty(refs, dtype=np.int64)
    _drain(stream, compiled)
    return compiled


class StreamPrefix:
    """The longest generated prefix of one stream, grown on demand.

    ``array`` is read-only and only ever replaced by a longer copy, so
    slices a cursor handed out earlier stay valid.  ``factory`` builds
    the stream's live generator; it must not reach whatever holds the
    prefix (a session), so that owner dies by reference counting.
    """

    __slots__ = ("array", "generated", "_factory", "_generator")

    def __init__(
        self, factory: StreamFactory | None, seed: np.ndarray | None = None
    ) -> None:
        if seed is not None and seed.ndim != 1:
            raise ConfigError("compiled streams must be 1-D")
        self.array = seed if seed is not None else _EMPTY
        #: references generated here (a seed is not counted)
        self.generated = 0
        self._factory = factory
        #: the live generator, parked at ``len(array)`` once one exists
        self._generator: BlockLoopStream | MixedStream | None = None

    def grow(self, end: int) -> np.ndarray:
        """Extend to at least ``end`` references and at least double the
        length; returns the new array."""
        length = len(self.array)
        if self._generator is None:
            if self._factory is None:
                raise ConfigError(
                    f"compiled stream exhausted at ref {length} "
                    f"({end} requested) and no fallback generator is "
                    "available"
                )
            # a seeded prefix: fast-forward a fresh generator past it
            generator = self._factory()
            skip = length
            while skip > 0:
                step = min(COMPILE_CHUNK_REFS, skip)
                generator.next_chunk(step)
                skip -= step
            self._generator = generator
        target = max(end, 2 * length)
        grown = np.empty(target, dtype=np.int64)
        grown[:length] = self.array
        _drain(self._generator, grown[length:])
        grown.setflags(write=False)
        self.array = grown
        self.generated += target - length
        return grown


class CompiledStream:
    """Replay cursor over a stream prefix.

    Duck-types the one method the harness and tracer use
    (``next_chunk``).  Chunks are views of the prefix's array — no
    copy.  Built from a plain array (and an optional generator factory),
    the cursor gets a prefix of its own.

    Deep copies (taken when a warm-state snapshot captures an
    execution) copy only the cursor: the prefix and its parked
    generator are shared, since the prefix only ever grows and every
    fork reads the same sequence.
    """

    def __init__(
        self,
        backing: np.ndarray | StreamPrefix,
        fallback_factory: StreamFactory | None = None,
    ) -> None:
        if not isinstance(backing, StreamPrefix):
            backing = StreamPrefix(fallback_factory, backing)
        self.prefix = backing
        self.cursor = 0

    @property
    def backing(self) -> np.ndarray:
        """The prefix generated so far — no more than some cursor read
        (or a seed held), so never a stand-in for a run's budget."""
        return self.prefix.array

    def next_chunk(self, n_refs: int) -> np.ndarray:
        if n_refs < 0:
            raise ConfigError(f"n_refs must be non-negative, got {n_refs}")
        end = self.cursor + n_refs
        array = self.prefix.array
        if end > len(array):
            array = self.prefix.grow(end)
        chunk = array[self.cursor:end]
        self.cursor = end
        return chunk

    def __deepcopy__(self, memo: dict) -> "CompiledStream":
        clone = CompiledStream(self.prefix)
        clone.cursor = self.cursor
        memo[id(self)] = clone
        return clone
