"""The process-wide stream session — the stream memo as a gate.

Mirrors :mod:`repro.telemetry.session` and :mod:`repro.faults.session`:
one module-level slot, read with a ``None`` check at every integration
point (the harness's stream construction, the Pixie tracer, the
profiler, the farm worker entry).  With no session active, every
consumer builds its streams live exactly as before — the store cannot
change results when it is off, and ``tests/streams/test_bit_equality.py``
pins that it does not change them when it is *on* either.

The session's memo holds, per stream key, the longest prefix generated
so far (:class:`~repro.streams.compile.StreamPrefix`), and
:meth:`StreamSession.stream_for` returns a cursor over it.  Nothing is
generated up front: a read past the prefix's end grows it to at least
twice its length, so a run generates about what it reads.

Resolution order for a requested stream, on a memo miss:

1. a shared memory attachment (farm worker, store disabled on the
   master) seeds the prefix;
2. else a blob of any length in the on-disk store (memory-mapped,
   verified once) seeds it;
3. else the prefix starts empty.

Either way the prefix grows on demand past its seed.  :func:`deactivate`
writes back every prefix that grew since it was last stored, so the
store keeps the longest prefix per key and the next process maps
instead of generating.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from functools import partial
from typing import Iterator

import numpy as np

from repro.errors import StreamStoreError
from repro.streams.compile import (
    CompiledStream,
    StreamPrefix,
    build_live_stream,
)
from repro.streams.keys import (
    STREAM_CODE_VERSION,
    stream_descriptor,
    stream_fingerprint,
)
from repro.streams.snapshots import SnapshotStore
from repro.streams.store import StreamStore
from repro.streams.transport import ShmArena, ShmSegment, StreamTransport
from repro.workloads.base import WorkloadSpec

logger = logging.getLogger(__name__)


class StreamSession:
    """One process's stream state: store, prefix memo, snapshots."""

    def __init__(
        self,
        store: StreamStore | None = None,
        attachments: dict[str, np.ndarray] | None = None,
        salt: str = STREAM_CODE_VERSION,
    ) -> None:
        self.store = store if store is not None else StreamStore()
        self.salt = salt
        #: arrays attached from the farm master's shared memory segments
        self.attachments: dict[str, np.ndarray] = dict(attachments or {})
        #: stream key -> the longest prefix this process holds
        self._memo: dict[str, StreamPrefix] = {}
        #: stream key -> (spec, task, data?), for a stored blob's sidecar
        self._sources: dict[str, tuple[WorkloadSpec, str, bool]] = {}
        #: stream key -> length of the prefix the store holds
        self._stored: dict[str, int] = {}
        self.snapshots = SnapshotStore()
        self.memo_hits = 0
        self.shm_hits = 0
        self._arena: ShmArena | None = None
        self._published: dict[tuple[str, ...], int] = {}

    @property
    def compiles(self) -> int:
        """Streams this session generated references for."""
        return sum(1 for prefix in self._memo.values() if prefix.generated)

    @property
    def compiled_refs(self) -> int:
        """References this session generated, over every stream."""
        return sum(prefix.generated for prefix in self._memo.values())

    # -- the lookup path

    def stream_for(
        self,
        spec: WorkloadSpec,
        task_name: str,
        include_data_refs: bool = False,
    ) -> CompiledStream:
        """A replay cursor, at reference 0, over one task's stream."""
        return CompiledStream(self._prefix(spec, task_name, include_data_refs))

    def _prefix(
        self, spec: WorkloadSpec, task_name: str, include_data_refs: bool
    ) -> StreamPrefix:
        key = stream_fingerprint(
            spec, task_name, include_data_refs, salt=self.salt
        )
        prefix = self._memo.get(key)
        if prefix is not None:
            self.memo_hits += 1
            return prefix
        seed = self.attachments.get(key)
        if seed is not None:
            self.shm_hits += 1
        else:
            seed = self.store.get(key)
            if seed is not None:
                self._stored[key] = len(seed)
        # the factory holds the spec's parts, never this session
        prefix = StreamPrefix(
            partial(
                build_live_stream,
                spec.name,
                spec.task(task_name),
                include_data_refs,
            ),
            seed,
        )
        self._memo[key] = prefix
        self._sources[key] = (spec, task_name, include_data_refs)
        return prefix

    def precompile(
        self,
        spec: WorkloadSpec,
        total_refs: int,
        include_data_refs: bool = False,
    ) -> None:
        """Register every task stream of ``spec``; generate nothing.

        Each stream is looked up (and seeded from an attachment or the
        store) now, and generated as a run reads it.  ``total_refs`` is
        the run's budget; no stream is sized by it.
        """
        del total_refs
        for task_name in spec.tasks:
            self._prefix(spec, task_name, include_data_refs)

    def write_back(self) -> int:
        """Store every prefix that grew since it was last stored, so the
        store keeps the longest prefix per key; returns how many.

        A write that fails is skipped and retried at the next write-back:
        the store only saves generation, and another process sharing it
        can move a blob aside while it is being rewritten (a reader that
        pairs the new blob with the old sidecar quarantines it).
        """
        if not self.store.enabled:
            return 0
        written = failed = 0
        for key, prefix in self._memo.items():
            array = prefix.array
            if len(array) > self._stored.get(key, 0):
                try:
                    self.store.put(
                        key, array,
                        descriptor=stream_descriptor(*self._sources[key]),
                    )
                except OSError:
                    failed += 1
                    continue
                self._stored[key] = len(array)
                written += 1
        if failed:
            logger.warning(
                "could not write %d stream prefix(es) back to %s; they "
                "are generated again when next read", failed,
                self.store.directory,
            )
        return written

    # -- farm transport

    def transport(self) -> StreamTransport:
        """A picklable handle workers use to map this session's streams.

        With the store enabled the blobs travel through the filesystem
        and the transport is just the directory.  With it disabled
        (``--no-stream-cache``), the non-empty prefixes are published
        as shared memory segments owned by this session until
        :meth:`close_transport` (or deactivation) unlinks them.  A key
        is published once, at its length then; a worker grows it past
        that on demand.
        """
        segments: tuple[ShmSegment, ...] = ()
        if not self.store.enabled and self._memo:
            if self._arena is None:
                self._arena = ShmArena()
            already = {s.key for s in self._arena.published}
            for key, prefix in self._memo.items():
                if key not in already and len(prefix.array):
                    self._arena.publish(key, prefix.array)
            segments = tuple(self._arena.published)
        return StreamTransport(
            store_dir=str(self.store.directory),
            store_enabled=self.store.enabled,
            salt=self.salt,
            shm_segments=segments,
        )

    def close_transport(self) -> None:
        """Unlink any shared memory segments this session published."""
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    # -- observability

    def publish_metrics(self, metrics) -> None:
        """Fold session counters into a telemetry registry (delta-based,
        so repeated publishes never double-count)."""

        def delta(value: int, *name_and_labels: str) -> None:
            previous = self._published.get(name_and_labels, 0)
            if value > previous:
                name = name_and_labels[0]
                labels = dict(
                    zip(name_and_labels[1::2], name_and_labels[2::2])
                )
                metrics.counter(name, **labels).inc(value - previous)
                self._published[name_and_labels] = value

        delta(self.memo_hits, "streams.hits", "source", "memo")
        delta(self.store.hits, "streams.hits", "source", "store")
        delta(self.shm_hits, "streams.hits", "source", "shm")
        delta(self.compiles, "streams.misses")
        delta(self.compiled_refs, "streams.compiled_refs")
        delta(self.store.bytes_mapped, "streams.bytes_mapped")
        delta(self.store.bytes_written, "streams.bytes_written")
        delta(self.store.corrupt, "streams.corrupt")
        delta(self.snapshots.creates, "streams.snapshot_creates")
        delta(self.snapshots.forks, "streams.snapshot_forks")
        delta(self.snapshots.bypassed, "streams.snapshot_bypass")


_active: StreamSession | None = None


def active() -> StreamSession | None:
    """The activated session, or None (streams disabled — live path)."""
    return _active


def activate(session: StreamSession | None = None) -> StreamSession:
    """Install ``session`` (or a fresh one) as the process-wide session."""
    global _active
    if _active is not None:
        raise StreamStoreError("a stream session is already active")
    _active = session or StreamSession()
    return _active


def drop_inherited() -> None:
    """Discard a fork-inherited session without tearing it down.

    A forked farm worker inherits the master's active session object.
    Its store handles, shared-memory arena and prefixes belong to the
    *parent*; deactivating here would unlink segments the master still
    serves to sibling workers, and write the master's prefixes from a
    worker.  Workers therefore just drop the reference before
    activating their own session.
    """
    global _active
    _active = None


def deactivate() -> StreamSession:
    """Remove and return the active session, unlinking its transport
    and writing its grown prefixes back to the store."""
    global _active
    if _active is None:
        raise StreamStoreError("no stream session is active")
    session, _active = _active, None
    session.close_transport()
    session.write_back()
    return session


@contextmanager
def enabled(
    session: StreamSession | None = None,
) -> Iterator[StreamSession]:
    """Scope a stream session over a block of simulation work."""
    session = activate(session)
    try:
        yield session
    finally:
        deactivate()
