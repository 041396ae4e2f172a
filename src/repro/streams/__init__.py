"""Reference streams on demand: a per-process prefix memo, a
content-addressed store, zero-copy farm transport, and warm-state
snapshots.

The trap-driven harness spends much of a trial generating reference
streams that are *identical across trials* — stream content depends
only on ``(workload, task)``, never the trial seed.  A session keeps,
per stream, the longest prefix generated so far and hands every trial
a cursor over it; a read past the end grows the prefix geometrically,
so each stream is generated once per process, and only as far as runs
read it.  Prefixes persist as ``int64`` ``.npy`` blobs under
``.stream-cache/``, keyed by a SHA-256 of the generating spec (not a
length: a prefix of a stream is the same stream), and are replayed
via read-only memory maps everywhere else: later runs, farm workers
(which receive store keys, not pickled arrays), and warm-state
snapshot forks that skip a declared warmup prefix entirely.

Everything is gated on a process-wide session
(:func:`repro.streams.session.active`); with no session the simulator
behaves exactly as before, and with one the results are bit-identical —
only faster.
"""

from repro.streams.compile import (
    CompiledStream,
    build_live_stream,
    compile_stream,
)
from repro.streams.keys import (
    MIX_GEOMETRY,
    STREAM_CODE_VERSION,
    stream_descriptor,
    stream_fingerprint,
)
from repro.streams.session import (
    StreamSession,
    activate,
    active,
    deactivate,
    enabled,
)
from repro.streams.snapshots import SnapshotStore, WarmupPlan
from repro.streams.store import StreamStore
from repro.streams.transport import (
    ShmArena,
    ShmSegment,
    StreamTransport,
    transported_execute,
)

__all__ = [
    "CompiledStream",
    "MIX_GEOMETRY",
    "STREAM_CODE_VERSION",
    "ShmArena",
    "ShmSegment",
    "SnapshotStore",
    "StreamSession",
    "StreamStore",
    "StreamTransport",
    "WarmupPlan",
    "activate",
    "active",
    "build_live_stream",
    "compile_stream",
    "deactivate",
    "enabled",
    "stream_descriptor",
    "stream_fingerprint",
    "transported_execute",
]
