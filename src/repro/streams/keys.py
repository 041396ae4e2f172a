"""Content-addressed identities for compiled reference streams.

A compiled stream is fully determined by the *generating spec*: the
workload name, the task name, the task's CRC-derived stream seed, the
exact procedure tables (instruction and — when data references are
interleaved — data), the deterministic mix geometry, and the number of
references materialized.  :func:`stream_fingerprint` reduces all of that
to a SHA-256 hex digest over a canonical JSON encoding (reusing the
farm's :func:`~repro.farm.jobs.canonical`), salted with a code-version
string so every blob in the store is invalidated wholesale whenever
stream-generation semantics change.

Keys are pure content addresses: two processes (or two machines) that
agree on the spec compute the same key and can share one on-disk blob.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from typing import Any, Mapping

from repro.farm.jobs import canonical
from repro.workloads.base import TaskSpec, WorkloadSpec

#: Salt mixed into every stream key.  Bump the version suffix whenever a
#: change alters what ``BlockLoopStream``/``MixedStream`` generate for a
#: given spec — stale blobs then stop matching and are recompiled
#: instead of silently replayed.
STREAM_CODE_VERSION = "repro-streams-v1"

#: MixedStream's deterministic interleave geometry (instr_run, data_run).
#: Part of the key: changing the mix changes the compiled sequence.
MIX_GEOMETRY = (48, 16)

#: Extra references compiled beyond a run's ``total_refs`` so per-phase
#: rounding can never exhaust a blob mid-run (the replay wrapper falls
#: back to live generation if it somehow does).
STREAM_MARGIN = 8192


def compile_refs_for(total_refs: int) -> int:
    """Blob length used for a trap-driven run of ``total_refs``."""
    return int(total_refs) + STREAM_MARGIN


def stream_descriptor(
    spec: WorkloadSpec, task_name: str, include_data_refs: bool
) -> dict[str, Any]:
    """The canonical generating spec of one task's reference stream."""
    return _descriptor(
        spec.name, task_name, spec.task(task_name), include_data_refs
    )


def _descriptor(
    workload: str, task_name: str, task: TaskSpec, include_data_refs: bool
) -> dict[str, Any]:
    descriptor: dict[str, Any] = {
        "workload": workload,
        "task": task_name,
        "seed": task.stream_seed(workload),
        "procedures": canonical(list(task.procedures())),
    }
    if include_data_refs and task.data_shapes:
        descriptor["data_procedures"] = canonical(list(task.data_procedures()))
        descriptor["data_seed"] = task.stream_seed(workload) ^ 0xDA7A
        descriptor["mix"] = list(MIX_GEOMETRY)
    return descriptor


def fingerprint_payload(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest over a canonical JSON encoding of ``payload``."""
    blob = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def stream_fingerprint(
    spec: WorkloadSpec,
    task_name: str,
    refs: int,
    include_data_refs: bool = False,
    salt: str = STREAM_CODE_VERSION,
) -> str:
    """The store key of one ``(workload, task, refs, data?)`` stream.

    Memoized: the key is pure in the workload's name, the task's frozen
    (hashable) :class:`TaskSpec` and the other arguments, and
    ``StreamSession.stream_for`` asks for it on every trial's every
    task.  ``WorkloadSpec`` itself holds a dict, so it is no memo key.
    """
    return _fingerprint(
        spec.name,
        task_name,
        spec.task(task_name),
        int(refs),
        bool(include_data_refs),
        salt,
    )


@lru_cache(maxsize=4096)
def _fingerprint(
    workload: str,
    task_name: str,
    task: TaskSpec,
    refs: int,
    include_data_refs: bool,
    salt: str,
) -> str:
    return fingerprint_payload(
        {
            "stream": _descriptor(workload, task_name, task, include_data_refs),
            "refs": refs,
            "include_data_refs": include_data_refs,
            "salt": salt,
        }
    )
