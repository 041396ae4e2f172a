"""Worker health supervision: strike attribution and poison quarantine.

The PR 4 retry loop treats every pool failure the same way: back off,
rebuild the pool, resubmit everything pending.  That is correct for
*transient* faults — a worker OOM-killed once, a scheduler hiccup — but
a service that runs for days also meets the other kind: the job that
deterministically kills or hangs every worker it touches.  Retrying
that job forever converts one bad input into a denial of service.

:class:`WorkerSupervisor` sits beside the pool loop and keeps the
distinction:

*strikes*
    Every pool-level failure is attributed to the job the master was
    waiting on and recorded as a strike — ``worker_crash`` (the pool
    broke under it) or ``deadline`` (it outlived the farm's
    ``job_timeout``).  Each retry round runs on a freshly built pool,
    i.e. a distinct worker generation, so strikes carry their
    generation number.

*poison quarantine*
    A job whose strikes span :attr:`SupervisorConfig.poison_strikes`
    distinct generations has now killed that many *different* workers —
    it is the job, not the worker.  The supervisor declares it poisoned
    with a machine-readable reason, ledgers it to ``poisoned.jsonl``
    (size-capped, like the cache quarantine), and the pool loop drops
    it from the batch so the rest of the work completes.

Everything else about a failed round — the retry count, the back-off,
the per-job deadline and the circuit breaker that degrades a batch to
serial execution — belongs to the farm (:class:`~repro.farm.pool.Farm`
and its :class:`~repro.farm.progress.FarmMetrics`).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.atomicio import RotatingLedger
from repro.errors import ConfigError

POISON_FILE = "poisoned.jsonl"

#: strike kinds, attributed from the pool-level exception
STRIKE_WORKER_CRASH = "worker_crash"
STRIKE_DEADLINE = "deadline"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs, all deterministic."""

    #: distinct worker generations a job must strike before quarantine
    poison_strikes: int = 2
    #: size budget of the poisoned-job ledger before rotation
    poison_ledger_bytes: int = 1_000_000

    def __post_init__(self) -> None:
        if self.poison_strikes < 1:
            raise ConfigError(
                f"poison_strikes must be at least 1, got {self.poison_strikes}"
            )


@dataclass
class Strike:
    """One attributed pool-level failure."""

    kind: str
    generation: int
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "generation": self.generation,
            "detail": self.detail,
        }


class WorkerSupervisor:
    """Tracks worker/job health across one farm's pool rounds."""

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        ledger_dir: str | Path | None = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self._strikes: dict[str, list[Strike]] = {}
        #: job key -> machine-readable poison reason
        self.poisoned: dict[str, dict[str, Any]] = {}
        self._ledger = (
            RotatingLedger(
                Path(ledger_dir) / POISON_FILE,
                self.config.poison_ledger_bytes,
            )
            if ledger_dir is not None
            else None
        )

    # -- strikes and poisoning

    def record_strike(
        self, key: str, kind: str, detail: str, generation: int
    ) -> dict[str, Any] | None:
        """Attribute one pool failure to the job under ``key``.

        Returns the machine-readable poison reason once the job's
        strikes span ``poison_strikes`` distinct worker generations
        (each retry round is a fresh pool, so distinct generations mean
        distinct workers killed), else None — keep retrying.
        """
        strikes = self._strikes.setdefault(key, [])
        strikes.append(Strike(kind=kind, generation=generation, detail=detail))
        generations = {strike.generation for strike in strikes}
        if len(generations) < self.config.poison_strikes:
            return None
        reason = {
            "code": "poisoned",
            "job_key": key,
            "workers_killed": len(generations),
            "strikes": [strike.to_dict() for strike in strikes],
            "verdict": (
                f"job struck {len(generations)} distinct worker "
                f"generations ({', '.join(sorted({s.kind for s in strikes}))})"
            ),
        }
        self.poisoned[key] = reason
        if self._ledger is not None:
            entry = dict(reason)
            entry["ts"] = round(time.time(), 3)
            self._ledger.append(json.dumps(entry, sort_keys=True))
        logger.warning(
            "job %s poisoned after striking %d distinct workers; "
            "quarantined, batch continues without it",
            key[:12], len(generations),
        )
        return reason

    def strikes_for(self, key: str) -> list[Strike]:
        return list(self._strikes.get(key, []))

    @property
    def strikes(self) -> int:
        """Strikes recorded against every job so far."""
        return sum(len(s) for s in self._strikes.values())

    # -- reporting

    def summary(self) -> dict[str, Any]:
        return {"poisoned": len(self.poisoned), "strikes": self.strikes}

    def publish(self, metrics, strikes_before: int = 0) -> None:
        """Count the strikes recorded since ``strikes_before`` under
        ``farm.supervisor.strikes`` (the default counts them all)."""
        strikes = self.strikes - strikes_before
        if strikes:
            metrics.counter("farm.supervisor.strikes").inc(strikes)
