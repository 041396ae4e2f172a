"""Round-robin time-slicing of workload components.

The kernel interleaves the user tasks, the servers, and kernel-mode
execution in weighted round-robin quanta.  Two details matter to the
paper's variance study (Tables 7–10):

* **User quanta are deterministic** — a workload's user-task reference
  sequence is identical from run to run, which is why a virtually-indexed,
  unsampled, user-only simulation shows *zero* variance (Tables 8, 9).
* **System quanta carry trial-seeded jitter** — interrupt arrival and
  server scheduling shift slightly between runs, the residual "dynamic
  system effects" that leave small variance even in Table 10's
  variation-removed configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro._types import Component
from repro.errors import ConfigError


@dataclass(frozen=True)
class Demand:
    """One runnable entity's share of execution within a phase."""

    task_name: str
    component: Component
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigError(f"negative weight for {self.task_name!r}")


class TimeSlice(NamedTuple):
    """A scheduling decision: run this task for this many references."""

    task_name: str
    component: Component
    n_refs: int


class Scheduler:
    """Weighted round-robin quantum scheduler."""

    def __init__(
        self,
        quantum_refs: int = 8192,
        system_jitter: float = 0.25,
        trial_rng: np.random.Generator | None = None,
    ) -> None:
        if quantum_refs <= 0:
            raise ConfigError(f"quantum_refs must be positive: {quantum_refs}")
        if not 0 <= system_jitter < 1:
            raise ConfigError(f"system_jitter must be in [0, 1): {system_jitter}")
        self.quantum_refs = quantum_refs
        self.system_jitter = system_jitter
        self.trial_rng = trial_rng or np.random.default_rng(0)

    def planner(
        self, demands: list[Demand], total_refs: int
    ) -> "SlicePlanner":
        """A stepwise planner for one phase (see :class:`SlicePlanner`)."""
        return SlicePlanner(self, demands, total_refs)

    def interleave(
        self, demands: list[Demand], total_refs: int
    ) -> Iterator[TimeSlice]:
        """Yield slices for one phase of roughly ``total_refs`` references.

        Each round grants every demand ``quantum * weight`` references;
        system components additionally get a ±``system_jitter`` relative
        perturbation from the trial RNG.  The phase is driven by *user*
        progress: it ends once the USER demands have received exactly
        their weighted share of ``total_refs``.  User grants carry no
        jitter and their rounding remainders accrue, so a workload's user
        reference sequence is bit-identical across trials — only the
        system interleaving varies.  (With no user demand, the phase is
        driven by total progress instead.)
        """
        planner = SlicePlanner(self, demands, total_refs)
        while not planner.exhausted():
            yield from planner.next_round()


class SlicePlanner:
    """One phase's schedule, materialized round by round.

    Equivalent to :meth:`Scheduler.interleave` — the generator is now a
    thin wrapper over this — but holds its cursor in plain attributes
    instead of a suspended generator frame, so an in-progress schedule
    can be deep-copied.  Warm-state snapshots rely on that: a generator
    cannot be copied, a planner can.

    Rounds are produced one at a time (never materialized wholesale), so
    re-seeding the scheduler's ``trial_rng`` between rounds — what the
    harness does at a snapshot fork point — affects every subsequent
    round's jitter exactly as it would have mid-``interleave``.
    """

    def __init__(
        self, scheduler: Scheduler, demands: list[Demand], total_refs: int
    ) -> None:
        if total_refs < 0:
            raise ConfigError(f"total_refs must be non-negative: {total_refs}")
        weights = sum(d.weight for d in demands)
        if weights <= 0:
            raise ConfigError("demand weights must sum to a positive value")
        user_weight = sum(
            d.weight for d in demands if d.component is Component.USER
        )
        self.scheduler = scheduler
        self.demands = list(demands)
        self.weights = weights
        self.drive_by_user = user_weight > 0
        self.target = (
            int(round(total_refs * user_weight / weights))
            if self.drive_by_user
            else total_refs
        )
        self.progress = 0
        self.remainders = [0.0] * len(demands)

    def exhausted(self) -> bool:
        return self.progress >= self.target

    def next_round(self) -> list[TimeSlice]:
        """One weighted round-robin pass over the demands."""
        if self.exhausted():
            return []
        scheduler = self.scheduler
        quantum = scheduler.quantum_refs
        jitter = scheduler.system_jitter
        draw = scheduler.trial_rng.random
        weights, target = self.weights, self.target
        drive_by_user = self.drive_by_user
        remainders = self.remainders
        progress = self.progress
        slices: list[TimeSlice] = []
        for index, demand in enumerate(self.demands):
            component = demand.component
            is_user = component is Component.USER
            counts = is_user or not drive_by_user
            if progress >= target and counts:
                break
            exact = quantum * demand.weight / weights + remainders[index]
            grant = int(exact)
            if jitter and not is_user:
                # jitter shifts *when* system references run, not how
                # many: the remainder repays the perturbation, so
                # cumulative system totals stay on target
                grant = int(grant * (1.0 + jitter * (2.0 * draw() - 1.0)))
            remainders[index] = exact - grant
            if counts:
                grant = min(grant, target - progress)
            if grant <= 0:
                continue
            if counts:
                progress += grant
            slices.append(TimeSlice(demand.task_name, component, grant))
        self.progress = progress
        return slices
