"""Replacement policies for the simulated structures.

A policy manipulates one set's entry list, which is kept in *policy
order*: index 0 is the most-protected entry and the last index is the next
victim.  ``tw_replace`` and the trace-driven search share these objects,
so both drivers displace the same victims — the property the cross-driver
validation tests pin down.
"""

from __future__ import annotations

import abc
import random

from repro.errors import ConfigError


class ReplacementPolicy(abc.ABC):
    """Strategy for ordering one cache set's entries."""

    name: str

    @abc.abstractmethod
    def touch(self, entries: list[int], index: int) -> None:
        """An entry was referenced (hit)."""

    @abc.abstractmethod
    def insert(self, entries: list[int], key: int) -> None:
        """Place a new entry; the set is known to have free room."""

    @abc.abstractmethod
    def victim_index(self, entries: list[int]) -> int:
        """Which index to displace from a full set."""


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used: hits move to the front, the back is evicted."""

    name = "lru"

    def touch(self, entries: list[int], index: int) -> None:
        if index:
            entries.insert(0, entries.pop(index))

    def insert(self, entries: list[int], key: int) -> None:
        entries.insert(0, key)

    def victim_index(self, entries: list[int]) -> int:
        return len(entries) - 1


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: hits do not reorder; oldest entry is evicted."""

    name = "fifo"

    def touch(self, entries: list[int], index: int) -> None:
        pass

    def insert(self, entries: list[int], key: int) -> None:
        entries.insert(0, key)

    def victim_index(self, entries: list[int]) -> int:
        return len(entries) - 1


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim, from a seeded stream for reproducibility."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def touch(self, entries: list[int], index: int) -> None:
        pass

    def insert(self, entries: list[int], key: int) -> None:
        entries.insert(0, key)

    def victim_index(self, entries: list[int]) -> int:
        return self._rng.randrange(len(entries))


_POLICIES = {
    LRUPolicy.name: LRUPolicy,
    FIFOPolicy.name: FIFOPolicy,
    RandomPolicy.name: RandomPolicy,
}


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Construct a policy by name (``lru``, ``fifo`` or ``random``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return RandomPolicy(seed)
    return cls()
