"""Workload registry: the eight workloads of Tables 3 and 4."""

from __future__ import annotations

from functools import cache
from typing import Callable

from repro.errors import ConfigError
from repro.workloads import media, spec, system
from repro.workloads.base import WorkloadSpec

_FACTORIES: dict[str, Callable[[], WorkloadSpec]] = {
    "xlisp": spec.xlisp,
    "espresso": spec.espresso,
    "eqntott": spec.eqntott,
    "mpeg_play": media.mpeg_play,
    "jpeg_play": media.jpeg_play,
    "ousterhout": system.ousterhout,
    "sdet": system.sdet,
    "kenbus": system.kenbus,
}

#: every workload name, in the paper's Table 3 order
WORKLOAD_NAMES: tuple[str, ...] = tuple(_FACTORIES)


@cache
def get_workload(name: str) -> WorkloadSpec:
    """The spec for one workload by name, built once per process.

    Specs are never mutated after construction, and building sdet or
    kenbus (hundreds of task specs) takes about 2 ms, which every trial
    would otherwise pay again.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; choose from {sorted(_FACTORIES)}"
        ) from None
    return factory()


def all_workloads() -> list[WorkloadSpec]:
    """Every workload spec, in Table 3 order."""
    return [factory() for factory in _FACTORIES.values()]
