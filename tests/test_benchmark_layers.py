"""The end-to-end benchmark's layer tracer still fits the program.

``benchmarks/e2e/layers.py`` times each layer by replacing methods and
module functions by name, so renaming one makes every traced benchmark
run (``run.py --trace 1``) fail.  These checks resolve every name it
patches and install and remove its wrappers, in about a second.
"""

from __future__ import annotations

from benchmarks.e2e.layers import (
    APPEND_HELPERS,
    HANDLER_INSTALLERS,
    LAYER_TARGETS,
    LAYERS,
    LayerTracer,
    _resolve,
)


def _patched() -> list[tuple[str, str]]:
    """Every ``(owner path, attribute)`` the tracer replaces."""
    names = [
        (owner_path, name)
        for targets in LAYER_TARGETS.values()
        for owner_path, attributes in targets
        for name in attributes
    ]
    names += [(owner_path, name) for owner_path, name, _ in HANDLER_INSTALLERS]
    names += [(module_path, name) for module_path, name, _ in APPEND_HELPERS]
    return names


def _current() -> dict[tuple[str, str], object]:
    return {
        (owner_path, name): vars(_resolve(owner_path))[name]
        for owner_path, name in _patched()
    }


def test_every_patched_name_resolves_on_its_owner():
    # the tracer reads each original from the owner's own __dict__
    for (owner_path, name), original in _current().items():
        assert callable(original), f"{owner_path}.{name} is not callable"


def test_every_target_and_handler_is_a_reported_layer():
    installed = {layer for *_, layer in HANDLER_INSTALLERS}
    assert set(LAYER_TARGETS) | installed <= set(LAYERS)


def test_install_then_uninstall_restores_every_attribute():
    originals = _current()
    tracer = LayerTracer()
    tracer.install()
    try:
        wrapped = _current()
        assert all(wrapped[key] is not originals[key] for key in originals)
    finally:
        tracer.uninstall()
    restored = _current()
    assert all(restored[key] is originals[key] for key in originals)
