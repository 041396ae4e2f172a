"""Golden command-line surface: every parser, subcommand and option.

A refactor of ``repro.cli`` must keep each command's flags, defaults,
types, choices and arity.  ``cli_surface.json`` holds, for every parser
``build_parser()`` builds (keyed by its command path):

* its subcommand names and whether a subcommand is required;
* for each option, keyed by name: option strings, dest, default
  (canonical JSON), type name, choices, nargs, required, action class
  and metavar.

Help wording is not pinned.  The file also checks that every
``python -m repro ...`` invocation shown in README.md or run by
``.github/workflows/ci.yml`` still parses; nothing is executed.

After an intentional change, rewrite the golden with::

    python tests/golden/test_cli_surface.py --bless

and name the change in CHANGES.md.
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    # run as a script: import the program from this checkout's sources
    sys.path.insert(0, str(ROOT / "src"))

import pytest

from repro.cli import build_parser

GOLDEN = Path(__file__).with_name("cli_surface.json")


def _canonical(value):
    """A default or choice list as plain, order-stable JSON."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, os.PathLike):
        return os.fspath(value)
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _option(action: argparse.Action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": _canonical(action.default),
        "type": getattr(action.type, "__name__", None),
        "choices": _canonical(action.choices),
        "nargs": action.nargs,
        "required": action.required,
        "action": type(action).__name__,
        "metavar": action.metavar,
    }


def _walk(parser: argparse.ArgumentParser, path: str, out: dict) -> None:
    """Record ``parser`` and its subparsers; options are keyed by their
    long option string (a positional by its dest), so declaration order
    is not pinned."""
    entry: dict = {"options": {}}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            entry["subcommands"] = list(action.choices)
            entry["subcommand_required"] = action.required
            for name, child in action.choices.items():
                _walk(child, f"{path} {name}", out)
            continue
        options = action.option_strings
        name = options[-1] if options else action.dest
        entry["options"][name] = _option(action)
    out[path] = entry


def compute() -> dict:
    surface: dict = {}
    _walk(build_parser(), "repro", surface)
    return dict(sorted(surface.items()))


def render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _command_text(text: str) -> str:
    """The ``repro`` arguments of one shell line: stop at ``|``, ``>``
    or ``#`` outside quotes."""
    quote = None
    for i, char in enumerate(text):
        if quote:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char in "|>#":
            return text[:i]
    return text


def _joined_lines(path: Path, prompt: str) -> list[tuple[int, str]]:
    """``(line number, text)`` with ``\\`` continuations joined, and
    the ``prompt`` that opens a continuation line dropped."""
    joined: list[tuple[int, str]] = []
    pending: tuple[int, str] | None = None
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if pending is not None:
            line = line.strip().removeprefix(prompt)
            number, line = pending[0], f"{pending[1]} {line}"
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            pending = (number, stripped[:-1])
            continue
        pending = None
        joined.append((number, line))
    return joined


def invocations() -> list[tuple[str, list[str]]]:
    """Every ``python -m repro`` command of README.md (``$`` lines) and
    the CI workflow, as ``(where, argv)``."""
    found = []
    for name, marker, prompt in (
        ("README.md", "$ python -m repro", ">"),
        (".github/workflows/ci.yml", "python -m repro", ""),
    ):
        for number, line in _joined_lines(ROOT / name, prompt):
            at = line.find(marker)
            if at < 0 or (name == "README.md" and line[:at].strip()):
                continue
            text = _command_text(line[at + len(marker):])
            found.append((f"{name}:{number}", shlex.split(text)))
    return found


INVOCATIONS = invocations()


def test_surface_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    observed = json.loads(render(compute()))
    assert list(observed) == list(expected)
    for path in expected:
        assert observed[path] == expected[path], path


def test_every_documented_invocation_is_found():
    where = [source.split(":")[0] for source, _ in INVOCATIONS]
    assert where.count("README.md") == 30
    assert where.count(".github/workflows/ci.yml") == 19


@pytest.mark.parametrize(
    "argv", [argv for _, argv in INVOCATIONS],
    ids=[source for source, _ in INVOCATIONS],
)
def test_documented_invocation_parses(argv):
    build_parser().parse_args(argv)


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit(f"usage: {sys.argv[0]} --bless")
    GOLDEN.write_text(render(compute()))
    print(f"wrote {GOLDEN}")
