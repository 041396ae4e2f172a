"""Crash-consistent files: whole-file rewrites and append-only JSONL logs.

The farm result cache, its stats file, the job journal, the telemetry
manifest log and the quarantine ledgers are small stores owned by one
master process.  Two kinds of durable write serve them:

whole-file writers
    :func:`atomic_write_text` and :func:`atomic_write_bytes` stage the
    new contents in a temporary file *in the same directory* (so the
    rename cannot cross filesystems), fsync it, and swap it in with
    ``os.replace`` — readers observe either the old complete file or the
    new complete file.  ``stats.json``, journal compaction, GC's rewrite
    of the result log and the stream store use them.
append-only logs
    :func:`atomic_append_line` and :func:`atomic_append_lines` append
    with one ``O_APPEND`` write and one ``fsync`` per call, reading no
    more of the log than its last byte, so an append costs O(1) in the
    log's size.  An append that returned is durable.  A kill inside
    ``write(2)`` or a power loss can leave one unterminated last line;
    the next append seals it with a ``\\n`` before its own lines, so a
    fragment never glues onto a later record.

:func:`read_jsonl` is the one parser of those logs.  It hands every
non-blank line back with its raw bytes and either the parsed JSON object
or the reason the line is not one; each caller decides what a bad line
costs (the journal and the result cache quarantine and count it, the
manifest reader skips it, GC drops it).
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, NamedTuple

logger = logging.getLogger(__name__)


def _replace_with(path: Path, data: bytes) -> None:
    """Stage ``data`` next to ``path`` and atomically swap it in."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with ``text``."""
    path = Path(path)
    _replace_with(path, text.encode("utf-8"))
    return path


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data`` (binary blobs)."""
    path = Path(path)
    _replace_with(path, data)
    return path


def _as_bytes(line: str | bytes) -> bytes:
    """A log line as written: text as UTF-8, raw bytes as they are (a
    quarantined line keeps the bytes it was read with)."""
    return line.encode("utf-8") if isinstance(line, str) else line


def atomic_append_line(path: str | Path, line: str | bytes) -> Path:
    """Durably append one line to ``path``; O(1) in the log's size.

    :func:`atomic_append_lines` with a single line.
    """
    return atomic_append_lines(path, [line])


def atomic_append_lines(path: str | Path, lines: list[str | bytes]) -> Path:
    """Durably append lines to ``path`` with one ``O_APPEND`` write and
    one fsync; O(1) in the log's size.

    Reads no more of the log than its last byte.  A kill mid-write can
    leave a prefix of ``lines`` with an unterminated last line; the next
    append seals it, and :func:`read_jsonl` reports it as one bad line.
    """
    path = Path(path)
    data = b"".join(_as_bytes(line) + b"\n" for line in lines)
    if not data:
        return path
    flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o600)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o600)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            # a torn tail: seal it so the new lines start clean
            data = b"\n" + data
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)
    return path


class LogLine(NamedTuple):
    """One non-blank line of a JSONL log, as :func:`read_jsonl` found it."""

    #: the line's bytes, surrounding whitespace stripped
    raw: bytes
    #: the parsed JSON object, or None when the line is not one
    record: dict[str, Any] | None
    #: why ``record`` is None: "not UTF-8", "not valid JSON" or
    #: "not a JSON object"; empty when the line parsed
    problem: str = ""


def read_jsonl(path: str | Path) -> Iterator[LogLine]:
    """Every non-blank line of the log at ``path``, in append order.

    The file is read once and split on ``\\n``, the only separator the
    appenders emit.  A missing file is an empty log.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return
    for raw in data.split(b"\n"):
        raw = raw.strip()
        if not raw:
            continue
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            yield LogLine(raw, None, "not UTF-8")
            continue
        try:
            record = json.loads(text)
        except (ValueError, RecursionError):
            yield LogLine(raw, None, "not valid JSON")
            continue
        if isinstance(record, dict):
            yield LogLine(raw, record)
        else:
            yield LogLine(raw, None, "not a JSON object")


#: default size budget of a rotating ledger before it rolls over
DEFAULT_LEDGER_BUDGET_BYTES = 1_000_000


class RotatingLedger:
    """A size-budgeted append-only JSONL file that rotates instead of
    growing without bound.

    Quarantine files and incident ledgers exist to absorb *storms* —
    thousands of corrupt records or poisoned jobs arriving faster than
    anyone reads them.  Left uncapped, the storm that corrupted the
    cache also fills the disk.  When an append would push the file past
    ``max_bytes``, the current file is renamed to ``<name>.1``
    (replacing any previous generation — one generation of history is
    kept, the rest is sacrificed) and the append starts a fresh file.
    The first rotation per instance logs a warning; later ones are
    counted silently in :attr:`rotations`.
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int = DEFAULT_LEDGER_BUDGET_BYTES,
    ) -> None:
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.rotations = 0
        self._rotation_logged = False

    @property
    def rotated_path(self) -> Path:
        return self.path.with_name(self.path.name + ".1")

    def append(self, line: str | bytes) -> None:
        """Append one line (text, or a quarantined line's raw bytes),
        rotating first if the byte budget would burst."""
        data = _as_bytes(line)
        try:
            size = self.path.stat().st_size if self.path.exists() else 0
            if size and size + len(data) + 1 > self.max_bytes:
                os.replace(self.path, self.rotated_path)
                self.rotations += 1
                if not self._rotation_logged:
                    self._rotation_logged = True
                    logger.warning(
                        "ledger %s exceeded its %d-byte budget; rotated to "
                        "%s — further rotations are counted silently",
                        self.path, self.max_bytes, self.rotated_path,
                    )
            atomic_append_line(self.path, data)
        except OSError:
            pass  # ledgers are best-effort; never crash the caller
