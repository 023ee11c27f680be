"""Trace persistence: save and load reference streams.

The paper drives its synonym-filter study from Pin traces of real
binaries; this module is the interchange point for doing the same with
this simulator — record a generated trace once and replay it across
configurations, or import an externally captured trace.

Two formats:

* **binary** (``.trc``) — fixed 16-byte records
  (``<HBBIQ``: asid, core, flags, gap, va), with an 8-byte magic/version
  header.  Compact and fast; the default.
* **text** (``.csv``) — ``asid,core,va_hex,w|r,gap`` lines with a header
  comment; greppable and diffable.

Both loaders are streaming (constant memory) and validate headers and
record integrity, so a truncated or foreign file fails loudly instead of
yielding garbage addresses.  Both formats hold exactly the binary
record's domain (asid < 2**16, core < 2**8, gap < 2**32, 0 <= va < 2**64,
none negative): loaders and savers raise :class:`TraceFormatError` outside
it, and a saver writes to a temporary file that replaces ``path`` only
once the whole trace is written, so a failed save leaves no trace file.
"""

from __future__ import annotations

import io
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.workloads.trace import TraceRecord

MAGIC = b"RPTRC\x01\x00\x00"
_RECORD = struct.Struct("<HBBIQ")  # asid, core, flags, gap, va
_FLAG_WRITE = 0x1

PathLike = Union[str, Path]


class TraceFormatError(Exception):
    """The file is not a valid trace in the expected format."""


# Field -> exclusive upper bound: the widths of the binary record.
_LIMITS = (("asid", 1 << 16), ("core", 1 << 8), ("va", 1 << 64), ("gap", 1 << 32))


def _checked(record: TraceRecord, path: PathLike, where: str,
             number: int) -> TraceRecord:
    """``record`` if both formats can hold it, else TraceFormatError."""
    for field, limit in _LIMITS:
        value = getattr(record, field)
        if not isinstance(value, int) or not 0 <= value < limit:
            raise TraceFormatError(f"{path}: {where} {number}: "
                                   f"{field}={value!r} outside [0, {limit:#x})")
    return record


@contextmanager
def _replacing(path: PathLike, mode: str):
    """Open a sibling temporary file that replaces ``path`` on success."""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, mode) as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.unlink(temporary)
        raise


# ---------------------------------------------------------------------- #
# Binary format
# ---------------------------------------------------------------------- #

def save_binary(path: PathLike, trace: Iterable[TraceRecord]) -> int:
    """Write a trace to the binary format; returns records written."""
    count = 0
    with _replacing(path, "wb") as handle:
        handle.write(MAGIC)
        buffer = io.BytesIO()
        for record in trace:
            _checked(record, path, "record", count)
            flags = _FLAG_WRITE if record.is_write else 0
            buffer.write(_RECORD.pack(record.asid, record.core, flags,
                                      record.gap, record.va))
            count += 1
            if buffer.tell() >= 1 << 20:
                handle.write(buffer.getvalue())
                buffer = io.BytesIO()
        handle.write(buffer.getvalue())
    return count


def load_binary(path: PathLike) -> Iterator[TraceRecord]:
    """Stream records from a binary trace file."""
    with open(path, "rb") as handle:
        header = handle.read(len(MAGIC))
        if header != MAGIC:
            raise TraceFormatError(f"{path}: bad magic {header!r}")
        while True:
            chunk = handle.read(_RECORD.size)
            if not chunk:
                return
            if len(chunk) != _RECORD.size:
                raise TraceFormatError(f"{path}: truncated record")
            asid, core, flags, gap, va = _RECORD.unpack(chunk)
            if flags & ~_FLAG_WRITE:
                raise TraceFormatError(f"{path}: unknown flags {flags:#x}")
            yield TraceRecord(asid=asid, core=core, va=va,
                              is_write=bool(flags & _FLAG_WRITE), gap=gap)


# ---------------------------------------------------------------------- #
# Text format
# ---------------------------------------------------------------------- #

def save_text(path: PathLike, trace: Iterable[TraceRecord]) -> int:
    """Write a trace as ``asid,core,va_hex,w|r,gap`` lines."""
    count = 0
    with _replacing(path, "w") as handle:
        handle.write("# repro trace v1: asid,core,va,rw,gap\n")
        for record in trace:
            _checked(record, path, "record", count)
            rw = "w" if record.is_write else "r"
            handle.write(f"{record.asid},{record.core},"
                         f"{record.va:#x},{rw},{record.gap}\n")
            count += 1
    return count


def load_text(path: PathLike) -> Iterator[TraceRecord]:
    """Stream records from a text trace file."""
    with open(path, encoding="utf-8") as handle:
        try:
            yield from _text_records(path, handle)
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _text_records(path: PathLike, handle) -> Iterator[TraceRecord]:
    first = handle.readline()
    if not first.startswith("# repro trace v1"):
        raise TraceFormatError(f"{path}: missing text-trace header")
    for line_number, line in enumerate(handle, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 5 or parts[3] not in ("r", "w"):
            raise TraceFormatError(
                f"{path}:{line_number}: malformed record {line!r}")
        try:
            record = TraceRecord(asid=int(parts[0]), core=int(parts[1]),
                                 va=int(parts[2], 16),
                                 is_write=parts[3] == "w",
                                 gap=int(parts[4]))
        except ValueError as exc:
            raise TraceFormatError(
                f"{path}:{line_number}: {exc}") from exc
        yield _checked(record, path, "line", line_number)


# ---------------------------------------------------------------------- #
# Format dispatch
# ---------------------------------------------------------------------- #

def save(path: PathLike, trace: Iterable[TraceRecord]) -> int:
    """Save, picking the format from the extension (.trc binary, else text)."""
    if str(path).endswith(".trc"):
        return save_binary(path, trace)
    return save_text(path, trace)


def load(path: PathLike) -> Iterator[TraceRecord]:
    """Load, sniffing the format from the file's first bytes."""
    with open(path, "rb") as handle:
        head = handle.read(len(MAGIC))
    if head == MAGIC:
        return load_binary(path)
    return load_text(path)
