r"""PSV (pipe-separated values) snapshot codec — the LustreDU on-disk format.

One record per line, in the field order of the paper's Figure 2::

    PATH|ATIME|CTIME|MTIME|UID|GID|MODE|INODE|OST

* ``MODE`` is octal (e.g. ``100664``), exactly as LustreDU prints it.
* ``OST`` is a comma-separated ``ost_index:object_id`` list covering the
  file's stripes (``755:190da77,720:19d4fe1,...``); directories have an
  empty OST field.  Object ids are synthesized deterministically from the
  inode number, like Lustre's FID-derived object naming.

Paths are untrusted: a real scratch file system contains names with
embedded ``|``, backslashes, and even newlines.  The writer escapes those
(``\\`` ``\|`` ``\n`` ``\r`` — see :func:`escape_path`) so one record is
always one line with exactly eight field separators; :func:`parse_record`
(the parser behind :mod:`repro.ingest`, the one PSV reader) splits with
``rsplit("|", 8)`` (the eight numeric/OST fields never contain a pipe, so
any unescaped pipe from a foreign dump still lands in the path) and
unescapes.  Every parse failure raises a typed
:class:`~repro.scan.errors.IngestRecordError` carrying the file, line
number, and offending field — never a bare ``ValueError`` or unpack crash.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import NamedTuple

from repro.scan.errors import IngestRecordError
from repro.scan.snapshot import Snapshot

_GOLDEN = 2654435761  # Knuth multiplicative hash constant

#: Figure 2 field order; ``parse_record`` error messages name these.
PSV_FIELDS = (
    "path", "atime", "ctime", "mtime", "uid", "gid", "mode", "ino", "ost"
)

#: Characters that must never appear raw inside the path field: ``|`` would
#: add a field separator, ``\n``/``\r`` would break line framing, ``\\`` is
#: the escape character itself.
_NEEDS_ESCAPE = ("\\", "|", "\n", "\r")


def escape_path(path: str) -> str:
    """Escape a path for embedding as the first PSV field."""
    if not any(ch in path for ch in _NEEDS_ESCAPE):
        return path
    return (
        path.replace("\\", "\\\\")
        .replace("|", "\\|")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def unescape_path(field: str) -> str:
    """Invert :func:`escape_path`; unknown escapes are kept literally.

    Leniency on unknown escapes (and a lone trailing backslash) is
    deliberate: foreign dumps written by other tools never escape at all,
    and a path like ``C:\\temp`` must survive a round trip through a
    reader that tolerates it.
    """
    if "\\" not in field:
        return field
    out: list[str] = []
    i, n = 0, len(field)
    while i < n:
        ch = field[i]
        if ch == "\\" and i + 1 < n:
            nxt = field[i + 1]
            if nxt == "\\" or nxt == "|":
                out.append(nxt)
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt == "r":
                out.append("\r")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


class ParsedRecord(NamedTuple):
    """One syntactically valid PSV record (semantic checks live in
    :mod:`repro.ingest.validate`)."""

    path: str
    atime: int
    ctime: int
    mtime: int
    uid: int
    gid: int
    mode: int
    ino: int
    #: ``(ost_index, object_id)`` per stripe, in file order; empty for
    #: directories / zero-stripe entries.
    ost: tuple[tuple[int, int], ...]

    @property
    def stripe_count(self) -> int:
        return len(self.ost)

    @property
    def stripe_start(self) -> int:
        return self.ost[0][0] if self.ost else 0


def parse_record(
    line: str, source: str = "<record>", lineno: int = 0
) -> ParsedRecord:
    """Parse one PSV line; every failure is a typed
    :class:`~repro.scan.errors.IngestRecordError`.

    Splits with ``rsplit("|", 8)`` so escaped — or even unescaped —
    pipes inside the path cannot shift the numeric fields, then
    unescapes the path and converts each field with an attributable
    error on failure.
    """
    parts = line.rsplit("|", 8)
    if len(parts) != 9:
        raise IngestRecordError(
            source, lineno, "record",
            f"expected 9 |-separated fields, got {len(parts)}",
        )
    raw_path, atime, ctime, mtime, uid, gid, mode, ino, ost = parts
    if not raw_path:
        raise IngestRecordError(source, lineno, "path", "empty path")
    values = []
    for name, text in zip(
        ("atime", "ctime", "mtime", "uid", "gid"), (atime, ctime, mtime, uid, gid)
    ):
        try:
            values.append(int(text))
        except ValueError:
            raise IngestRecordError(
                source, lineno, name, f"not an integer: {text!r}"
            ) from None
    try:
        mode_val = int(mode, 8)
    except ValueError:
        raise IngestRecordError(
            source, lineno, "mode", f"not an octal mode: {mode!r}"
        ) from None
    try:
        ino_val = int(ino)
    except ValueError:
        raise IngestRecordError(
            source, lineno, "ino", f"not an integer: {ino!r}"
        ) from None
    entries: list[tuple[int, int]] = []
    if ost:
        for stripe in ost.split(","):
            idx, sep, objid = stripe.partition(":")
            if not sep:
                raise IngestRecordError(
                    source, lineno, "ost",
                    f"stripe {stripe!r} is not index:object_id",
                )
            try:
                entries.append((int(idx), int(objid, 16)))
            except ValueError:
                raise IngestRecordError(
                    source, lineno, "ost",
                    f"stripe {stripe!r} has a non-numeric index or object id",
                ) from None
    return ParsedRecord(
        unescape_path(raw_path), values[0], values[1], values[2],
        values[3], values[4], mode_val, ino_val, tuple(entries),
    )


def _object_id(ino: int, stripe_index: int) -> int:
    return ((ino * _GOLDEN) ^ (stripe_index * 0x9E3779B1)) & 0xFFFFFFF


def format_record(
    path: str,
    atime: int,
    ctime: int,
    mtime: int,
    uid: int,
    gid: int,
    mode: int,
    ino: int,
    stripe_start: int,
    stripe_count: int,
    ost_count: int,
    is_dir: bool,
) -> str:
    """One PSV line; keyword-free positional hot path for the writer."""
    if is_dir or stripe_count <= 0:
        ost = ""
    else:
        ost = ",".join(
            f"{(stripe_start + k) % ost_count}:{_object_id(ino, k):x}"
            for k in range(stripe_count)
        )
    return (
        f"{escape_path(path)}|{atime}|{ctime}|{mtime}|{uid}|{gid}"
        f"|{mode:o}|{ino}|{ost}"
    )


def write_psv(snapshot: Snapshot, dest: str | Path | io.TextIOBase,
              ost_count: int = 2016) -> int:
    """Write a snapshot as PSV text; returns the number of bytes written.

    Path destinations are written atomically (tmp + fsync + rename via
    :mod:`repro.core.durable`) so a crash mid-archive never leaves a torn
    snapshot file; stream destinations are the caller's responsibility.
    """
    if isinstance(dest, (str, Path)):
        from repro.core.durable import atomic_write

        with atomic_write(dest, "w") as fh:
            return _write_psv_stream(snapshot, fh, ost_count)
    return _write_psv_stream(snapshot, dest, ost_count)


def _write_psv_stream(
    snapshot: Snapshot, fh: io.TextIOBase, ost_count: int
) -> int:
    written = 0
    paths = snapshot.paths.paths
    is_dir = snapshot.is_dir
    for row in range(len(snapshot)):
        line = format_record(
            paths[snapshot.path_id[row]],
            int(snapshot.atime[row]),
            int(snapshot.ctime[row]),
            int(snapshot.mtime[row]),
            int(snapshot.uid[row]),
            int(snapshot.gid[row]),
            int(snapshot.mode[row]),
            int(snapshot.ino[row]),
            int(snapshot.stripe_start[row]),
            int(snapshot.stripe_count[row]),
            ost_count,
            bool(is_dir[row]),
        )
        written += fh.write(line + "\n")
    return written
