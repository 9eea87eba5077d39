"""Columnar compressed snapshot container ("parquet-lite").

The paper converts each 119 GB PSV snapshot into Parquet — columnar,
compressed, directly scannable — cutting the footprint to ~28 GB and making
the SparkSQL analyses fast (§3, Figure 4).  This module reproduces that
pipeline stage with a self-contained format:

* numeric columns are stored one block each, so an analysis touching only
  ``atime``/``mtime`` never decompresses paths;
* path strings are stored as a newline-joined, zlib-compressed string table.

Every writer emits one layout, ``RPQ3``::

    magic "RPQ3" | u32 header_len | u32 header_crc32 | header JSON
    | pad | block | pad | block | ... | u64 total_file_len | "RPQE"

Every column block starts at a :data:`BLOCK_ALIGN`-byte boundary (zero
padding in between) and records its offset — relative to the aligned data
base — in the header, so numeric columns stored with the ``raw`` codec can
be mapped straight out of the file (``mmap`` + ``np.frombuffer``) without
any inflation.  Per block the codec is a flag: ``raw`` (snapshot numeric
columns), ``zlib``/``delta-zlib`` (compressed numeric columns — the
streaming ingest and the ``.rpd`` delta sidecars write these), and
``strtab-zlib`` for a path table; a block tagged with any other codec is
refused with a typed error naming it.  Integrity is layered: a header
CRC, per-block CRC32s, and the total-length trailer.

``RPQ2`` — the same envelope with blocks back to back and no recorded
offsets — stays readable: files written before ``RPQ3`` became the only
written layout use it, every ingest output and ``.rpd`` sidecar among
them.  ``RPQ1`` (no header CRC, no trailer) is refused.
:func:`_read_header` is the only code that knows the two readable
layouts; every reader walks the blocks it locates.

Reading is either eager (:func:`read_columnar` — decode everything now) or
lazy (:func:`open_columnar` — decode the path table eagerly so interning
order matches an eager load, then decode each numeric block on first
attribute touch; ``raw`` blocks become read-only mmap-backed views).
Block CRCs are verified on first touch either way.

Every integrity failure raises :class:`~repro.scan.errors.
CorruptSnapshotError` carrying the file, byte offset, and reason — never a
cryptic ``JSONDecodeError``, never silently wrong data.  Writes are atomic
(tmp + fsync + rename via :mod:`repro.core.durable`): a crash mid-write
cannot leave a torn file behind.
"""

from __future__ import annotations

import json
import mmap
import threading
import time
import zlib
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from repro.core.durable import atomic_write
from repro.scan.errors import CorruptSnapshotError
from repro.scan.paths import PathTable
from repro.scan.snapshot import COLUMN_DTYPES, NUMERIC_COLUMNS, Snapshot

MAGIC_V2 = b"RPQ2"
MAGIC_V3 = b"RPQ3"
END_MAGIC = b"RPQE"

#: Block alignment: every column block starts on this boundary so raw
#: numeric blocks can be mapped as page-cache-friendly aligned views.
BLOCK_ALIGN = 64

#: Preamble size: magic + u32 header length + u32 header CRC.
_PREAMBLE_LEN = 12

#: Trailer size: u64 total length + 4-byte end magic.
_TRAILER_LEN = 12

#: Columns that benefit from delta-encoding against their minimum.
_DELTA_COLUMNS = frozenset({"atime", "mtime", "ctime", "ino"})

_COMPRESSION_LEVEL = 6

_HEADER_KEYS = ("label", "timestamp", "rows", "columns")
_META_COUNTS = ("rows", "stored_bytes", "crc32")

#: Codecs a numeric column block may carry (a tuple: membership compares
#: with ``==``, so an unhashable codec in a crafted header stays typed).
_NUMERIC_CODECS = ("raw", "zlib", "delta-zlib")

#: Numeric columns a snapshot stores; ``path_id`` is rebuilt from the
#: path table on read.
_STORED_COLUMNS = tuple(n for n in NUMERIC_COLUMNS if n != "path_id")


def _align_up(offset: int) -> int:
    return -(-offset // BLOCK_ALIGN) * BLOCK_ALIGN


def _decode_column(
    blob: bytes, meta: dict, source: str | Path, offset: int
) -> np.ndarray:
    name = meta["name"]
    if zlib.crc32(blob) != meta["crc32"]:
        raise CorruptSnapshotError(
            source, f"column {name!r}: checksum mismatch", offset=offset
        )
    codec = meta["codec"]
    if codec not in _NUMERIC_CODECS:
        raise CorruptSnapshotError(
            source, f"column {name!r}: unknown codec {codec!r}", offset=offset
        )
    try:
        raw = bytes(blob) if codec == "raw" else zlib.decompress(blob)
    except Exception as exc:
        raise CorruptSnapshotError(
            source, f"column {name!r}: decompression failed ({exc})", offset=offset
        ) from exc
    try:
        if codec == "delta-zlib":
            delta = np.frombuffer(raw, dtype=np.uint64).astype(np.int64)
            data = (delta + int(meta["base"])).astype(np.dtype(meta["dtype"]))
        else:
            data = np.frombuffer(raw, dtype=np.dtype(meta["dtype"])).copy()
    except (ValueError, TypeError, KeyError) as exc:
        raise CorruptSnapshotError(
            source, f"column {name!r}: undecodable block ({exc})", offset=offset
        ) from exc
    if data.size != meta["rows"]:
        raise CorruptSnapshotError(
            source,
            f"column {name!r}: {data.size} values for {meta['rows']} rows",
            offset=offset,
        )
    return data


def encode_column(name: str, data: np.ndarray) -> tuple[bytes, dict]:
    """Encode one numeric column into a compressed ``(blob, meta)`` block.

    ``delta-zlib`` (delta-encoded against the column minimum) for the time
    and inode columns, plain ``zlib`` otherwise.  The ``.rpd`` delta
    sidecars store their columns this way; :func:`write_columnar` stores
    snapshot columns ``raw`` instead, so the lazy reader can map them.
    """
    meta: dict = {"name": name, "dtype": str(data.dtype), "rows": int(data.size)}
    if name in _DELTA_COLUMNS and data.size:
        base = int(data.min())
        delta = (data.astype(np.int64) - base).astype(np.uint64)
        raw = delta.tobytes()
        meta["codec"] = "delta-zlib"
        meta["base"] = base
        meta["raw_bytes"] = len(raw)
        blob = zlib.compress(raw, _COMPRESSION_LEVEL)
    else:
        raw = np.ascontiguousarray(data).tobytes()
        meta["raw_bytes"] = len(raw)
        meta["codec"] = "zlib"
        blob = zlib.compress(raw, _COMPRESSION_LEVEL)
    meta["stored_bytes"] = len(blob)
    meta["crc32"] = zlib.crc32(blob)
    return blob, meta


def column_block_meta(
    name: str, dtype, rows: int, blob: bytes, raw_bytes: int
) -> dict:
    """Block meta for an externally compressed plain-``zlib`` column.

    ``blob`` must be one zlib stream over the concatenated little-endian
    array bytes of the column — exactly what feeding per-chunk
    ``np.asarray(..., dtype).tobytes()`` through an incremental
    ``zlib.compressobj`` produces.  Streaming producers use this instead
    of :func:`encode_column` so a column never has to exist in memory
    uncompressed; the trade is that the ``delta-zlib`` codec (which needs
    the global minimum up front) and the ``raw`` codec (which would hold
    the whole column resident) are unavailable to them.
    """
    return {
        "name": name,
        "dtype": str(np.dtype(dtype)),
        "codec": "zlib",
        "rows": int(rows),
        "raw_bytes": int(raw_bytes),
        "stored_bytes": len(blob),
        "crc32": zlib.crc32(blob),
    }


def path_block_meta(blob: bytes, rows: int, raw_bytes: int) -> dict:
    """Block meta for an externally compressed ``__paths__`` string table.

    ``blob`` must be the zlib stream of the newline-joined UTF-8 path
    strings (``rows`` of them, ``raw_bytes`` before compression) — exactly
    what an incremental ``zlib.compressobj`` over row chunks produces.
    """
    return {
        "name": "__paths__",
        "codec": "strtab-zlib",
        "rows": int(rows),
        "raw_bytes": int(raw_bytes),
        "stored_bytes": len(blob),
        "crc32": zlib.crc32(blob),
    }


def write_columnar_blocks(
    dest: str | Path,
    label: str,
    timestamp: int,
    rows: int,
    blocks: list[tuple[bytes, dict]],
) -> int:
    """Assemble an ``RPQ3`` file from pre-encoded blocks; returns its size.

    Each block is placed on a :data:`BLOCK_ALIGN` boundary (zero padding
    between blocks) and its offset relative to the aligned data base is
    recorded in its meta, enabling the lazy mmap read path.  Block
    payloads are written verbatim, whatever their codec.  The streaming
    ingest builds its blocks incrementally (numeric columns and the path
    table each fed chunk-by-chunk through an incremental compressor)
    precisely so a multi-GB source file never has to exist in memory as
    one :class:`~repro.scan.snapshot.Snapshot`.  The write is atomic
    (tmp + fsync + rename); row order is preserved as given — the readers
    re-sort by interned path id on load.
    """
    rel = 0
    for _, meta in blocks:
        meta["offset"] = rel
        rel = _align_up(rel + int(meta["stored_bytes"]))
    header = {
        "label": label,
        "timestamp": int(timestamp),
        "rows": int(rows),
        "columns": [meta for _, meta in blocks],
    }
    header_bytes = json.dumps(header).encode("utf-8")
    data_base = _align_up(_PREAMBLE_LEN + len(header_bytes))
    total_len = data_base + rel + _TRAILER_LEN
    with atomic_write(dest, "wb") as fh:
        fh.write(MAGIC_V3)
        fh.write(len(header_bytes).to_bytes(4, "little"))
        fh.write(zlib.crc32(header_bytes).to_bytes(4, "little"))
        fh.write(header_bytes)
        pos = _PREAMBLE_LEN + len(header_bytes)
        for blob, meta in blocks:
            start = data_base + meta["offset"]
            fh.write(b"\0" * (start - pos))
            fh.write(blob)
            pos = start + len(blob)
        fh.write(b"\0" * (data_base + rel - pos))
        fh.write(total_len.to_bytes(8, "little"))
        fh.write(END_MAGIC)
    return total_len


def write_columnar(snapshot: Snapshot, dest: str | Path) -> dict:
    """Serialize a snapshot (atomically); returns size statistics.

    Numeric columns are stored ``raw`` (the little-endian array bytes, so
    :func:`open_columnar` maps them zero-copy).  The snapshot's referenced
    path strings are embedded (the file must be self-contained) as one
    ``strtab-zlib`` block in row order.  The write goes through a
    same-directory temp file with fsync + atomic rename, so a crash never
    leaves a torn ``.rpq``.
    """
    blocks: list[tuple[bytes, dict]] = []
    for name in _STORED_COLUMNS:
        data = getattr(snapshot, name)
        blob = np.ascontiguousarray(data).tobytes()
        blocks.append((blob, {
            "name": name,
            "dtype": str(data.dtype),
            "rows": int(data.size),
            "codec": "raw",
            "raw_bytes": len(blob),
            "stored_bytes": len(blob),
            "crc32": zlib.crc32(blob),
        }))
    pids = snapshot.path_id
    table = snapshot.paths.paths
    strings = "\n".join(table[pid] for pid in pids)
    str_blob = zlib.compress(strings.encode("utf-8"), _COMPRESSION_LEVEL)
    blocks.append(
        (str_blob, path_block_meta(str_blob, int(pids.size), len(strings)))
    )
    stored_total = write_columnar_blocks(
        dest, snapshot.label, snapshot.timestamp, len(snapshot), blocks
    )
    raw_total = sum(meta["raw_bytes"] for _, meta in blocks)
    return {
        "raw_bytes": raw_total,
        "stored_bytes": stored_total,
        "ratio": raw_total / stored_total if stored_total else 0.0,
    }


# -- hardened read path -----------------------------------------------------


def _read_exact(fh: BinaryIO, n: int, source: str | Path, what: str) -> bytes:
    offset = fh.tell()
    data = fh.read(n)
    if len(data) != n:
        raise CorruptSnapshotError(
            source,
            f"truncated {what}: wanted {n} bytes, file ends after {len(data)}",
            offset=offset,
        )
    return data


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_integer_dtype(value) -> bool:
    try:
        return isinstance(value, str) and np.dtype(value).kind in "iu"
    except TypeError:
        return False


def _header_problem(header, aligned: bool) -> str | None:
    """Why a decoded header is unusable, or None when it is well-formed.

    Every field a reader indexes, compares or does arithmetic with is
    type-checked here, so a crafted header with a valid CRC fails typed
    instead of deep inside a decode with a ``ValueError``/``TypeError``.
    """
    if not isinstance(header, dict) or any(k not in header for k in _HEADER_KEYS):
        return f"missing required keys {_HEADER_KEYS}"
    if not (
        isinstance(header["label"], str)
        and type(header["timestamp"]) is int
        and _is_count(header["rows"])
        and isinstance(header["columns"], list)
    ):
        return f"fields {_HEADER_KEYS} have wrong types"
    counts = _META_COUNTS + ("offset",) if aligned else _META_COUNTS
    for i, meta in enumerate(header["columns"]):
        if not (
            isinstance(meta, dict)
            and isinstance(meta.get("name"), str)
            and isinstance(meta.get("codec"), str)
        ):
            return f"block {i} lacks a string name and codec"
        bad = [key for key in counts if not _is_count(meta.get(key))]
        if bad:
            return f"block {meta['name']!r}: {bad} must be non-negative integers"
        dtype = meta.get("dtype")
        if meta["codec"] in _NUMERIC_CODECS and not _is_integer_dtype(dtype):
            return f"block {meta['name']!r}: dtype {dtype!r} is not an integer dtype"
    return None


def _read_header(fh: BinaryIO, source: str | Path) -> tuple[dict, list[int]]:
    """Validate a file's envelope and block table; returns the header and
    every block's absolute file offset, in header order.

    The only code that knows the readable layouts: ``RPQ3`` blocks start on
    :data:`BLOCK_ALIGN` boundaries past the aligned data base and record
    that relative offset; ``RPQ2`` blocks follow the header back to back.
    Either way the blocks must tile the data section exactly up to the
    trailer.  Anything else — ``RPQ1`` included — is refused by magic.
    """
    magic = fh.read(4)
    if magic not in (MAGIC_V2, MAGIC_V3):
        raise CorruptSnapshotError(
            source,
            f"not a readable columnar snapshot (magic {magic!r}; "
            f"{MAGIC_V2!r} and {MAGIC_V3!r} are read)",
            offset=0,
        )
    aligned = magic == MAGIC_V3
    file_len = fh.seek(0, 2)
    # the trailer must agree with the real file length before anything
    # else is trusted — this catches every truncation with one stat
    if file_len < _PREAMBLE_LEN + _TRAILER_LEN:
        raise CorruptSnapshotError(
            source, f"file too short ({file_len} bytes)", offset=file_len
        )
    fh.seek(file_len - _TRAILER_LEN)
    recorded_len = int.from_bytes(
        _read_exact(fh, 8, source, "length trailer"), "little"
    )
    end_magic = _read_exact(fh, 4, source, "end magic")
    if end_magic != END_MAGIC or recorded_len != file_len:
        raise CorruptSnapshotError(
            source,
            f"trailer mismatch: recorded length {recorded_len}, end magic "
            f"{end_magic!r}, actual length {file_len} (truncated or torn write)",
            offset=file_len - _TRAILER_LEN,
        )
    fh.seek(4)
    header_len = int.from_bytes(_read_exact(fh, 4, source, "header length"), "little")
    header_crc = int.from_bytes(
        _read_exact(fh, 4, source, "header checksum"), "little"
    )
    if header_len <= 0 or _PREAMBLE_LEN + header_len > file_len:
        raise CorruptSnapshotError(
            source,
            f"implausible header length {header_len} for a {file_len}-byte file",
            offset=4,
        )
    header_bytes = _read_exact(fh, header_len, source, "header")
    if zlib.crc32(header_bytes) != header_crc:
        raise CorruptSnapshotError(
            source, "header checksum mismatch", offset=_PREAMBLE_LEN
        )
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(
            source, f"header is not valid JSON ({exc})", offset=_PREAMBLE_LEN
        ) from exc
    problem = _header_problem(header, aligned)
    if problem is not None:
        raise CorruptSnapshotError(
            source, f"malformed header: {problem}", offset=_PREAMBLE_LEN
        )
    base = _PREAMBLE_LEN + header_len
    if aligned:
        base = _align_up(base)
    pos = base
    offsets = []
    for meta in header["columns"]:
        if aligned and base + meta["offset"] != pos:
            raise CorruptSnapshotError(
                source,
                f"column {meta['name']!r}: recorded offset {meta['offset']} "
                f"disagrees with the computed block layout ({pos - base})",
                offset=pos,
            )
        offsets.append(pos)
        pos += meta["stored_bytes"]
        if aligned:
            pos = _align_up(pos)
    data_end = file_len - _TRAILER_LEN
    if pos != data_end:
        raise CorruptSnapshotError(
            source,
            f"blocks span {pos - base} bytes but the data section is "
            f"{data_end - base} bytes",
            offset=base,
        )
    return header, offsets


def _read_block(fh: BinaryIO, source: str | Path, meta: dict, offset: int) -> bytes:
    """The stored bytes of one block located by :func:`_read_header`."""
    fh.seek(offset)
    return _read_exact(fh, meta["stored_bytes"], source, f"block {meta['name']!r}")


def read_columnar_header(source: str | Path) -> dict:
    """Read and fully validate only the header (label, timestamp, rows).

    Cheap (no column block is decompressed) yet strict: magic, length
    fields, the header CRC, the total-length trailer, the type of every
    block-table field, and the block layout are all checked, so truncated,
    torn and malformed files are rejected here — before a
    :class:`~repro.scan.store.DiskSnapshotCollection` ever indexes them.
    """
    with open(source, "rb") as fh:
        header, _ = _read_header(fh, source)
    return {key: header[key] for key in ("label", "timestamp", "rows")}


def _decode_strtab(
    blob: bytes, meta: dict, rows: int, source: str | Path, offset: int
) -> list[str]:
    """Decode a ``strtab-zlib`` path table that must hold ``rows`` strings."""
    name = meta["name"]
    if zlib.crc32(blob) != meta["crc32"]:
        raise CorruptSnapshotError(
            source, f"path table {name!r}: checksum mismatch", offset=offset
        )
    try:
        text = zlib.decompress(blob).decode("utf-8")
    except (zlib.error, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(
            source, f"path table {name!r}: undecodable ({exc})", offset=offset
        ) from exc
    strings = text.split("\n") if text else []
    if len(strings) != rows:
        raise CorruptSnapshotError(
            source, f"path table {name!r}: {len(strings)} paths for {rows} rows",
            offset=offset,
        )
    return strings


def _read_prologue(
    fh: BinaryIO, source: str | Path
) -> tuple[dict, list[str], dict[str, tuple[dict, int]]]:
    """The front half every snapshot reader shares.

    Validates the header, decodes the path table, and locates every other
    block; returns ``(header, path strings, {name: (meta, offset)})``.  A
    file without a path table or missing a stored numeric column is
    refused here, before any column decodes or any path is interned.
    """
    header, offsets = _read_header(fh, source)
    strings: list[str] | None = None
    blocks: dict[str, tuple[dict, int]] = {}
    for meta, offset in zip(header["columns"], offsets):
        if meta["codec"] == "strtab-zlib":
            blob = _read_block(fh, source, meta, offset)
            strings = _decode_strtab(blob, meta, header["rows"], source, offset)
        else:
            blocks[meta["name"]] = (meta, offset)
    if strings is None:
        raise CorruptSnapshotError(source, "missing path table block")
    missing = [name for name in _STORED_COLUMNS if name not in blocks]
    if missing:
        raise CorruptSnapshotError(source, f"missing column blocks {missing}")
    return header, strings, blocks


def read_columnar(source: str | Path, paths: PathTable) -> Snapshot:
    """Load a columnar snapshot eagerly, re-interning its paths into ``paths``."""
    with open(source, "rb") as fh:
        header, strings, blocks = _read_prologue(fh, source)
        columns = {
            name: _decode_column(
                _read_block(fh, source, meta, offset), meta, source, offset
            )
            for name, (meta, offset) in blocks.items()
        }
    columns["path_id"] = paths.intern_many(strings)
    cast = {
        name: np.ascontiguousarray(columns[name], dtype=COLUMN_DTYPES[name])
        for name in NUMERIC_COLUMNS
    }
    return Snapshot(
        label=header["label"],
        timestamp=header["timestamp"],
        paths=paths,
        **cast,
    )


def read_columnar_paths(source: str | Path, paths: PathTable) -> np.ndarray:
    """Intern only a snapshot's path strings; returns the row → id column.

    Reads the header plus the ``__paths__`` block (seeking past the numeric
    blocks) — the cheap way to reproduce the PathTable state a full
    :func:`read_columnar` of this file would have produced.  The resume
    path uses this to replay the interning order of already-journaled
    snapshots, keeping path ids consistent across a crash boundary.
    """
    with open(source, "rb") as fh:
        _, strings, _ = _read_prologue(fh, source)
    return paths.intern_many(strings)


# -- lazy read path ---------------------------------------------------------


class LazySnapshot(Snapshot):
    """A :class:`Snapshot` whose numeric columns decode on first touch.

    Produced by :func:`open_columnar`.  The path table block is decoded
    eagerly (interning order must match an eager load exactly) and the
    row-sort permutation is captured once from ``path_id``; every other
    numeric column stays on disk until an analysis touches the attribute.
    For ``raw`` blocks the decoded array is a read-only view over a
    shared ``mmap`` of the file — zero-copy when the rows were already
    sorted (the archive writer's case), one gather otherwise.  Block CRCs
    are verified on first touch; a failed check raises
    :class:`~repro.scan.errors.CorruptSnapshotError` through the optional
    ``on_corrupt`` hook (the disk store's quarantine path).

    ``column_nbytes()`` deliberately reports the *full* decoded size
    (derivable from the header without decoding anything) so transport and
    memory-budget estimates are independent of what happens to be resident;
    :meth:`resident_nbytes` reports what is actually decoded.
    """

    def __getattr__(self, name: str):
        # decoded columns live in _resident (not as instance attributes) so
        # every access passes through here — that is what lets the disk
        # store count block-level hits, not just first-touch misses
        if name in _STORED_COLUMNS:
            arr = self.__dict__["_resident"].get(name)
            if arr is not None:
                hook = self.__dict__.get("_on_hit")
                if hook is not None:
                    hook(name)
                return arr
            return self._decode_lazy(name)
        raise AttributeError(name)

    def _mapped(self) -> mmap.mmap:
        mm = self.__dict__.get("_mmap")
        if mm is None:
            with open(self._source, "rb") as fh:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            self.__dict__["_mmap"] = mm
        return mm

    def _decode_lazy(self, name: str) -> np.ndarray:
        # single-flight per snapshot: concurrent readers racing to the same
        # un-decoded block must produce exactly one decode (one on_decode
        # charge, one block miss); the losers take the resident array as a
        # block hit once the winner releases the lock
        with self.__dict__["_lock"]:
            arr = self.__dict__["_resident"].get(name)
            if arr is not None:
                hook = self.__dict__.get("_on_hit")
                if hook is not None:
                    hook(name)
                return arr
            try:
                meta, offset = self._blocks[name]
            except KeyError:
                raise AttributeError(name) from None
            # transient OSError (EIO under load) rides the same retry/backoff
            # ladder the disk store applies to eager opens — a flaky read
            # surfacing at first column touch must not escape the policy.
            # Corruption is permanent and never retried.
            retries = int(self.__dict__.get("_io_retries") or 0)
            backoff = float(self.__dict__.get("_io_backoff") or 0.0)
            for attempt in range(retries + 1):
                try:
                    arr = self._decode_block(name, meta, offset)
                    break
                except CorruptSnapshotError as exc:
                    hook = self.__dict__.get("_on_corrupt")
                    if hook is not None:
                        hook(exc)
                    raise
                except OSError:
                    if attempt >= retries:
                        raise
                    hook = self.__dict__.get("_on_io_retry")
                    if hook is not None:
                        hook()
                    time.sleep(backoff * (2 ** attempt))
            if self._order is not None:
                arr = arr[self._order]
            arr = np.ascontiguousarray(arr, dtype=COLUMN_DTYPES[name])
            if arr.base is not None:
                arr.flags.writeable = False
            self.__dict__["_resident"][name] = arr
            hook = self.__dict__.get("_on_decode")
            if hook is not None:
                hook(name, int(arr.nbytes))
            return arr

    def _decode_block(self, name: str, meta: dict, offset: int) -> np.ndarray:
        stored = meta["stored_bytes"]
        if meta["codec"] == "raw":
            dtype = np.dtype(meta["dtype"])
            if stored != meta["rows"] * dtype.itemsize:
                # frombuffer below reads rows * itemsize bytes: a mismatch
                # would map bytes outside the checksummed block
                raise CorruptSnapshotError(
                    self._source,
                    f"column {name!r}: {stored} bytes for {meta['rows']} "
                    f"{dtype} rows",
                    offset=offset,
                )
            if stored == 0:
                return np.empty(0, dtype=dtype)
            mm = self._mapped()
            blob = memoryview(mm)[offset : offset + stored]
            if zlib.crc32(blob) != meta["crc32"]:
                raise CorruptSnapshotError(
                    self._source, f"column {name!r}: checksum mismatch",
                    offset=offset,
                )
            return np.frombuffer(mm, dtype=dtype, count=meta["rows"], offset=offset)
        with open(self._source, "rb") as fh:
            blob = _read_block(fh, self._source, meta, offset)
        return _decode_column(blob, meta, self._source, offset)

    def column_nbytes(self) -> int:
        """Full decoded size of all columns (header-derived, residency-free)."""
        rows = len(self)
        return int(
            sum(rows * np.dtype(COLUMN_DTYPES[n]).itemsize for n in NUMERIC_COLUMNS)
        )

    def resident_nbytes(self) -> int:
        """Bytes of columns actually decoded (what the block cache accounts)."""
        return int(self.path_id.nbytes) + int(
            sum(arr.nbytes for arr in self.__dict__["_resident"].values())
        )

    def resident_columns(self) -> tuple[str, ...]:
        """Names of the decoded numeric columns (observability/tests)."""
        return ("path_id",) + tuple(
            n for n in _STORED_COLUMNS if n in self.__dict__["_resident"]
        )

    def __reduce__(self):  # pragma: no cover - exercised via pickle transport
        # Pickling materializes: mmap views cannot travel between processes.
        columns = {n: np.asarray(getattr(self, n)) for n in NUMERIC_COLUMNS}
        return (
            Snapshot.from_attached_columns,
            (self.label, self.timestamp, self.paths, columns),
        )


def open_columnar(
    source: str | Path,
    paths: PathTable,
    on_decode: Callable[[str, int], None] | None = None,
    on_hit: Callable[[str], None] | None = None,
    on_corrupt: Callable[[CorruptSnapshotError], None] | None = None,
    io_retries: int = 0,
    io_backoff: float = 0.0,
    on_io_retry: Callable[[], None] | None = None,
) -> LazySnapshot:
    """Open a columnar snapshot for lazy, block-at-a-time decoding.

    Eager work mirrors :func:`read_columnar` exactly where identity
    matters: the header is fully validated, the ``__paths__`` block is
    decoded and interned into ``paths`` (same order, same ids as an eager
    load), and the stable row-sort permutation is computed from the
    resulting ``path_id``.  Every *numeric* block decodes only when its
    attribute is first touched; results are bit-identical to
    :func:`read_columnar` for both readable layouts.

    ``on_decode(name, nbytes)`` fires after each block decode (the disk
    store's byte accounting), ``on_hit(name)`` on every access to an
    already-decoded block (block-level hit counters), and ``on_corrupt(exc)``
    before a lazy-read :class:`~repro.scan.errors.CorruptSnapshotError`
    propagates (the store's quarantine hook).

    ``io_retries``/``io_backoff`` extend the disk store's transient-I/O
    policy to *lazy* block touches: an ``OSError`` raised while decoding a
    block (EIO under load, not just at open time) is retried up to
    ``io_retries`` times with ``io_backoff * 2**attempt`` sleeps, firing
    ``on_io_retry()`` before each retry.  Corruption is never retried.
    """
    src = Path(source)
    with open(src, "rb") as fh:
        header, strings, blocks = _read_prologue(fh, src)
    pid = np.ascontiguousarray(
        paths.intern_many(strings), dtype=COLUMN_DTYPES["path_id"]
    )
    order: np.ndarray | None = None
    if pid.size and not bool(np.all(pid[1:] >= pid[:-1])):
        # same stable sort Snapshot.__post_init__ would apply — captured
        # once here and applied per column as each block decodes
        order = np.argsort(pid, kind="stable")
        pid = pid[order]
    snap = LazySnapshot.__new__(LazySnapshot)
    d = snap.__dict__
    d["label"] = header["label"]
    d["timestamp"] = header["timestamp"]
    d["paths"] = paths
    d["path_id"] = pid
    d["_source"] = src
    d["_blocks"] = blocks
    d["_order"] = order
    d["_resident"] = {}
    d["_on_decode"] = on_decode
    d["_on_hit"] = on_hit
    d["_on_corrupt"] = on_corrupt
    d["_io_retries"] = max(0, int(io_retries))
    d["_io_backoff"] = float(io_backoff)
    d["_on_io_retry"] = on_io_retry
    d["_lock"] = threading.Lock()
    return snap


def describe_sections(source: str | Path) -> list[tuple[str, int, int]]:
    """``(name, offset, length)`` for every section of a valid ``.rpq``.

    The fault-injection harness uses this to enumerate truncation points
    and per-column corruption targets; it requires a readable file (run it
    *before* corrupting).  Sections are ordered and non-overlapping; for
    ``RPQ2`` they tile the file, for ``RPQ3`` the inter-block alignment
    padding is *not* listed — pad bytes carry no data and no checksum, so
    they are not corruption targets (truncation anywhere is still caught
    by the length trailer).
    """
    with open(source, "rb") as fh:
        header, offsets = _read_header(fh, source)
        fh.seek(4)
        header_len = int.from_bytes(fh.read(4), "little")
        file_len = fh.seek(0, 2)
    return [
        ("magic", 0, 4),
        ("header_len", 4, 4),
        ("header_crc", 8, 4),
        ("header", _PREAMBLE_LEN, header_len),
        *(
            (f"column:{meta['name']}", offset, meta["stored_bytes"])
            for meta, offset in zip(header["columns"], offsets)
        ),
        ("trailer", file_len - _TRAILER_LEN, _TRAILER_LEN),
    ]
