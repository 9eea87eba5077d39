"""Columnar compressed snapshot container ("parquet-lite").

The paper converts each 119 GB PSV snapshot into Parquet — columnar,
compressed, directly scannable — cutting the footprint to ~28 GB and making
the SparkSQL analyses fast (§3, Figure 4).  This module reproduces that
pipeline stage with a self-contained format:

* numeric columns are stored one block each, so an analysis touching only
  ``atime``/``mtime`` never decompresses paths;
* timestamps are delta-encoded against the column minimum before
  compression (they cluster within the observation window);
* path strings are stored as a newline-joined, zlib-compressed string table.

Layout (version 2)::

    magic "RPQ2" | u32 header_len | u32 header_crc32 | header JSON
    | column blocks... | u64 total_file_len | end magic "RPQE"

Layout (version 3, the zero-copy format)::

    magic "RPQ3" | u32 header_len | u32 header_crc32 | header JSON
    | pad | block | pad | block | ... | u64 total_file_len | "RPQE"

Version 3 keeps the v2 integrity contract verbatim (header CRC, per-block
CRC32s, total-length trailer) and adds block alignment: every column block
starts at a :data:`BLOCK_ALIGN`-byte boundary (zero padding in between) and
records its offset — relative to the aligned data base — in the header, so
hot numeric columns stored with the ``raw`` codec can be mapped straight
out of the file (``mmap`` + ``np.frombuffer``) without any inflation.  Per
block the codec is a flag: ``raw`` (the v3 default for numeric columns),
``zlib``/``delta-zlib`` (the v2 codecs, still legal per block — the
streaming ingest keeps zlib even inside a v3 container), and
``strtab-zlib`` for the path table; a block tagged with any other codec is
refused with a typed error naming it.  Versions 1 (``RPQ1``, no header CRC,
no trailer) and 2 remain readable.

Reading is either eager (:func:`read_columnar` — decode everything now) or
lazy (:func:`open_columnar` — decode the path table eagerly so interning
order matches an eager load, then decode each numeric block on first
attribute touch; v3 ``raw`` blocks become read-only mmap-backed views).
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

MAGIC_V1 = b"RPQ1"
MAGIC_V2 = b"RPQ2"
MAGIC_V3 = b"RPQ3"
END_MAGIC = b"RPQE"
#: Back-compat alias (pre-versioning code imported the single magic).
MAGIC = MAGIC_V1

#: Container versions :func:`write_columnar` / ``write_columnar_blocks`` accept.
WRITE_FORMAT_VERSIONS = (2, 3)

#: What new archives are written as (``pipeline.archive`` / ``--format-version``).
DEFAULT_FORMAT_VERSION = 3

#: v3 block alignment: every column block starts on this boundary so raw
#: numeric blocks can be mapped as page-cache-friendly aligned views.
BLOCK_ALIGN = 64

#: Trailer size: u64 total length + 4-byte end magic.
_TRAILER_LEN = 12

#: Columns that benefit from delta-encoding against their minimum.
_DELTA_COLUMNS = frozenset({"atime", "mtime", "ctime", "ino"})

_COMPRESSION_LEVEL = 6

_HEADER_KEYS = ("label", "timestamp", "rows", "columns")
_META_KEYS = ("name", "codec", "rows", "stored_bytes", "crc32")

#: Codecs a numeric column block may carry (a tuple: membership compares
#: with ``==``, so an unhashable codec in a crafted header stays typed).
_NUMERIC_CODECS = ("raw", "zlib", "delta-zlib")


def _align_up(offset: int) -> int:
    return -(-offset // BLOCK_ALIGN) * BLOCK_ALIGN


def _encode_column(
    name: str, data: np.ndarray, format_version: int = 2
) -> tuple[bytes, dict]:
    """Encode one numeric column: ``raw`` for v3, ``zlib`` (``delta-zlib``
    for time and inode columns) for v2."""
    meta: dict = {"name": name, "dtype": str(data.dtype), "rows": int(data.size)}
    if format_version >= 3:
        blob = np.ascontiguousarray(data).tobytes()
        meta["codec"] = "raw"
        meta["raw_bytes"] = len(blob)
    elif name in _DELTA_COLUMNS and data.size:
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
    if data.size != int(meta["rows"]):
        raise CorruptSnapshotError(
            source,
            f"column {name!r}: {data.size} values for {meta['rows']} rows",
            offset=offset,
        )
    return data


def encode_column(
    name: str, data: np.ndarray, format_version: int = 2
) -> tuple[bytes, dict]:
    """Encode one numeric column into a ``(blob, meta)`` block.

    Public entry for external producers (the :mod:`repro.ingest` streaming
    assembler); :func:`write_columnar` uses the same encoding internally:
    ``raw`` for v3, ``zlib`` (with ``delta-zlib`` for time columns) for v2.
    """
    return _encode_column(name, data, format_version=format_version)


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
    format_version: int = 2,
) -> int:
    """Assemble an ``.rpq`` from pre-encoded blocks; returns stored bytes.

    The streaming-ingest path builds blocks incrementally (numeric columns
    and the path table each fed chunk-by-chunk through an incremental
    compressor) precisely so a multi-GB source file never has to exist in
    memory as one :class:`~repro.scan.snapshot.Snapshot`.  The write is
    atomic (tmp + fsync + rename); row order is preserved as given —
    the readers re-sort by interned path id on load.

    ``format_version=3`` writes the block-aligned container: each block is
    placed on a :data:`BLOCK_ALIGN` boundary (zero padding between blocks)
    and its offset relative to the aligned data base is recorded in the
    header, enabling the lazy mmap read path.  The block *payloads* are
    written verbatim either way — a zlib block is legal inside a v3 file.
    """
    if format_version not in WRITE_FORMAT_VERSIONS:
        raise ValueError(
            f"format_version must be one of {WRITE_FORMAT_VERSIONS}, "
            f"got {format_version!r}"
        )
    metas = [meta for _, meta in blocks]
    if format_version >= 3:
        rel = 0
        for _, meta in blocks:
            meta["offset"] = rel
            rel = _align_up(rel + int(meta["stored_bytes"]))
    header = {
        "label": label,
        "timestamp": int(timestamp),
        "rows": int(rows),
        "columns": metas,
    }
    header_bytes = json.dumps(header).encode("utf-8")
    preamble = 4 + 4 + 4  # magic + header_len + header_crc
    if format_version >= 3:
        data_base = _align_up(preamble + len(header_bytes))
        total_len = data_base + rel + _TRAILER_LEN
    else:
        total_len = (
            preamble
            + len(header_bytes)
            + sum(len(blob) for blob, _ in blocks)
            + _TRAILER_LEN
        )
    magic = MAGIC_V3 if format_version >= 3 else MAGIC_V2
    with atomic_write(dest, "wb") as fh:
        fh.write(magic)
        fh.write(len(header_bytes).to_bytes(4, "little"))
        fh.write(zlib.crc32(header_bytes).to_bytes(4, "little"))
        fh.write(header_bytes)
        if format_version >= 3:
            pos = preamble + len(header_bytes)
            for blob, meta in blocks:
                start = data_base + int(meta["offset"])
                fh.write(b"\0" * (start - pos))
                fh.write(blob)
                pos = start + len(blob)
            fh.write(b"\0" * (data_base + rel - pos))
        else:
            for blob, _ in blocks:
                fh.write(blob)
        fh.write(total_len.to_bytes(8, "little"))
        fh.write(END_MAGIC)
    return total_len


def write_columnar(
    snapshot: Snapshot,
    dest: str | Path,
    format_version: int = DEFAULT_FORMAT_VERSION,
) -> dict:
    """Serialize a snapshot (atomically); returns size statistics.

    The snapshot's referenced path strings are embedded (the file must be
    self-contained), dictionary-style: unique local strings plus the row →
    string index column.  The write goes through a same-directory temp file
    with fsync + atomic rename, so a crash never leaves a torn ``.rpq``.

    ``format_version`` selects the container and its numeric-column codec
    (2 = compact zlib, 3 = the block-aligned zero-copy layout with ``raw``
    blocks, the default for new archives).  The path string table is
    always ``strtab-zlib``.
    """
    blocks: list[tuple[bytes, dict]] = []
    # numeric columns
    for name in NUMERIC_COLUMNS:
        if name == "path_id":
            continue  # replaced by the local string-table index below
        blocks.append(
            _encode_column(
                name, getattr(snapshot, name), format_version=format_version
            )
        )
    # path strings: local dictionary (ids remapped to 0..k-1)
    pids = snapshot.path_id
    table = snapshot.paths.paths
    strings = "\n".join(table[pid] for pid in pids)
    str_blob = zlib.compress(strings.encode("utf-8"), _COMPRESSION_LEVEL)
    blocks.append(
        (str_blob, path_block_meta(str_blob, int(pids.size), len(strings)))
    )
    stored_total = write_columnar_blocks(
        dest, snapshot.label, snapshot.timestamp, len(snapshot), blocks,
        format_version=format_version,
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


def _read_header(fh: BinaryIO, source: str | Path) -> tuple[dict, int, int]:
    """Validate magic/lengths/CRCs; returns (header, data_start, version).

    ``data_start`` is where the block region begins: immediately after the
    header for v1/v2, the :data:`BLOCK_ALIGN`-aligned data base for v3
    (block metas record offsets relative to it).
    """
    magic = fh.read(4)
    if magic == MAGIC_V3:
        version = 3
    elif magic == MAGIC_V2:
        version = 2
    elif magic == MAGIC_V1:
        version = 1
    else:
        raise CorruptSnapshotError(
            source, f"not a columnar snapshot (magic {magic!r})", offset=0
        )
    fh.seek(0, 2)
    file_len = fh.tell()
    fh.seek(4)
    header_len = int.from_bytes(_read_exact(fh, 4, source, "header length"), "little")
    preamble = 8
    header_crc = None
    if version >= 2:
        header_crc = int.from_bytes(
            _read_exact(fh, 4, source, "header checksum"), "little"
        )
        preamble = 12
        # the trailer must agree with the real file length before anything
        # else is trusted — this catches every truncation with one stat
        if file_len < preamble + _TRAILER_LEN:
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
        fh.seek(preamble)
    if header_len <= 0 or preamble + header_len > file_len:
        raise CorruptSnapshotError(
            source,
            f"implausible header length {header_len} for a {file_len}-byte file",
            offset=4,
        )
    header_bytes = _read_exact(fh, header_len, source, "header")
    if header_crc is not None and zlib.crc32(header_bytes) != header_crc:
        raise CorruptSnapshotError(
            source, "header checksum mismatch", offset=preamble
        )
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(
            source, f"header is not valid JSON ({exc})", offset=preamble
        ) from exc
    if not isinstance(header, dict) or any(k not in header for k in _HEADER_KEYS):
        raise CorruptSnapshotError(
            source, f"header missing required keys {_HEADER_KEYS}", offset=preamble
        )
    metas = header["columns"]
    required = _META_KEYS + ("offset",) if version >= 3 else _META_KEYS
    if not isinstance(metas, list) or not all(
        isinstance(m, dict) and all(k in m for k in required) for m in metas
    ):
        raise CorruptSnapshotError(
            source, "header column table is malformed", offset=preamble
        )
    data_start = preamble + header_len
    if version == 2:
        data_end = file_len - _TRAILER_LEN
        blocks_len = sum(int(m["stored_bytes"]) for m in metas)
        if data_start + blocks_len != data_end:
            raise CorruptSnapshotError(
                source,
                f"block lengths sum to {blocks_len} but data section is "
                f"{data_end - data_start} bytes",
                offset=data_start,
            )
    elif version >= 3:
        data_start = _align_up(data_start)
        data_end = file_len - _TRAILER_LEN
        rel = 0
        for m in metas:
            if int(m["offset"]) != rel:
                raise CorruptSnapshotError(
                    source,
                    f"column {m.get('name')!r}: recorded offset {m['offset']} "
                    f"disagrees with the computed block layout ({rel})",
                    offset=data_start + rel,
                )
            rel = _align_up(rel + int(m["stored_bytes"]))
        if data_start + rel != data_end:
            raise CorruptSnapshotError(
                source,
                f"aligned blocks span {rel} bytes but data section is "
                f"{data_end - data_start} bytes",
                offset=data_start,
            )
    return header, data_start, version


def _block_offsets(header: dict, data_start: int, version: int) -> list[int]:
    """Absolute file offset of every column block, in header order."""
    if version >= 3:
        return [data_start + int(m["offset"]) for m in header["columns"]]
    offsets = []
    offset = data_start
    for m in header["columns"]:
        offsets.append(offset)
        offset += int(m["stored_bytes"])
    return offsets


def read_columnar_header(source: str | Path) -> dict:
    """Read and fully validate only the header (label, timestamp, rows).

    Cheap (no column block is decompressed) yet strict: magic, length
    fields, the header CRC, the total-length trailer, and (v3) the aligned
    block layout are all checked, so truncated and torn files are rejected
    here — before a :class:`~repro.scan.store.DiskSnapshotCollection` ever
    indexes them.
    """
    with open(source, "rb") as fh:
        header, _, _ = _read_header(fh, source)
    try:
        return {
            "label": str(header["label"]),
            "timestamp": int(header["timestamp"]),
            "rows": int(header["rows"]),
        }
    except (TypeError, ValueError) as exc:
        raise CorruptSnapshotError(
            source, f"header fields have wrong types ({exc})"
        ) from exc


def _decode_strtab(
    blob: bytes, meta: dict, header: dict, source: str | Path, offset: int
) -> list[str]:
    if zlib.crc32(blob) != meta["crc32"]:
        raise CorruptSnapshotError(
            source, "path table: checksum mismatch", offset=offset
        )
    try:
        text = zlib.decompress(blob).decode("utf-8")
    except (zlib.error, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(
            source, f"path table: undecodable ({exc})", offset=offset
        ) from exc
    strings = text.split("\n") if text else []
    if len(strings) != int(header["rows"]):
        raise CorruptSnapshotError(
            source, f"{len(strings)} paths for {header['rows']} rows"
        )
    return strings


def read_columnar(source: str | Path, paths: PathTable) -> Snapshot:
    """Load a columnar snapshot eagerly, re-interning its paths into ``paths``."""
    with open(source, "rb") as fh:
        header, data_start, version = _read_header(fh, source)
        offsets = _block_offsets(header, data_start, version)
        columns: dict[str, np.ndarray] = {}
        path_strings: list[str] | None = None
        for meta, offset in zip(header["columns"], offsets):
            fh.seek(offset)
            blob = _read_exact(
                fh, int(meta["stored_bytes"]), source, f"column {meta['name']!r}"
            )
            if meta["codec"] == "strtab-zlib":
                path_strings = _decode_strtab(blob, meta, header, source, offset)
            else:
                columns[meta["name"]] = _decode_column(blob, meta, source, offset)
    if path_strings is None:
        raise CorruptSnapshotError(source, "missing path table block")
    missing = [
        name for name in NUMERIC_COLUMNS if name != "path_id" and name not in columns
    ]
    if missing:
        raise CorruptSnapshotError(source, f"missing column blocks {missing}")
    columns["path_id"] = paths.intern_many(path_strings)
    cast = {
        name: np.ascontiguousarray(columns[name], dtype=COLUMN_DTYPES[name])
        for name in NUMERIC_COLUMNS
    }
    try:
        timestamp = int(header["timestamp"])
    except (TypeError, ValueError) as exc:
        raise CorruptSnapshotError(
            source, f"timestamp is not an integer ({exc})"
        ) from exc
    return Snapshot(
        label=header["label"],
        timestamp=timestamp,
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
        header, data_start, version = _read_header(fh, source)
        offsets = _block_offsets(header, data_start, version)
        for meta, offset in zip(header["columns"], offsets):
            if meta["codec"] != "strtab-zlib":
                continue
            fh.seek(offset)
            blob = _read_exact(fh, int(meta["stored_bytes"]), source, "path table")
            strings = _decode_strtab(blob, meta, header, source, offset)
            return paths.intern_many(strings)
    raise CorruptSnapshotError(source, "missing path table block")


# -- lazy read path ---------------------------------------------------------


class LazySnapshot(Snapshot):
    """A :class:`Snapshot` whose numeric columns decode on first touch.

    Produced by :func:`open_columnar`.  The path table block is decoded
    eagerly (interning order must match an eager load exactly) and the
    row-sort permutation is captured once from ``path_id``; every other
    numeric column stays on disk until an analysis touches the attribute.
    For v3 ``raw`` blocks the decoded array is a read-only view over a
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

    # not a dataclass field: plain attributes assigned in open_columnar
    _LAZY_COLUMNS = tuple(n for n in NUMERIC_COLUMNS if n != "path_id")

    def __getattr__(self, name: str):
        # decoded columns live in _resident (not as instance attributes) so
        # every access passes through here — that is what lets the disk
        # store count block-level hits, not just first-touch misses
        if name in type(self)._LAZY_COLUMNS:
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
        stored = int(meta["stored_bytes"])
        if self._version >= 3 and meta["codec"] == "raw":
            if stored == 0:
                return np.empty(0, dtype=np.dtype(meta["dtype"]))
            mm = self._mapped()
            blob = memoryview(mm)[offset : offset + stored]
            if zlib.crc32(blob) != meta["crc32"]:
                raise CorruptSnapshotError(
                    self._source, f"column {name!r}: checksum mismatch",
                    offset=offset,
                )
            arr = np.frombuffer(mm, dtype=np.dtype(meta["dtype"]),
                                count=int(meta["rows"]), offset=offset)
            if arr.size != int(meta["rows"]):  # pragma: no cover - frombuffer raises first
                raise CorruptSnapshotError(
                    self._source,
                    f"column {name!r}: {arr.size} values for {meta['rows']} rows",
                    offset=offset,
                )
            return arr
        with open(self._source, "rb") as fh:
            fh.seek(offset)
            blob = _read_exact(fh, stored, self._source, f"column {name!r}")
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
            n for n in type(self)._LAZY_COLUMNS if n in self.__dict__["_resident"]
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
    :func:`read_columnar` for all container versions.

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
        header, data_start, version = _read_header(fh, src)
        offsets = _block_offsets(header, data_start, version)
        blocks: dict[str, tuple[dict, int]] = {}
        path_strings: list[str] | None = None
        for meta, offset in zip(header["columns"], offsets):
            if meta["codec"] == "strtab-zlib":
                fh.seek(offset)
                blob = _read_exact(
                    fh, int(meta["stored_bytes"]), src, "path table"
                )
                path_strings = _decode_strtab(blob, meta, header, src, offset)
            else:
                blocks[meta["name"]] = (meta, offset)
    if path_strings is None:
        raise CorruptSnapshotError(src, "missing path table block")
    missing = [
        name for name in NUMERIC_COLUMNS if name != "path_id" and name not in blocks
    ]
    if missing:
        raise CorruptSnapshotError(src, f"missing column blocks {missing}")
    try:
        timestamp = int(header["timestamp"])
    except (TypeError, ValueError) as exc:
        raise CorruptSnapshotError(
            src, f"timestamp is not an integer ({exc})"
        ) from exc
    pid = np.ascontiguousarray(
        paths.intern_many(path_strings), dtype=COLUMN_DTYPES["path_id"]
    )
    order: np.ndarray | None = None
    if pid.size and not bool(np.all(pid[1:] >= pid[:-1])):
        # same stable sort Snapshot.__post_init__ would apply — captured
        # once here and applied per column as each block decodes
        order = np.argsort(pid, kind="stable")
        pid = pid[order]
    snap = LazySnapshot.__new__(LazySnapshot)
    d = snap.__dict__
    d["label"] = str(header["label"])
    d["timestamp"] = timestamp
    d["paths"] = paths
    d["path_id"] = pid
    d["_source"] = src
    d["_version"] = version
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
    *before* corrupting).  For v1/v2 the sections tile the file; for v3 the
    inter-block alignment padding is *not* listed — pad bytes carry no
    data and no checksum, so they are not corruption targets (truncation
    anywhere is still caught by the length trailer).
    """
    with open(source, "rb") as fh:
        header, data_start, version = _read_header(fh, source)
        fh.seek(0, 2)
        file_len = fh.tell()
        fh.seek(4)
        header_len = int.from_bytes(fh.read(4), "little")
    preamble_crc = 4 if version >= 2 else 0
    sections = [
        ("magic", 0, 4),
        ("header_len", 4, 4),
    ]
    if version >= 2:
        sections.append(("header_crc", 8, 4))
    header_start = 8 + preamble_crc
    sections.append(("header", header_start, header_len))
    for meta, offset in zip(
        header["columns"], _block_offsets(header, data_start, version)
    ):
        sections.append((f"column:{meta['name']}", offset, int(meta["stored_bytes"])))
    if version >= 2:
        sections.append(("trailer", file_len - _TRAILER_LEN, _TRAILER_LEN))
    return sections
