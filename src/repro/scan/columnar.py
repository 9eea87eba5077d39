"""Columnar compressed snapshot container ("parquet-lite").

The paper converts each 119 GB PSV snapshot into Parquet — columnar,
compressed, directly scannable — cutting the footprint to ~28 GB and making
the SparkSQL analyses fast (§3, Figure 4).  This module reproduces that
pipeline stage with a self-contained format:

* numeric columns are stored one block each, so an analysis touching only
  ``atime``/``mtime`` never decompresses paths;
* paths are stored as a tree, one zlib stream per block: each row's
  parent as the int32 row of its parent path in the same block (-1 when
  that path is not an earlier row), then the rows' names newline-joined
  — a row's own name under a parent row, its full path otherwise
  (``tree-zlib``, :func:`path_table_block`).  A block is self-contained.

:func:`write_block_files` writes every in-memory snapshot and delta:
:func:`write_columnar`, the ``.rpd`` writer and the week writer
(:func:`repro.scan.delta.write_week`) are it applied to one or two files.
A path table is a stream on both sides: a writer builds its names as
bounded UTF-8 chunks only as its deflate draws them, and a reader
inflates and splits it :data:`INFLATE_PIECE` bytes at a time, splitting a
row's full path into its directory and name as it reads it, so neither
holds a whole table's text.  When a write has several zlib blocks they
deflate on a per-call thread pool, each drawn and compressed by the one
thread that takes it (zlib releases the GIL); a chunked stream is the
same bytes as one ``zlib.compress`` call.

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
``tree-zlib`` or ``strtab-zlib`` for a path table — the flat table of full
paths that archives written before the tree codec hold, and that the
streaming ingest, which has no parent index, still writes; a block tagged
with any other codec is refused with a typed error naming it.  Integrity
is layered: a header CRC, per-block CRC32s, and the total-length trailer.

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
Either path codec decodes to :class:`~repro.scan.paths.PathRows`, which
the reader interns in row order.
Block CRCs are verified on first touch either way.  :func:`verify_columnar`
runs every check of an eager read and interns nothing, and
:func:`read_tree_columns` returns every block as arrays (the shard
merge's reader).  Every decoder of a ``tree-zlib`` block checks it the
same way, with NumPy over each inflated piece (:func:`_tree_stream`).

Every integrity failure raises :class:`~repro.scan.errors.
CorruptSnapshotError` carrying the file, byte offset, and reason — never a
cryptic ``JSONDecodeError``, never silently wrong data.  Writes are atomic
(tmp + fsync + rename via :mod:`repro.core.durable`): a crash mid-write
cannot leave a torn file behind.
"""

from __future__ import annotations

import bisect
import codecs
import functools
import itertools
import json
import mmap
import threading
import time
import zlib
from collections.abc import Iterator
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, NamedTuple

import numpy as np

from repro.core import runcontrol
from repro.core.durable import atomic_write
from repro.scan.errors import CorruptSnapshotError
from repro.scan.paths import PathRows, PathTable, split_paths
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

#: Paths per chunk of a path table's text: writers join and encode a table
#: at most this many paths at a time, so no table exists as one string.
PATH_CHUNK = 4096

#: Characters per chunk of a path table's text, bounding a chunk of deep
#: paths as :data:`PATH_CHUNK` bounds one of short paths (a chunk holds at
#: least one path, so one longer path is a chunk of its own).
PATH_CHUNK_CHARS = 1 << 18

#: Bytes a reader inflates at a time: it holds one piece of a path table's
#: text, never the whole text.
INFLATE_PIECE = 1 << 16

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
    blob: bytes, meta: dict, source: str | Path, offset: int, copy: bool = True
) -> np.ndarray:
    """One numeric block, checked and decoded; ``copy=False`` returns a
    read-only view of the decoded bytes instead of a writable copy."""
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
            data = np.frombuffer(raw, dtype=np.dtype(meta["dtype"]))
            if copy:
                data = data.copy()
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


def _byte_view(data: np.ndarray) -> np.ndarray:
    """A column's array bytes (what ``tobytes`` returns), without a copy
    when the column is contiguous."""
    return np.ascontiguousarray(data).view(np.uint8)


def _deflate(buffers: Iterable) -> tuple[bytes, int]:
    """One zlib stream over ``buffers`` in order, and its CRC32.

    Equals ``zlib.compress`` of the concatenated buffers at the same
    level.  Each buffer is dropped once compressed, so over an iterator
    that builds its buffers as drawn (a path table) it holds one at a
    time.  Run on a pool thread, it builds those buffers there too: a
    pool holds one chunk per thread.
    """
    compressor = zlib.compressobj(_COMPRESSION_LEVEL)
    pieces = list(map(compressor.compress, buffers))
    pieces.append(compressor.flush())
    blob = b"".join(pieces)
    return blob, zlib.crc32(blob)


def column_block(name: str, data: np.ndarray) -> tuple[Iterator, dict]:
    """One numeric column as a block still to be deflated: ``(buffers, meta)``.

    ``delta-zlib`` (delta-encoded against the column minimum) for the time
    and inode columns, plain ``zlib`` otherwise.  The ``.rpd`` delta
    sidecars store their columns this way; :func:`write_columnar` stores
    snapshot columns ``raw`` instead, so the lazy reader can map them.
    """
    meta: dict = {"name": name, "dtype": str(data.dtype), "rows": int(data.size)}
    if name in _DELTA_COLUMNS and data.size:
        base = int(data.min())
        offsets = data.astype(np.int64)
        offsets -= base  # the bytes of these deltas as uint64, in place
        raw = offsets.view(np.uint8)
        meta["codec"] = "delta-zlib"
        meta["base"] = base
        meta["raw_bytes"] = len(raw)
    else:
        raw = _byte_view(data)
        meta["raw_bytes"] = len(raw)
        meta["codec"] = "zlib"
    return iter([raw]), meta


def path_table_block(
    name: str, table, path_ids: np.ndarray
) -> tuple[Iterator[bytes], dict]:
    """The paths of ``path_ids`` as a ``tree-zlib`` block still to be
    deflated: ``(buffers, meta)`` — the one path-table encoder.

    The stream holds each row's parent, as the int32 row of its parent
    path when that is an earlier row of the block (-1, "none",
    otherwise), then the rows' names, newline-joined UTF-8: a row under
    an earlier row stores its own name, a row with no parent in the block
    its full path.  The block is self-contained.  ``buffers`` yields the
    parent rows, then the names in chunks built only when drawn.  Once
    ``buffers`` is exhausted, ``meta["raw_bytes"]`` is the inflated
    stream's length in bytes.

    ``table`` is a :class:`PathTable` — its chunks hold at most
    :data:`PATH_CHUNK` rows and about :data:`PATH_CHUNK_CHARS`
    characters, and a name containing a newline, which would read back as
    two, raises a ``ValueError`` naming the path when its chunk is drawn
    — or any tree of paths with ``parent_rows(path_ids)`` and
    ``tree_names(path_ids, parent rows)``, which yields the names' UTF-8
    bytes (the shard merge's index of its parts).
    """
    parents = table.parent_rows(path_ids)
    meta = {
        "name": name,
        "codec": "tree-zlib",
        "rows": int(path_ids.size),
        "raw_bytes": 0,
    }
    if isinstance(table, PathTable):
        names = _tree_buffers(table, path_ids, parents)
    else:
        names = table.tree_names(path_ids, parents)
    return _counted(parents, names, meta), meta


def _counted(
    parents: np.ndarray, names: Iterator[bytes], meta: dict
) -> Iterator[bytes]:
    head = parents.astype("<i4").tobytes()
    meta["raw_bytes"] += len(head)
    yield head
    for data in names:
        meta["raw_bytes"] += len(data)
        yield data


def _tree_buffers(
    table: PathTable, path_ids: np.ndarray, parents: np.ndarray
) -> Iterator[bytes]:
    most, chars = PATH_CHUNK, PATH_CHUNK_CHARS
    for start in range(0, path_ids.size, most):
        ids = path_ids[start : start + most]
        pids = ids.tolist()
        # a row under a parent row stores its own name (the table's own
        # string); a row with none, its full path, whose length the table
        # knows, so a piece builds only its own full paths
        names = table.own_names(pids)
        outside = np.flatnonzero(parents[start : start + most] < 0)
        lengths = list(map(len, names))
        for row, length in zip(outside.tolist(), table.lengths_of(ids[outside]).tolist()):
            lengths[row] = length
        ends = list(itertools.accumulate(lengths))
        lo = 0
        while lo < len(ends):
            hi = bisect.bisect_right(ends, (ends[lo - 1] if lo else 0) + chars, lo + 1)
            piece = names[lo:hi]
            full = outside[(outside >= lo) & (outside < hi)].tolist()
            for row, path in zip(full, table.outside_names([pids[r] for r in full])):
                piece[row - lo] = path
            if start or lo:
                piece.insert(0, "")  # the newline that ends the chunk before
            text = "\n".join(piece)
            if text.count("\n") != len(piece) - 1:
                bad = next(i for i, n in enumerate(piece[-(hi - lo):]) if "\n" in n)
                raise ValueError(
                    f"path {table.path_of(pids[lo + bad])!r} contains a "
                    "newline, which a path table cannot store"
                )
            del piece  # the built names go before the deflate draws them
            data = text.encode("utf-8")
            del text
            yield data
            lo = hi


def _stored(meta: dict, blob: bytes, crc: int) -> tuple[bytes, dict]:
    meta["stored_bytes"] = len(blob)
    meta["crc32"] = crc
    return blob, meta


def encode_column(name: str, data: np.ndarray) -> tuple[bytes, dict]:
    """Encode one numeric column into a compressed ``(blob, meta)`` block
    (:func:`column_block`, deflated here)."""
    buffers, meta = column_block(name, data)
    return _stored(meta, *_deflate(buffers))


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
    """Block meta for an externally compressed ``strtab-zlib`` path table.

    ``blob`` must be the zlib stream of the newline-joined UTF-8 path
    strings (``rows`` of them, whose joined text is ``raw_bytes``
    characters long) — exactly what an incremental ``zlib.compressobj``
    over row chunks produces.  The streaming ingest, which writes foreign
    rows without a parent index, is the one writer of this codec left;
    every reader still decodes it.
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
    blocks: Iterable[tuple[Any, dict]],
) -> int:
    """Assemble an ``RPQ3`` file from pre-encoded blocks; returns its size.

    ``blocks`` is any iterable of ``(payload, meta)`` pairs, consumed
    before anything is written; a payload is any bytes-like object.
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
    blocks = list(blocks)
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


class BlockFile(NamedTuple):
    """One container file of a :func:`write_block_files` call.

    ``encode()`` yields the file's ``(payload, meta)`` blocks in file
    order.  A payload is bytes-like (stored verbatim, ``meta`` complete)
    or an iterator of buffers: one zlib stream still to be deflated, whose
    ``stored_bytes`` and ``crc32`` the writer adds to ``meta``.
    """

    dest: Path
    label: str
    timestamp: int
    rows: int
    encode: Callable[[], Iterable[tuple[Any, dict]]]


def _deflate_all(streams: list[Iterator]) -> list[tuple[bytes, int]]:
    """:func:`_deflate` of each stream; their ``(blob, crc32)`` in order.

    With one stream or one usable CPU, each deflates inline.  Otherwise
    a pool of up to the usable CPUs takes the streams in order, and the
    thread that takes one draws (builds) all of its buffers, so no
    stream is touched by two threads.  The first error cancels every
    deflate not yet started, and the pool is joined before this returns
    or raises.
    """
    threads = runcontrol.usable_cpus()
    if len(streams) < 2 or threads < 2:
        return [_deflate(stream) for stream in streams]
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    pool = ThreadPoolExecutor(threads, thread_name_prefix="deflate")
    try:
        futures = [pool.submit(_deflate, stream) for stream in streams]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # started in order, so the first failure precedes every cancelled one
    return [future.result() for future in futures]


def write_block_files(files: list[BlockFile]) -> list[dict]:
    """Write container files whose zlib blocks deflate together; returns
    each file's ``{"raw_bytes", "stored_bytes"}``.

    This thread calls every file's ``encode`` — numeric blocks are
    built now, a path table is a stream whose chunks are built only as
    drawn — and :func:`_deflate_all` compresses every stream, a week's
    ``.rpq`` path table and its ``.rpd`` blocks at the same time (on a
    pool, the thread that deflates a path table builds its chunks),
    before any file is written: a path refused by the encoder leaves no
    file behind.  That work happens inside the first file's
    :func:`write_columnar_blocks` call, so a traced run charges it to a
    writer.  No thread outlives the call.  Bytes are those of
    compressing each block in turn.
    """
    encoded: list[list[tuple[Any, dict]]] = []
    deflated: list[tuple[bytes, int]] = []

    def blocks(index: int):
        if not encoded:
            encoded.extend(list(f.encode()) for f in files)
            deflated.extend(_deflate_all([
                payload for file_blocks in encoded for payload, _ in file_blocks
                if isinstance(payload, Iterator)
            ]))
            deflated.reverse()
        for payload, meta in encoded[index]:
            if isinstance(payload, Iterator):
                payload, meta = _stored(meta, *deflated.pop())
            yield payload, meta

    stats = []
    for index, f in enumerate(files):
        stored = write_columnar_blocks(
            f.dest, f.label, f.timestamp, f.rows, blocks(index)
        )
        raw = sum(meta["raw_bytes"] for _, meta in encoded[index])
        stats.append({"raw_bytes": raw, "stored_bytes": stored})
    return stats


def raw_block(name: str, data: np.ndarray) -> tuple[np.ndarray, dict]:
    """One numeric column as a ``raw`` block: its little-endian array
    bytes, stored as they are (the codec :func:`open_columnar` maps)."""
    blob = _byte_view(data)
    return blob, {
        "name": name,
        "dtype": str(data.dtype),
        "rows": int(data.size),
        "codec": "raw",
        "raw_bytes": len(blob),
        "stored_bytes": len(blob),
        "crc32": zlib.crc32(blob),
    }


def _snapshot_blocks(snapshot: Snapshot):
    for name in _STORED_COLUMNS:
        yield raw_block(name, getattr(snapshot, name))
    yield path_table_block("__paths__", snapshot.paths, snapshot.path_id)


def snapshot_file(snapshot: Snapshot, dest: str | Path) -> BlockFile:
    """A snapshot as a :class:`BlockFile` (see :func:`write_columnar`)."""
    return BlockFile(
        Path(dest), snapshot.label, snapshot.timestamp, len(snapshot),
        functools.partial(_snapshot_blocks, snapshot),
    )


def write_columnar(snapshot: Snapshot, dest: str | Path) -> dict:
    """Serialize a snapshot (atomically); returns size statistics.

    Numeric columns are stored ``raw`` (the little-endian array bytes, so
    :func:`open_columnar` maps them zero-copy).  The snapshot's paths are
    embedded (the file must be self-contained) as one ``tree-zlib`` block
    in row order.  The write goes through a
    same-directory temp file with fsync + atomic rename, so a crash never
    leaves a torn ``.rpq``.
    """
    stats = write_block_files([snapshot_file(snapshot, dest)])[0]
    raw, stored = stats["raw_bytes"], stats["stored_bytes"]
    return {**stats, "ratio": raw / stored if stored else 0.0}


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
    """Read and fully validate only the header (label, timestamp, rows,
    and the ``columns`` block table with every block's CRC32).

    Cheap (no column block is decompressed) yet strict: magic, length
    fields, the header CRC, the total-length trailer, the type of every
    block-table field, and the block layout are all checked, so truncated,
    torn and malformed files are rejected here — before a
    :class:`~repro.scan.store.DiskSnapshotCollection` ever indexes them.
    """
    with open(source, "rb") as fh:
        header, _ = _read_header(fh, source)
    return {key: header[key] for key in _HEADER_KEYS}


def content_id(header: dict) -> int:
    """A snapshot's content identity from its header: CRC32 over the label,
    timestamp, rows and every block's name, rows and CRC32 — a digest of
    the full file bytes at headers-only cost."""
    blocks = [[c["name"], c["rows"], c["crc32"]] for c in header["columns"]]
    key = [header["label"], header["timestamp"], header["rows"], blocks]
    return zlib.crc32(json.dumps(key, separators=(",", ":")).encode("utf-8"))


def _inflate(blob) -> Iterator[bytes]:
    """The inflated bytes of the zlib stream at the start of ``blob``, in
    pieces of at most :data:`INFLATE_PIECE`; bytes after the end of the
    stream are ignored, as ``zlib.decompress`` ignores them."""
    inflater = zlib.decompressobj()
    view = memoryview(blob)
    pos = 0
    data = b""
    while not inflater.eof:
        if not data and pos < len(view):
            data = view[pos : pos + INFLATE_PIECE]
            pos += len(data)
        piece = inflater.decompress(data, INFLATE_PIECE)
        data = inflater.unconsumed_tail
        if piece:
            yield piece
        elif not (data or inflater.eof) and pos >= len(view):
            # zlib.decompress's words for the same fault
            raise zlib.error(
                "Error -5 while decompressing data: incomplete or truncated stream"
            )


def _decode_strtab(
    blob: bytes,
    meta: dict,
    rows: int,
    source: str | Path,
    offset: int,
    keep: bool = True,
) -> list[str] | None:
    """Decode a ``strtab-zlib`` path table that must hold ``rows`` strings.

    The text is inflated, UTF-8 decoded and split one piece at a time, so
    the call holds the returned list plus one piece, never the whole
    text.  With ``keep=False`` it runs the same checks, counting the
    paths instead of building the list, and returns None.
    """
    name = meta["name"]
    if zlib.crc32(blob) != meta["crc32"]:
        raise CorruptSnapshotError(
            source, f"path table {name!r}: checksum mismatch", offset=offset
        )
    strings: list[str] | None = [] if keep else None
    found = 0
    last = ""
    try:
        for found, last in enumerate(_lines(_inflate(blob))):
            if strings is not None:
                strings.append(last)
        found += 1
    except (zlib.error, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(
            source, f"path table {name!r}: undecodable ({exc})", offset=offset
        ) from exc
    if found == 1 and not last:
        found = 0  # the empty text holds no path
        strings = [] if keep else None
    if found != rows:
        raise CorruptSnapshotError(
            source, f"path table {name!r}: {found} paths for {rows} rows",
            offset=offset,
        )
    return strings


def _split_stream(pieces: Iterator[bytes], n: int) -> tuple[bytes, Iterator[bytes]]:
    """The first ``n`` bytes of ``pieces`` (fewer when they end first) and
    an iterator over the rest."""
    buf = bytearray()
    for piece in pieces:
        take = n - len(buf)
        if len(piece) >= take:
            buf += piece[:take]
            rest = piece[take:]
            return bytes(buf), itertools.chain([rest] if rest else [], pieces)
        buf += piece
    return bytes(buf), iter(())


def _lines(pieces: Iterable[bytes]) -> Iterator[str]:
    """The newline-separated strings of UTF-8 ``pieces``, decoded and split
    one piece at a time (at least one: empty text is one empty string)."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    partial: list[str] = []
    for piece in itertools.chain(pieces, [b""]):
        parts = decoder.decode(piece, final=not piece).split("\n")
        partial.append(parts[0])
        if len(parts) > 1:
            yield "".join(partial)
            yield from itertools.islice(parts, 1, len(parts) - 1)
            partial = [parts[-1]]
    yield "".join(partial)


def _path_fault(
    source: str | Path, meta: dict, offset: int, reason: str
) -> CorruptSnapshotError:
    return CorruptSnapshotError(
        source, f"path table {meta['name']!r}: {reason}", offset=offset
    )


def _tree_stream(
    blob: bytes, meta: dict, rows: int, source: str | Path, offset: int
) -> tuple[np.ndarray, Iterator[bytes]]:
    """Check a ``tree-zlib`` block that must hold ``rows`` rows; returns
    its parent rows (int32) and its names' text as checked pieces.

    The CRC and the parent rows are checked here: a reference below
    "none", at or after its own row or past the block is refused.  The
    text is inflated :data:`INFLATE_PIECE` bytes at a time, and each piece
    is checked with NumPy as it is drawn: its UTF-8, and no ``/`` in a
    name under a parent row.  Once the last piece is drawn, a names count
    other than ``rows`` is refused.  Every fault, a truncated stream
    included, names the block and, where there is one, the first bad row.
    """
    if zlib.crc32(blob) != meta["crc32"]:
        raise _path_fault(source, meta, offset, "checksum mismatch")
    try:
        head, rest = _split_stream(_inflate(blob), 4 * rows)
    except zlib.error as exc:
        raise _path_fault(source, meta, offset, f"undecodable ({exc})") from exc
    if len(head) < 4 * rows:
        raise _path_fault(
            source, meta, offset,
            f"stream ends after {len(head) // 4} of {rows} parent rows",
        )
    refs = np.frombuffer(head, dtype="<i4")
    bad = np.flatnonzero((refs < -1) | (refs >= np.arange(rows)))
    if bad.size:
        row, ref = int(bad[0]), int(refs[bad[0]])
        where = (
            "below none" if ref < -1
            else "past the block" if ref >= rows
            else "at or after its own row"
        )
        raise _path_fault(
            source, meta, offset, f"row {row}: parent reference {ref} is {where}"
        )
    return refs, _checked_names(blob, meta, rows, source, offset, rest, refs >= 0)


def _checked_names(
    blob: bytes,
    meta: dict,
    rows: int,
    source: str | Path,
    offset: int,
    pieces: Iterator[bytes],
    under: np.ndarray,
) -> Iterator[bytes]:
    """The pieces of a tree block's name text, each checked before it is
    yielded (see :func:`_tree_stream`)."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    ended = 0  # names ended so far: the row the next byte belongs to
    size = 0
    try:
        for piece in pieces:
            decoder.decode(piece)
            data = np.frombuffer(piece, dtype=np.uint8)
            newlines = int(np.count_nonzero(data == 0x0A))
            # only a name under a parent row may not hold a "/"
            if b"/" in piece and under[ended : ended + newlines + 1].any():
                slashes = np.flatnonzero(data == 0x2F)
                at = ended + np.searchsorted(np.flatnonzero(data == 0x0A), slashes)
                at = at[at < rows]
                at = at[under[at]]
                if at.size:
                    row = int(at[0])
                    name = _name_at(blob, rows, row)
                    raise _path_fault(
                        source, meta, offset, f"row {row}: name {name!r} holds a '/'"
                    )
            ended += newlines
            size += len(piece)
            yield piece
        decoder.decode(b"", final=True)
    except (zlib.error, UnicodeDecodeError) as exc:
        raise _path_fault(source, meta, offset, f"undecodable ({exc})") from exc
    found = ended + 1 if rows or size else 0  # no rows: the empty text
    if found != rows:
        raise _path_fault(source, meta, offset, f"{found} names for {rows} rows")


def _name_at(blob: bytes, rows: int, row: int) -> str:
    """Name ``row`` of a tree block whose pieces passed every check up to
    it (a fault message's words)."""
    _, rest = _split_stream(_inflate(blob), 4 * rows)
    return next(itertools.islice(_lines(rest), row, None))


def _decode_tree(
    blob: bytes,
    meta: dict,
    rows: int,
    source: str | Path,
    offset: int,
    keep: bool = True,
) -> PathRows | None:
    """Decode a ``tree-zlib`` path table that must hold ``rows`` rows.

    :func:`_tree_stream` checks the block as it inflates, one piece at a
    time.  A row with no parent in the block carries its full path; it is
    split at its last ``/`` as it is read, so the call holds the rows'
    names and their distinct outside directories, never the full paths.
    With ``keep=False`` it runs the same checks and returns None.
    """
    refs, pieces = _tree_stream(blob, meta, rows, source, offset)
    if not keep:
        for _ in pieces:
            pass
        return None
    parents = refs.tolist()
    names: list[str] = []
    dir_of: dict[str, int] = {}
    for row, name in enumerate(_lines(pieces)):
        if row >= rows:
            continue  # the checked pieces refuse the count at their end
        if parents[row] < 0:
            directory, sep, leaf = name.rpartition("/")
            if sep:
                parents[row] = -2 - dir_of.setdefault(directory, len(dir_of))
                name = leaf
        names.append(name)
    return PathRows(parents, names, list(dir_of))


def _tree_arrays(
    blob: bytes, meta: dict, rows: int, source: str | Path, offset: int
) -> tuple[np.ndarray, bytes]:
    """A ``tree-zlib`` block, checked as :func:`_tree_stream` checks it, as
    ``(parent rows, names)``: the int32 parent rows and the names' UTF-8
    text, newline-joined.  A ``strtab-zlib`` block is refused."""
    if meta["codec"] != "tree-zlib":
        raise _path_fault(
            source, meta, offset, f"codec {meta['codec']!r}, not 'tree-zlib'"
        )
    refs, pieces = _tree_stream(blob, meta, rows, source, offset)
    return refs, b"".join(pieces)


#: Codecs a path-table block may carry: :func:`path_table_block`'s, and
#: the flat table every archive before it (and the ingest) holds.
_PATH_CODECS = ("tree-zlib", "strtab-zlib")


def _decode_paths(
    blob: bytes,
    meta: dict,
    rows: int,
    source: str | Path,
    offset: int,
    keep: bool = True,
) -> PathRows | None:
    """Decode either path-table codec into :class:`PathRows` (None with
    ``keep=False``) — the one entry every interning reader decodes paths
    through."""
    if meta["codec"] == "tree-zlib":
        return _decode_tree(blob, meta, rows, source, offset, keep)
    strings = _decode_strtab(blob, meta, rows, source, offset, keep)
    return None if strings is None else split_paths(strings)


def _check_paths(
    blob: bytes, meta: dict, rows: int, source: str | Path, offset: int
) -> None:
    _decode_paths(blob, meta, rows, source, offset, keep=False)


def _read_prologue(
    fh: BinaryIO, source: str | Path, decode: Callable = _decode_paths
) -> tuple[dict, Any, dict[str, tuple[dict, int]]]:
    """The front half every snapshot reader shares.

    Validates the header, decodes the path table with ``decode(blob,
    meta, rows, source, offset)`` — :func:`_decode_paths` by default,
    :func:`_check_paths` to check it without building its rows (which
    come back None) — and locates every other block; returns ``(header,
    decoded paths, {name: (meta, offset)})``.  A file without a path
    table, missing a stored numeric column, or with a column block whose
    row count disagrees with the header's is refused here, before any
    column decodes or any path is interned.
    """
    header, offsets = _read_header(fh, source)
    rows = header["rows"]
    paths: Any = None
    has_paths = False
    blocks: dict[str, tuple[dict, int]] = {}
    for meta, offset in zip(header["columns"], offsets):
        if meta["codec"] in _PATH_CODECS:
            blob = _read_block(fh, source, meta, offset)
            paths = decode(blob, meta, rows, source, offset)
            has_paths = True
            continue
        if meta["rows"] != rows:
            raise CorruptSnapshotError(
                source,
                f"column {meta['name']!r}: block holds {meta['rows']} rows, "
                f"header says {rows}",
                offset=offset,
            )
        blocks[meta["name"]] = (meta, offset)
    if not has_paths:
        raise CorruptSnapshotError(source, "missing path table block")
    missing = [name for name in _STORED_COLUMNS if name not in blocks]
    if missing:
        raise CorruptSnapshotError(source, f"missing column blocks {missing}")
    return header, paths, blocks


def verify_columnar(source: str | Path) -> dict:
    """Check every block of a snapshot; returns what
    :func:`read_columnar_header` does.

    Runs every integrity check :func:`read_columnar` runs — the envelope,
    the header, the path table and each column block's CRC, codec and row
    count — but builds no path list and interns nothing, and drops each
    column once checked, so it holds one piece of the path table or one
    column at a time.  The shard-merge probe and the disk store's
    ``verify="deep"`` use this.
    """
    with open(source, "rb") as fh:
        header, _, blocks = _read_prologue(fh, source, _check_paths)
        for meta, offset in blocks.values():
            _decode_column(_read_block(fh, source, meta, offset), meta, source, offset)
    return {key: header[key] for key in _HEADER_KEYS}


def read_tree_columns(
    source: str | Path,
) -> tuple[dict, dict[str, np.ndarray], tuple[np.ndarray, bytes]]:
    """Every block of a snapshot whose paths are a ``tree-zlib`` block, as
    arrays, interning nothing: ``(header, columns, (parent rows, names))``.

    ``columns`` holds every numeric block the file stores (a shard part's
    ``path_id`` block among them) as read-only arrays, each checked as
    :func:`read_columnar` checks it; the path block is checked by
    :func:`_tree_arrays`.  The shard merge reads its parts with this.
    """
    with open(source, "rb") as fh:
        header, tree, blocks = _read_prologue(fh, source, _tree_arrays)
        columns = {
            name: _decode_column(
                _read_block(fh, source, meta, offset), meta, source, offset, copy=False
            )
            for name, (meta, offset) in blocks.items()
        }
    return header, columns, tree


def read_columnar(source: str | Path, paths: PathTable) -> Snapshot:
    """Load a columnar snapshot eagerly, re-interning its paths into ``paths``.

    Every block is checked before a path is interned.
    """
    with open(source, "rb") as fh:
        header, rows, blocks = _read_prologue(fh, source)
        columns = {
            name: _decode_column(
                _read_block(fh, source, meta, offset), meta, source, offset
            )
            for name, (meta, offset) in blocks.items()
        }
    columns["path_id"] = paths.intern_rows(rows)
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
    """Intern only a snapshot's paths; returns the row → id column.

    Reads the header plus the ``__paths__`` block (seeking past the numeric
    blocks) — the cheap way to reproduce the PathTable state a full
    :func:`read_columnar` of this file would have produced.  The resume
    path uses this to replay the interning order of already-journaled
    snapshots, keeping path ids consistent across a crash boundary.
    """
    with open(source, "rb") as fh:
        _, rows, _ = _read_prologue(fh, source)
    return paths.intern_rows(rows)


def retry_transient_io(
    attempt: Callable[[], Any],
    retries: int,
    backoff: float,
    on_retry: Callable[[], None] | None = None,
    on_corrupt: Callable[[CorruptSnapshotError], None] | None = None,
) -> Any:
    """``attempt()``, retried up to ``retries`` times on a transient
    ``OSError`` with ``backoff * 2**n`` sleeps (``on_retry()`` before each).

    Corruption is permanent: a :class:`CorruptSnapshotError` fires
    ``on_corrupt(exc)`` and propagates from the first try.  Store opens and
    lazy block touches share this one ladder.
    """
    tries = 0
    while True:
        try:
            return attempt()
        except CorruptSnapshotError as exc:
            if on_corrupt is not None:
                on_corrupt(exc)
            raise
        except OSError:
            if tries >= retries:
                raise
            if on_retry is not None:
                on_retry()
            time.sleep(backoff * (2 ** tries))
            tries += 1


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
            # surfacing at first column touch must not escape the policy
            d = self.__dict__
            arr = retry_transient_io(
                lambda: self._decode_block(name, meta, offset),
                int(d.get("_io_retries") or 0),
                float(d.get("_io_backoff") or 0.0),
                on_retry=d.get("_on_io_retry"),
                on_corrupt=d.get("_on_corrupt"),
            )
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
        header, rows, blocks = _read_prologue(fh, src)
    pid = np.ascontiguousarray(
        paths.intern_rows(rows), dtype=COLUMN_DTYPES["path_id"]
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
