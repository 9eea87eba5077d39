"""The differential oracle's container axis.

Every route to a report — in memory, cold from an archive, incremental —
must yield the same bytes, from every container form an archive may hold.
This module gives the routes one digest to compare and the rewrites that
carry an archive into each readable form:

* :func:`report_digest` — sha256 over a report's text and every figure
  body, encoded exactly as ``ArchiveService.warm`` serves it;
* :func:`rewrite_as_strtab` — every ``.rpq``/``.rpd`` path block rewritten
  to ``strtab-zlib``, the flat full-path codec.  For an archive written
  with ``tree-zlib`` path blocks this reproduces, byte for byte, what the
  writers emitted before that codec, so a pinned digest of those bytes
  checks that the tree codec is lossless and keeps path-id order;
* :func:`rewrite_as_rpq2` — the legacy ``RPQ2`` envelope;
* :func:`rewrite_archive` — one of the rewrites applied to a whole
  archive directory.

Test instrumentation: :mod:`repro` does not import it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from repro.scan.columnar import (
    BLOCK_ALIGN,
    END_MAGIC,
    MAGIC_V2,
    MAGIC_V3,
    _decode_tree,
    _read_header,
    encode_column,
    write_columnar_blocks,
)
from repro.serve.encode import dumps, to_jsonable


def figure_bodies(report) -> dict[str, bytes]:
    """Every figure body of a report, encoded exactly as
    ``ArchiveService.warm`` serves it."""
    bodies = {}
    for f in dataclasses.fields(type(report)):
        value = getattr(report, f.name)
        if f.name != "text" and value is not None:
            bodies[f.name] = dumps({"figure": f.name, "data": to_jsonable(value)})
    return bodies


def report_digest(report) -> str:
    """sha256 over the report text and every figure body, in field order."""
    digest = hashlib.sha256(report.text.encode("utf-8"))
    for name, body in figure_bodies(report).items():
        digest.update(b"\0" + name.encode("utf-8") + b"\0" + body)
    return digest.hexdigest()


def _split(blob: bytes) -> tuple[dict, int]:
    """The JSON header of a container and where its data section starts."""
    header_len = int.from_bytes(blob[4:8], "little")
    base = 12 + header_len
    if blob[:4] == MAGIC_V3:
        base = -(-base // BLOCK_ALIGN) * BLOCK_ALIGN
    return json.loads(blob[12 : 12 + header_len]), base


def _envelope(magic: bytes, header: dict, data: bytes) -> bytes:
    """``data`` wrapped in a container: preamble with header CRC, header,
    alignment padding for ``RPQ3``, and the total-length trailer."""
    header_bytes = json.dumps(header).encode("utf-8")
    head = (
        magic
        + len(header_bytes).to_bytes(4, "little")
        + zlib.crc32(header_bytes).to_bytes(4, "little")
        + header_bytes
    )
    if magic == MAGIC_V3:
        head += b"\0" * (-len(head) % BLOCK_ALIGN)
    total = len(head) + len(data) + 12
    return head + data + total.to_bytes(8, "little") + END_MAGIC


def _full_paths(blob: bytes, meta: dict, source: Path, offset: int) -> list[str]:
    """A ``tree-zlib`` block's rows as full path strings, in row order."""
    rows = _decode_tree(blob, meta, meta["rows"], source, offset)
    paths: list[str] = []
    for parent, name in zip(rows.parents, rows.names):
        if parent >= 0:
            paths.append(paths[parent] + "/" + name)
        elif parent == -1:
            paths.append(name)
        else:
            paths.append(rows.dirs[-2 - parent] + "/" + name)
    return paths


def rewrite_as_strtab(src, dest) -> None:
    """Rewrite a ``.rpq``/``.rpd`` with every ``tree-zlib`` path block as
    the ``strtab-zlib`` block of the same rows.

    The text is the rows' full paths newline-joined, deflated at level 6
    in one stream, and ``raw_bytes`` is its length in characters, as the
    flat writers recorded it; every other block and every header field
    is kept, so the file is the one a flat writer would have written.
    """
    src = Path(src)
    with open(src, "rb") as fh:
        header, offsets = _read_header(fh, src)
    blob = src.read_bytes()
    blocks = []
    for meta, offset in zip(header["columns"], offsets):
        data = blob[offset : offset + meta["stored_bytes"]]
        if meta["codec"] == "tree-zlib":
            text = "\n".join(_full_paths(data, meta, src, offset))
            data = zlib.compress(text.encode("utf-8"), 6)
            meta = {
                "name": meta["name"],
                "codec": "strtab-zlib",
                "rows": meta["rows"],
                "raw_bytes": len(text),
                "stored_bytes": len(data),
                "crc32": zlib.crc32(data),
            }
        blocks.append((data, meta))
    write_columnar_blocks(
        dest, header["label"], header["timestamp"], header["rows"], blocks
    )


def rewrite_as_rpq2(src, dest) -> None:
    """Rewrite an ``RPQ3`` ``.rpq``/``.rpd`` in the legacy ``RPQ2`` layout.

    ``RPQ2`` is what older writers emitted: blocks back to back after the
    header, no ``offset`` keys, and snapshot numeric columns compressed with
    :func:`~repro.scan.columnar.encode_column` instead of stored ``raw``.
    No writer emits it any more, but archives written before ``RPQ3`` hold
    it, so the readers must keep decoding it.
    """
    blob = Path(src).read_bytes()
    assert blob[:4] == MAGIC_V3
    header, base = _split(blob)
    blocks, metas = [], []
    for meta in header["columns"]:
        start = base + meta.pop("offset")
        data = blob[start : start + meta["stored_bytes"]]
        if meta["codec"] == "raw":
            values = np.frombuffer(data, dtype=np.dtype(meta["dtype"]))
            data, meta = encode_column(meta["name"], values)
        blocks.append(data)
        metas.append(meta)
    header["columns"] = metas
    Path(dest).write_bytes(_envelope(MAGIC_V2, header, b"".join(blocks)))


def rewrite_archive(
    src, dest, rewrite: Callable[[Path, Path], None]
) -> Path:
    """Copy an archive directory to ``dest``, passing every ``.rpq`` and
    ``.rpd`` through ``rewrite(src_file, dest_file)``; returns ``dest``."""
    src, dest = Path(src), Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    for path in sorted(src.iterdir()):
        if path.suffix in (".rpq", ".rpd"):
            rewrite(path, dest / path.name)
        elif path.is_file():
            shutil.copy(path, dest / path.name)
    return dest
