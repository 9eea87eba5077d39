"""Per-interval change streams: the ``.rpd`` delta sidecar.

Robinhood and Icicle (PAPERS.md) exist because full-namespace scans stop
scaling — they tail changelogs instead.  Our archive path reproduces that
bet: ``ReproPipeline.archive`` writes, next to each ``{label}.rpq``
snapshot, a ``{label}.rpd`` sidecar describing how the namespace changed
since the *previous* snapshot.  Incremental analysis (DESIGN.md §11) then
replays deltas instead of re-reading every snapshot.  :func:`write_week`
writes both files of a week — the archive and the shard merge use it.

A delta is exact at snapshot resolution: ``cur == (prev - removed) +
added + apply(changed)`` over the full numeric schema.  It can therefore
drive byte-identical kernel updates — but it inherits §4.1.1's blindness:
files created *and* deleted between two snapshots appear in neither side,
so intra-interval churn still needs the changelog
(:mod:`repro.fs.changelog`), not the sidecar.

Container: the sidecar reuses the ``.rpq`` block machinery verbatim —
the same per-block CRCs, the header CRC, the total-length trailer, the
atomic write — so every truncation/corruption guarantee of
:mod:`repro.scan.columnar` applies.  Sections (``added`` / ``removed`` /
``changed``) are encoded as prefixed compressed column blocks, each
section's paths as a ``tree-zlib`` block of its own (self-contained: a row
whose parent path is not an earlier row of the section carries its full
path), plus one ``__delta__`` JSON block carrying the interval metadata.
Sidecars written before the tree codec hold ``strtab-zlib`` path blocks;
each block names its codec, so :data:`DELTA_FORMAT_VERSION` is unchanged
and both read.  Reading is a
parse that checks every block and section (:func:`parse_delta`), then an
intern step that cannot fail (:meth:`ParsedDelta.intern`).

Ordering contract (the byte-identity lynchpin): each section stores rows
in ascending producer path-id order — a subsequence of the ``.rpq``'s own
row order — so interning a delta's ``added`` paths allocates exactly the
ids a full load of the current snapshot would have allocated.
"""

from __future__ import annotations

import functools
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.scan.columnar import (
    _PATH_CODECS,
    BlockFile,
    _decode_column,
    _decode_paths,
    _read_block,
    _read_header,
    column_block,
    path_table_block,
    snapshot_file,
    write_block_files,
)
from repro.scan.errors import CorruptSnapshotError
from repro.scan.paths import PathRows, PathTable
from repro.scan.snapshot import COLUMN_DTYPES, NUMERIC_COLUMNS, Snapshot

#: Sidecar filename suffix (lives next to the ``.rpq`` it describes).
DELTA_SUFFIX = ".rpd"

#: Bumped when the section schema changes; bound into the manifest
#: fingerprint so stale kernel state can never replay a mismatched layout.
DELTA_FORMAT_VERSION = 1

#: Numeric columns stored per delta row (everything but the table-relative
#: path id, which each section's path table carries and a read re-interns).
DELTA_COLUMNS = tuple(name for name in NUMERIC_COLUMNS if name != "path_id")

_SECTIONS = ("added", "removed", "changed")
_DELTA_BLOCK = "__delta__"
_DELTA_KEYS = (
    "kind", "version", "prev_label", "cur_label",
    "prev_timestamp", "cur_timestamp", "prev_rows", "cur_rows",
    "prev_files", "prev_dirs", "cur_files", "cur_dirs", "sections",
)


def delta_config() -> dict:
    """The layout-identity of the sidecars an archive carries.

    Written into the manifest's ``deltas`` section and bound into the
    kernel-state fingerprint: state journaled against one layout must never
    be advanced by deltas of another.
    """
    return {"version": DELTA_FORMAT_VERSION, "columns": list(DELTA_COLUMNS)}


def sidecar_path(directory: str | Path, cur_label: str) -> Path:
    """Where the delta ending at snapshot ``cur_label`` lives."""
    return Path(directory) / f"{cur_label}{DELTA_SUFFIX}"


def _section_columns(
    snap: Snapshot, rows: np.ndarray
) -> dict[str, np.ndarray]:
    cols = {name: getattr(snap, name)[rows] for name in DELTA_COLUMNS}
    cols["path_id"] = snap.path_id[rows]
    return cols


@dataclass
class SnapshotDelta:
    """One interval's exact change set, columnar like its snapshots.

    ``added``/``removed`` carry full rows (current-side and previous-side
    respectively); ``changed_prev``/``changed_cur`` carry both sides of
    every row whose path exists in both snapshots with any numeric column
    differing.  All row groups are ascending by ``path_id``.
    """

    prev_label: str
    cur_label: str
    prev_timestamp: int
    cur_timestamp: int
    prev_rows: int
    cur_rows: int
    prev_files: int
    prev_dirs: int
    cur_files: int
    cur_dirs: int
    paths: PathTable = field(repr=False)
    added: dict[str, np.ndarray] = field(repr=False)
    removed: dict[str, np.ndarray] = field(repr=False)
    changed_prev: dict[str, np.ndarray] = field(repr=False)
    changed_cur: dict[str, np.ndarray] = field(repr=False)

    @staticmethod
    def _is_dir(mode: np.ndarray) -> np.ndarray:
        from repro.fs.inode import S_IFDIR, S_IFMT

        return (mode.astype(np.uint32) & np.uint32(S_IFMT)) == np.uint32(S_IFDIR)

    @property
    def added_is_dir(self) -> np.ndarray:
        return self._is_dir(self.added["mode"])

    @property
    def removed_is_dir(self) -> np.ndarray:
        return self._is_dir(self.removed["mode"])

    @property
    def changed_was_dir(self) -> np.ndarray:
        return self._is_dir(self.changed_prev["mode"])

    @property
    def changed_is_dir(self) -> np.ndarray:
        return self._is_dir(self.changed_cur["mode"])


def compute_delta(prev: Snapshot, cur: Snapshot) -> SnapshotDelta:
    """Exact change set between two snapshots sharing one path table."""
    if prev.paths is not cur.paths:
        raise ValueError("snapshots must share one path table")
    added_ids = cur.only_ids(prev)
    removed_ids = prev.only_ids(cur)
    common = prev.intersect_ids(cur)
    prev_rows = prev.rows_for(common)
    cur_rows = cur.rows_for(common)
    differs = np.zeros(common.size, dtype=bool)
    for name in DELTA_COLUMNS:
        differs |= getattr(prev, name)[prev_rows] != getattr(cur, name)[cur_rows]
    return SnapshotDelta(
        prev_label=prev.label,
        cur_label=cur.label,
        prev_timestamp=prev.timestamp,
        cur_timestamp=cur.timestamp,
        prev_rows=len(prev),
        cur_rows=len(cur),
        prev_files=prev.n_files,
        prev_dirs=prev.n_dirs,
        cur_files=cur.n_files,
        cur_dirs=cur.n_dirs,
        paths=prev.paths,
        added=_section_columns(cur, cur.rows_for(added_ids)),
        removed=_section_columns(prev, prev.rows_for(removed_ids)),
        changed_prev=_section_columns(prev, prev_rows[differs]),
        changed_cur=_section_columns(cur, cur_rows[differs]),
    )


def _delta_blocks(delta: SnapshotDelta):
    info = {
        "kind": "repro-delta",
        "version": DELTA_FORMAT_VERSION,
        "prev_label": delta.prev_label,
        "cur_label": delta.cur_label,
        "prev_timestamp": int(delta.prev_timestamp),
        "cur_timestamp": int(delta.cur_timestamp),
        "prev_rows": int(delta.prev_rows),
        "cur_rows": int(delta.cur_rows),
        "prev_files": int(delta.prev_files),
        "prev_dirs": int(delta.prev_dirs),
        "cur_files": int(delta.cur_files),
        "cur_dirs": int(delta.cur_dirs),
        "sections": _section_rows(delta),
    }
    raw = json.dumps(info).encode("utf-8")
    yield iter([raw]), {
        "name": _DELTA_BLOCK,
        "codec": "json-zlib",
        "rows": 0,
        "raw_bytes": len(raw),
    }
    groups = (
        ("added", {"cur": delta.added}),
        ("removed", {"prev": delta.removed}),
        ("changed", {"prev": delta.changed_prev, "cur": delta.changed_cur}),
    )
    for section, sides in groups:
        any_side = next(iter(sides.values()))
        yield path_table_block(
            f"{section}.__paths__", delta.paths, any_side["path_id"]
        )
        for side, cols in sides.items():
            prefix = f"{section}.{side}" if len(sides) > 1 else section
            for name in DELTA_COLUMNS:
                buffers, meta = column_block(name, cols[name])
                meta["name"] = f"{prefix}.{name}"
                yield buffers, meta


def _section_rows(delta: SnapshotDelta) -> dict[str, int]:
    return {
        "added": int(delta.added["path_id"].size),
        "removed": int(delta.removed["path_id"].size),
        "changed": int(delta.changed_prev["path_id"].size),
    }


def _delta_file(delta: SnapshotDelta, dest: str | Path) -> BlockFile:
    return BlockFile(
        Path(dest), delta.cur_label, delta.cur_timestamp,
        sum(_section_rows(delta).values()),
        functools.partial(_delta_blocks, delta),
    )


def write_delta(delta: SnapshotDelta, dest: str | Path) -> dict:
    """Serialize one delta (atomically); returns size statistics."""
    return write_block_files([_delta_file(delta, dest)])[0]


def write_week(
    snapshot: Snapshot, prev: Snapshot | None, directory: str | Path
) -> dict:
    """Write one archive week: ``{label}.rpq`` and, when ``prev`` is the
    week before, the ``{label}.rpd`` sidecar of :func:`compute_delta`.

    Both files go through one :func:`~repro.scan.columnar.write_block_files`
    call, so the snapshot's path table and every sidecar block deflate at
    the same time; each file's bytes equal :func:`~repro.scan.columnar.
    write_columnar`'s and :func:`write_delta`'s.  Returns the ``.rpq``'s
    ``{"raw_bytes", "stored_bytes"}``.
    """
    directory = Path(directory)
    files = [snapshot_file(snapshot, directory / f"{snapshot.label}.rpq")]
    if prev is not None:
        files.append(_delta_file(
            compute_delta(prev, snapshot), sidecar_path(directory, snapshot.label)
        ))
    return write_block_files(files)[0]


@dataclass
class ParsedDelta:
    """A validated delta sidecar whose paths are not interned yet.

    :func:`parse_delta` has checked every block and every section, so
    :meth:`intern` only assigns path ids and cannot fail halfway: a
    caller's :class:`PathTable` sees all of a sidecar's paths or none.
    """

    #: the scalar fields of :class:`SnapshotDelta`
    fields: dict
    #: per section (``added``, ``removed``, ``changed``), its paths
    paths: dict[str, PathRows] = field(repr=False)
    #: per row group (``added``, ``removed``, ``changed.prev``,
    #: ``changed.cur``), its numeric columns
    columns: dict[str, dict[str, np.ndarray]] = field(repr=False)

    @property
    def prev_label(self) -> str:
        return self.fields["prev_label"]

    @property
    def cur_label(self) -> str:
        return self.fields["cur_label"]

    def intern(self, paths: PathTable) -> SnapshotDelta:
        """The delta, its paths interned into ``paths``.

        Interning follows the stored section order (``added`` first: its
        paths are the only ones that may allocate new ids, and they must
        do so in the snapshot's own row order).
        """
        ids = {
            section: paths.intern_rows(rows)
            for section, rows in self.paths.items()
        }

        def group(key: str) -> dict[str, np.ndarray]:
            section_ids = ids[key.partition(".")[0]]
            return {**self.columns[key], "path_id": section_ids.copy()}

        return SnapshotDelta(
            **self.fields,
            paths=paths,
            added=group("added"),
            removed=group("removed"),
            changed_prev=group("changed.prev"),
            changed_cur=group("changed.cur"),
        )


_LABEL_FIELDS = ("prev_label", "cur_label")
_COUNT_FIELDS = (
    "prev_timestamp", "cur_timestamp", "prev_rows", "cur_rows",
    "prev_files", "prev_dirs", "cur_files", "cur_dirs",
)
#: row groups per section: one side, or both sides of a changed row
_GROUPS = (("added", (None,)), ("removed", (None,)), ("changed", ("prev", "cur")))


def parse_delta(source: str | Path) -> ParsedDelta:
    """Read and validate a delta sidecar, interning nothing.

    Every block's CRC and codec, the ``__delta__`` metadata and every
    section's path table and columns are checked here; integrity
    failures raise :class:`CorruptSnapshotError` exactly like the
    snapshot reader — the sidecar shares the container format.
    """
    with open(source, "rb") as fh:
        header, offsets = _read_header(fh, source)
        info: dict | None = None
        tables: dict[str, PathRows] = {}
        columns: dict[str, np.ndarray] = {}
        for meta, offset in zip(header["columns"], offsets):
            blob = _read_block(fh, source, meta, offset)
            name = meta["name"]
            if meta["codec"] == "json-zlib":
                if zlib.crc32(blob) != meta["crc32"]:
                    raise CorruptSnapshotError(
                        source, "delta header block: checksum mismatch",
                        offset=offset,
                    )
                try:
                    info = json.loads(zlib.decompress(blob).decode("utf-8"))
                except (zlib.error, ValueError, UnicodeDecodeError) as exc:
                    raise CorruptSnapshotError(
                        source, f"delta header block: undecodable ({exc})",
                        offset=offset,
                    ) from exc
            elif meta["codec"] in _PATH_CODECS:
                tables[name] = _decode_paths(
                    blob, meta, meta["rows"], source, offset
                )
            else:
                columns[name] = _decode_column(blob, meta, source, offset)
    if not isinstance(info, dict) or any(k not in info for k in _DELTA_KEYS):
        raise CorruptSnapshotError(
            source, f"not a delta sidecar (missing {_DELTA_BLOCK} metadata)"
        )
    try:
        version = int(info["version"])
        fields = {key: str(info[key]) for key in _LABEL_FIELDS}
        fields.update((key, int(info[key])) for key in _COUNT_FIELDS)
        rows = {section: int(info["sections"][section]) for section in _SECTIONS}
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(
            source, f"malformed {_DELTA_BLOCK} metadata ({exc!r})"
        ) from exc
    if version != DELTA_FORMAT_VERSION:
        raise CorruptSnapshotError(
            source,
            f"delta format version {info['version']} "
            f"(this build reads {DELTA_FORMAT_VERSION})",
        )
    parsed = ParsedDelta(fields=fields, paths={}, columns={})
    for section, sides in _GROUPS:
        table = tables.get(f"{section}.__paths__")
        if table is None or len(table.names) != rows[section]:
            raise CorruptSnapshotError(
                source, f"delta section {section!r}: missing or short path table"
            )
        parsed.paths[section] = table
        for side in sides:
            key = section if side is None else f"{section}.{side}"
            group: dict[str, np.ndarray] = {}
            for name in DELTA_COLUMNS:
                col = columns.get(f"{key}.{name}")
                if col is None or col.size != rows[section]:
                    raise CorruptSnapshotError(
                        source, f"delta section {section!r}: missing column {name!r}"
                    )
                group[name] = np.ascontiguousarray(col, dtype=COLUMN_DTYPES[name])
            parsed.columns[key] = group
    return parsed


def read_delta(source: str | Path, paths: PathTable) -> SnapshotDelta:
    """Load a delta sidecar, re-interning its paths into ``paths``.

    :func:`parse_delta` then :meth:`ParsedDelta.intern`: a sidecar that
    fails any check interns nothing, and interning order (``added``
    first) preserves the id assignment a full snapshot load would have
    produced.
    """
    return parse_delta(source).intern(paths)


def apply_delta(prev: Snapshot, delta: SnapshotDelta) -> Snapshot:
    """Reconstruct the current snapshot from ``prev`` + one delta.

    The equivalence tests' ground truth: a delta is *exact*, so the
    reconstruction must match the archived ``.rpq`` column for column.
    """
    if delta.paths is not prev.paths:
        raise ValueError("delta and snapshot must share one path table")
    keep = np.isin(
        prev.path_id,
        np.concatenate([delta.removed["path_id"], delta.changed_prev["path_id"]]),
        assume_unique=True,
        invert=True,
    )
    parts = [
        {name: getattr(prev, name)[keep] for name in NUMERIC_COLUMNS},
        {name: delta.changed_cur[name] for name in NUMERIC_COLUMNS},
        {name: delta.added[name] for name in NUMERIC_COLUMNS},
    ]
    columns = {
        name: np.concatenate([part[name] for part in parts])
        for name in NUMERIC_COLUMNS
    }
    return Snapshot.from_columns(
        delta.cur_label, delta.cur_timestamp, prev.paths, columns
    )
