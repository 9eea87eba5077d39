"""In-memory columnar snapshot and the snapshot collection.

One :class:`Snapshot` is the result of a full LustreDU scan: a set of
columns, one row per live file-system entry, sorted by interned path id so
that week-over-week comparisons (intersection / new / deleted, §4.2.3) run
as merges over sorted integer arrays.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.fs.inode import S_IFDIR, S_IFMT
from repro.scan.paths import PathTable

#: Column names carried by every snapshot, in serialization order.
NUMERIC_COLUMNS = (
    "path_id",
    "ino",
    "mode",
    "uid",
    "gid",
    "atime",
    "mtime",
    "ctime",
    "stripe_count",
    "stripe_start",
)

COLUMN_DTYPES = {
    "path_id": np.int64,
    "ino": np.int64,
    "mode": np.uint32,
    "uid": np.int32,
    "gid": np.int32,
    "atime": np.int64,
    "mtime": np.int64,
    "ctime": np.int64,
    "stripe_count": np.int32,
    "stripe_start": np.int32,
}


@dataclass
class Snapshot:
    """One day's metadata snapshot in columnar form.

    All column arrays are the same length and row-aligned; rows are sorted by
    ``path_id``.  Paths themselves live in the collection-wide
    :class:`PathTable` referenced by ``paths``.
    """

    label: str
    timestamp: int
    paths: PathTable = field(repr=False)
    path_id: np.ndarray = field(repr=False)
    ino: np.ndarray = field(repr=False)
    mode: np.ndarray = field(repr=False)
    uid: np.ndarray = field(repr=False)
    gid: np.ndarray = field(repr=False)
    atime: np.ndarray = field(repr=False)
    mtime: np.ndarray = field(repr=False)
    ctime: np.ndarray = field(repr=False)
    stripe_count: np.ndarray = field(repr=False)
    stripe_start: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = self.path_id.size
        for name in NUMERIC_COLUMNS:
            col = getattr(self, name)
            if col.size != n:
                raise ValueError(f"column {name} has {col.size} rows, expected {n}")
        if n and not _is_sorted(self.path_id):
            self._sort_by_path_id()

    @classmethod
    def from_columns(
        cls, label: str, timestamp: int, paths: PathTable, columns: dict[str, np.ndarray]
    ) -> "Snapshot":
        cast = {
            name: np.ascontiguousarray(columns[name], dtype=COLUMN_DTYPES[name])
            for name in NUMERIC_COLUMNS
        }
        return cls(label=label, timestamp=timestamp, paths=paths, **cast)

    @classmethod
    def from_attached_columns(
        cls,
        label: str,
        timestamp: int,
        paths: PathTable,
        columns: dict[str, np.ndarray],
    ) -> "Snapshot":
        """Zero-copy attach of externally owned column buffers.

        Bypasses ``__init__`` validation: the buffers are the verbatim
        columns of an already-validated snapshot (the shared-memory
        exporter is the only producer), and they may be read-only views
        that the sort fallback could not reorder anyway.
        """
        snap = cls.__new__(cls)
        snap.label = label
        snap.timestamp = int(timestamp)
        snap.paths = paths
        for name in NUMERIC_COLUMNS:
            setattr(snap, name, columns[name])
        return snap

    def numeric_columns(self) -> dict[str, np.ndarray]:
        """name → column view, in serialization order (zero-copy export)."""
        return {name: getattr(self, name) for name in NUMERIC_COLUMNS}

    def column_nbytes(self) -> int:
        """Total bytes across the numeric columns (transport/stats sizing)."""
        return int(sum(getattr(self, name).nbytes for name in NUMERIC_COLUMNS))

    def _sort_by_path_id(self) -> None:
        order = np.argsort(self.path_id, kind="stable")
        for name in NUMERIC_COLUMNS:
            setattr(self, name, getattr(self, name)[order])

    # -- row views ---------------------------------------------------------

    def __len__(self) -> int:
        return int(self.path_id.size)

    @property
    def is_dir(self) -> np.ndarray:
        """Boolean mask of directory rows (derived from the mode column)."""
        return (self.mode.astype(np.uint32) & np.uint32(S_IFMT)) == np.uint32(S_IFDIR)

    @property
    def is_file(self) -> np.ndarray:
        return ~self.is_dir

    @property
    def n_files(self) -> int:
        return int(self.is_file.sum())

    @property
    def n_dirs(self) -> int:
        return int(self.is_dir.sum())

    def depth(self) -> np.ndarray:
        """Component depth per row (gathered from the path table)."""
        return self.paths.depths_of(self.path_id)

    def ext_id(self) -> np.ndarray:
        """Interned extension id per row."""
        return self.paths.ext_ids_of(self.path_id)

    def select(self, mask: np.ndarray) -> "Snapshot":
        """Row subset as a new snapshot (shares the path table)."""
        cols = {name: getattr(self, name)[mask] for name in NUMERIC_COLUMNS}
        return Snapshot(label=self.label, timestamp=self.timestamp, paths=self.paths, **cols)

    def path_strings(self) -> list[str]:
        """Materialized path strings, row-aligned (test/debug helper)."""
        return self.paths.paths_of(self.path_id)

    # -- week-over-week set algebra (§4.2.3) ---------------------------------

    def intersect_ids(self, other: "Snapshot") -> np.ndarray:
        """Path ids present in both snapshots (both sides sorted + unique)."""
        return np.intersect1d(self.path_id, other.path_id, assume_unique=True)

    def only_ids(self, other: "Snapshot") -> np.ndarray:
        """Path ids present here but not in ``other``."""
        return np.setdiff1d(self.path_id, other.path_id, assume_unique=True)

    def rows_for(self, ids: np.ndarray) -> np.ndarray:
        """Row indices of the given (sorted) path ids."""
        idx = np.searchsorted(self.path_id, ids)
        if idx.size and (idx >= self.path_id.size).any():
            raise KeyError("some path ids are not present in this snapshot")
        if idx.size and (self.path_id[idx] != ids).any():
            raise KeyError("some path ids are not present in this snapshot")
        return idx


def _is_sorted(arr: np.ndarray) -> bool:
    return bool(np.all(arr[1:] >= arr[:-1]))


class SnapshotCollection:
    """Ordered series of weekly snapshots sharing one path table."""

    def __init__(self, paths: PathTable | None = None) -> None:
        self.paths = paths if paths is not None else PathTable()
        self._snapshots: list[Snapshot] = []

    def append(self, snapshot: Snapshot) -> None:
        if snapshot.paths is not self.paths:
            raise ValueError("snapshot was built against a different path table")
        if self._snapshots and snapshot.timestamp < self._snapshots[-1].timestamp:
            raise ValueError("snapshots must be appended in chronological order")
        self._snapshots.append(snapshot)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __getitem__(self, idx: int) -> Snapshot:
        return self._snapshots[idx]

    def __iter__(self) -> Iterator[Snapshot]:
        return iter(self._snapshots)

    @property
    def labels(self) -> list[str]:
        return [s.label for s in self._snapshots]

    @property
    def timestamps(self) -> np.ndarray:
        return np.array([s.timestamp for s in self._snapshots], dtype=np.int64)

    def pairs(self) -> Iterator[tuple[Snapshot, Snapshot]]:
        """Adjacent (previous, current) snapshot pairs, for weekly diffs."""
        for prev, cur in zip(self._snapshots, self._snapshots[1:]):
            yield prev, cur

    def union_path_ids(self) -> np.ndarray:
        """Unique path ids ever observed ("accumulated unique entries")."""
        if not self._snapshots:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([s.path_id for s in self._snapshots]))

    def subset(self, indices: Sequence[int]) -> "SnapshotCollection":
        """A new collection referencing a subset of snapshots (shared table)."""
        out = SnapshotCollection(self.paths)
        for i in indices:
            out._snapshots.append(self._snapshots[i])
        return out
