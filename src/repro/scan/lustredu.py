"""LustreDU — the daily full-namespace metadata scanner.

OLCF's LustreDU tool walks the entire file system (up to a billion entries)
each night to build the purge candidate list; the resulting snapshot is what
the paper analyzes.  Our scanner does the same against the simulator: one
namespace walk, then vectorized gathers from the structure-of-arrays inode
table.  Like the real tool it records *no file size* (fetching sizes would
require touching every OSS, §2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fs.filesystem import FileSystem
from repro.scan.paths import PathRows, PathTable
from repro.scan.snapshot import Snapshot


@dataclass
class ScanStats:
    """Bookkeeping for one scan (the paper tracks snapshot sizes, Obs. 7)."""

    label: str
    entries: int
    files: int
    directories: int
    #: Estimated PSV text size in bytes, the metric behind the paper's
    #: "snapshot files grew from 50GB to 240GB" observation.
    psv_bytes: int


class LustreDuScanner:
    """Scans a :class:`FileSystem` into columnar :class:`Snapshot` objects."""

    def __init__(self, paths: PathTable | None = None) -> None:
        self.paths = paths if paths is not None else PathTable()
        self.history: list[ScanStats] = []

    def scan(self, fs: FileSystem, label: str | None = None,
             timestamp: int | None = None) -> Snapshot:
        """Walk the whole namespace and snapshot every entry below the root."""
        ts = fs.clock.now if timestamp is None else int(timestamp)
        label = fs.clock.datestamp() if label is None else label
        inos: list[int] = []
        parents: list[int] = []
        names: list[str] = []
        # the walk yields a parent before its children, so each row's
        # parent is an earlier row — or the root, whose path is the ""
        # directory of PathRows.dirs (code -2)
        row_of = {fs.namespace.root: -2}
        for row, (ino, parent, name) in enumerate(fs.namespace.walk()):
            inos.append(ino)
            parents.append(row_of[parent])
            names.append(name)
            row_of[ino] = row
        path_id = self.paths.intern_rows(PathRows(parents, names, [""]))
        # fixed-width numeric tail estimate of 64 bytes per PSV line
        psv_bytes = int(self.paths.lengths_of(path_id).sum()) + 64 * len(inos)
        ino_arr = np.asarray(inos, dtype=np.int64)
        table = fs.inodes
        columns = {
            "path_id": path_id,
            "ino": ino_arr,
            "mode": table.mode[ino_arr] if ino_arr.size else np.empty(0, np.uint32),
            "uid": table.uid[ino_arr] if ino_arr.size else np.empty(0, np.int32),
            "gid": table.gid[ino_arr] if ino_arr.size else np.empty(0, np.int32),
            "atime": table.atime[ino_arr] if ino_arr.size else np.empty(0, np.int64),
            "mtime": table.mtime[ino_arr] if ino_arr.size else np.empty(0, np.int64),
            "ctime": table.ctime[ino_arr] if ino_arr.size else np.empty(0, np.int64),
            "stripe_count": table.stripe_count[ino_arr] if ino_arr.size else np.empty(0, np.int32),
            "stripe_start": table.stripe_start[ino_arr] if ino_arr.size else np.empty(0, np.int32),
        }
        snap = Snapshot.from_columns(label, ts, self.paths, columns)
        self.history.append(
            ScanStats(
                label=label,
                entries=len(snap),
                files=snap.n_files,
                directories=snap.n_dirs,
                psv_bytes=psv_bytes,
            )
        )
        return snap
