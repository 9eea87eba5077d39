"""Snapshot capture pipeline: LustreDU scan → PSV → columnar store.

Mirrors the paper's data path (§2.2, §3, Figure 4):

* :mod:`repro.scan.lustredu` walks the simulated file system once a day and
  emits a metadata record per entry, exactly the Figure 2 schema — PATH,
  ATIME, CTIME, MTIME, UID, GID, MODE, INODE, OST (and, like LustreDU, *no
  file size*);
* :mod:`repro.scan.psv` writes the pipe-separated text snapshots and parses
  one record (:mod:`repro.ingest` reads whole dumps through it);
* :mod:`repro.scan.columnar` converts PSV into a compressed, columnar,
  dictionary-encoded binary format (the paper used Apache Parquet; we ship a
  self-contained "parquet-lite");
* :mod:`repro.scan.snapshot` holds the in-memory columnar form — all paths
  are interned into a collection-wide :class:`~repro.scan.paths.PathTable`
  so week-over-week set operations (Figure 13) are integer operations.
"""

from repro.scan.extensions import NO_EXTENSION, ExtensionTable, split_extension
from repro.scan.errors import CorruptSnapshotError, IngestRecordError
from repro.scan.paths import PathTable
from repro.scan.snapshot import Snapshot, SnapshotCollection
from repro.scan.lustredu import LustreDuScanner
from repro.scan.psv import (
    ParsedRecord,
    escape_path,
    parse_record,
    unescape_path,
    write_psv,
)
from repro.scan.columnar import (
    read_columnar,
    read_columnar_header,
    write_columnar,
    write_columnar_blocks,
)
from repro.scan.delta import write_week
from repro.scan.store import ArchiveHealthReport, DiskSnapshotCollection

__all__ = [
    "NO_EXTENSION",
    "ExtensionTable",
    "split_extension",
    "CorruptSnapshotError",
    "IngestRecordError",
    "ParsedRecord",
    "PathTable",
    "Snapshot",
    "SnapshotCollection",
    "LustreDuScanner",
    "escape_path",
    "parse_record",
    "unescape_path",
    "write_psv",
    "read_columnar",
    "read_columnar_header",
    "write_columnar",
    "write_columnar_blocks",
    "write_week",
    "ArchiveHealthReport",
    "DiskSnapshotCollection",
]
