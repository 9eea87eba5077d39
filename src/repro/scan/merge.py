"""Validating merge of per-shard scan parts into one publishable archive.

A sharded simulation leaves ``parts/shard-XXXX/<label>.rpq`` files behind
— one namespace slice per shard per scan week.  This module reassembles
them into the archive the analyses consume, with the same fencing the rest
of the pipeline uses:

* **probe pass** — every part of every shard is fully CRC-validated
  (header, path table, every block decoded and checked, trailer — and no
  path interned) *before* any merged file is written; a corrupt or
  missing part either raises the usual typed
  :class:`~repro.scan.errors.CorruptSnapshotError` or, under
  ``skip``/``quarantine``, drops that whole shard from the merge and
  records the fault in the :class:`~repro.scan.store.ArchiveHealthReport`
  (a shard is merged for *all* weeks or none — a partially merged shard
  would make week-over-week diffs silently wrong);
* **merge pass** — every part is read into one cross-week path table,
  which interns a row as ``(parent, name)``: the structural directories
  every shard materializes (``/lustre``, the atlas roots, the domain
  directories) get one path id however many parts name them.  Per week,
  part rows are concatenated in shard order with each shard's ``ino``
  column offset by ``shard * INO_STRIDE`` (the per-shard inode
  allocators all start from the same base), stably sorted by
  ``path_id``, and deduplicated keep-first (of each shared directory,
  the row of the lowest merged shard survives);
* **manifest fencing** — all merged ``.rpq`` files and ``.rpd`` delta
  sidecars are written (atomically, each week's pair by
  :func:`~repro.scan.delta.write_week`) first, the generation-bumped manifest
  last, so a merge killed midway is invisible to generation-fenced
  readers, exactly like a torn publish.  The caller writes the archive's
  ``accounts.json`` member before the merge and passes its record in;
  the merged manifest lists it (this module never builds a population).

Everything here is deterministic in the part bytes, so the merged archive
is byte-identical no matter how the parts were produced (worker count,
order, crash/restart history).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.manifest import write_manifest
from repro.scan.columnar import read_columnar, verify_columnar
from repro.scan.delta import delta_config, write_week
from repro.scan.errors import CorruptSnapshotError
from repro.scan.paths import PathTable
from repro.scan.snapshot import NUMERIC_COLUMNS, Snapshot
from repro.scan.store import ArchiveHealthReport, SnapshotFault

#: Subdirectory (under the merged archive) holding the per-shard parts.
PARTS_DIRNAME = "parts"

#: Per-shard inode-number offset: shard ``s``'s inodes live in
#: ``[s * INO_STRIDE, (s+1) * INO_STRIDE)`` after the merge.  2^40 inodes
#: per shard is comfortably beyond any simulated namespace.
INO_STRIDE = 1 << 40


def shard_dir(parts_root: str | Path, shard: int) -> Path:
    return Path(parts_root) / f"shard-{shard:04d}"


def shard_part_path(parts_root: str | Path, shard: int, label: str) -> Path:
    return shard_dir(parts_root, shard) / f"{label}.rpq"


def probe_shard_parts(
    parts_root: str | Path,
    labels: list[str],
    shards: list[int],
    *,
    on_error: str = "raise",
    report: ArchiveHealthReport | None = None,
) -> list[int]:
    """CRC-validate every shard part; returns the shards safe to merge.

    Under ``on_error="raise"`` the first bad part raises its typed error.
    Otherwise the owning shard is dropped wholesale and the fault recorded
    — corrupt bytes never reach the merged archive as garbage rows.
    """
    if report is None:
        report = ArchiveHealthReport()
    good: list[int] = []
    for shard in shards:
        healthy = True
        for label in labels:
            path = shard_part_path(parts_root, shard, label)
            report.scanned += 1
            try:
                if not path.exists():
                    raise CorruptSnapshotError(path, "missing shard part")
                verify_columnar(path)
            except CorruptSnapshotError as exc:
                if on_error == "raise":
                    raise
                report.faults.append(
                    SnapshotFault(
                        path=str(path),
                        reason=f"shard {shard} dropped from merge: {exc.reason}",
                        offset=exc.offset,
                        action="quarantined",
                    )
                )
                healthy = False
                break
            report.ok += 1
        if healthy:
            good.append(shard)
    return good


def _merge_week(
    label: str,
    parts: list[Snapshot],
    sources: list[Path],
    shards: list[int],
    table: PathTable,
) -> Snapshot:
    timestamp = parts[0].timestamp
    for source, part in zip(sources, parts):
        if part.label != label or part.timestamp != timestamp:
            raise CorruptSnapshotError(
                source,
                f"shard part disagrees with siblings "
                f"(label={part.label!r}, timestamp={part.timestamp})",
            )
    pid = np.concatenate([p.path_id for p in parts])
    order = np.argsort(pid, kind="stable")
    pid = pid[order]
    keep = np.ones(len(pid), dtype=bool)
    keep[1:] = pid[1:] != pid[:-1]
    sel = order[keep]
    columns = {"path_id": pid[keep]}
    del pid, order, keep
    # one column at a time: each concatenation lives only while gathered
    for name in NUMERIC_COLUMNS:
        if name != "path_id":
            columns[name] = _concatenated(name, parts, shards)[sel]
    return Snapshot.from_columns(label, int(timestamp), table, columns)


def _concatenated(name: str, parts: list[Snapshot], shards: list[int]) -> np.ndarray:
    if name == "ino":
        return np.concatenate(
            [
                part.ino.astype(np.int64) + np.int64(shard) * INO_STRIDE
                for shard, part in zip(shards, parts)
            ]
        )
    return np.concatenate([getattr(p, name) for p in parts])


def merge_shard_parts(
    parts_root: str | Path,
    dest: str | Path,
    config,
    labels: list[str],
    shards: list[int],
    *,
    on_error: str = "raise",
    report: ArchiveHealthReport | None = None,
    sharding_meta: dict | None = None,
    accounts: dict | None = None,
) -> list[dict]:
    """Probe, merge, and publish the shard parts under ``dest``.

    Returns the manifest snapshot records.  The manifest (generation
    bumped by :func:`write_manifest`) commits last, after every merged
    file is durably on disk, and lists ``accounts`` — the record of the
    ``accounts.json`` member the caller already wrote under ``dest``.
    """
    parts_root = Path(parts_root)
    dest = Path(dest)
    if report is None:
        report = ArchiveHealthReport()
    merged_shards = probe_shard_parts(
        parts_root, labels, shards, on_error=on_error, report=report
    )
    if not merged_shards:
        raise CorruptSnapshotError(
            parts_root, "no healthy shard parts to merge"
        )
    dest.mkdir(parents=True, exist_ok=True)
    table = PathTable()
    prev: Snapshot | None = None
    records: list[dict] = []
    for i, label in enumerate(labels):
        sources = [
            shard_part_path(parts_root, shard, label) for shard in merged_shards
        ]
        parts = [read_columnar(source, table) for source in sources]
        merged = _merge_week(label, parts, sources, merged_shards, table)
        del parts  # the week's parts are freed before it is written
        stats = write_week(merged, prev, dest)
        records.append(
            {
                "label": label,
                "file": f"{label}.rpq",
                "rows": len(merged),
                "stored_bytes": stats["stored_bytes"],
            }
        )
        prev = merged
    meta = dict(sharding_meta or {})
    meta["merged_shards"] = list(merged_shards)
    meta["ino_stride"] = INO_STRIDE
    write_manifest(
        dest, config, snapshots=records,
        extra={"deltas": delta_config(), "sharding": meta}, accounts=accounts,
    )
    return records
