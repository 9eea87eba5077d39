"""Purge-list generation — LustreDU's reason for existing.

OLCF scans the file system nightly *so that* a purge candidate list can be
generated (§2.2); the metadata study is a by-product of that operational
pipeline.  This module closes the loop: it derives the candidate list from
a snapshot exactly as the center does, and quantifies how the snapshot
view differs from ground truth (the paper notes snapshot-based analysis
misses files created and deleted between scans).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fs.clock import SECONDS_PER_DAY
from repro.fs.filesystem import FileSystem
from repro.scan.snapshot import Snapshot


@dataclass
class PurgeList:
    """Candidate files for the nightly purge, from one snapshot."""

    snapshot_label: str
    generated_at: int
    window_days: int
    path_ids: np.ndarray
    ages_days: np.ndarray  # days since last access, per candidate

    def __len__(self) -> int:
        return int(self.path_ids.size)

    def paths(self, snapshot: Snapshot) -> list[str]:
        """Materialize candidate path strings (for the operator's review)."""
        return snapshot.paths.paths_of(self.path_ids)

    def by_project(self, snapshot: Snapshot) -> dict[int, int]:
        """Candidate count per gid — the per-project purge notice."""
        rows = snapshot.rows_for(self.path_ids)
        gids, counts = np.unique(snapshot.gid[rows], return_counts=True)
        return {int(g): int(c) for g, c in zip(gids, counts)}


def generate_purge_list(
    snapshot: Snapshot,
    window_days: int = 90,
    now: int | None = None,
) -> PurgeList:
    """Candidate list: regular files with atime older than the window."""
    if window_days <= 0:
        raise ValueError(f"window_days must be positive, got {window_days}")
    now = snapshot.timestamp if now is None else int(now)
    cutoff = now - window_days * SECONDS_PER_DAY
    mask = snapshot.is_file & (snapshot.atime < cutoff)
    ages = (now - snapshot.atime[mask]) / SECONDS_PER_DAY
    return PurgeList(
        snapshot_label=snapshot.label,
        generated_at=now,
        window_days=window_days,
        path_ids=snapshot.path_id[mask].copy(),
        ages_days=np.asarray(ages, dtype=np.float64),
    )


@dataclass
class PurgeListAccuracy:
    """Snapshot-derived list vs ground truth from the live file system."""

    listed: int
    actual: int
    true_positives: int
    false_positives: int  # listed, but the live FS says recently accessed
    false_negatives: int  # purgeable, but missing from the snapshot list

    @property
    def precision(self) -> float:
        return self.true_positives / self.listed if self.listed else 1.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.actual if self.actual else 1.0


def validate_purge_list(
    purge_list: PurgeList,
    snapshot: Snapshot,
    fs: FileSystem,
    window_days: int | None = None,
    now: int | None = None,
) -> PurgeListAccuracy:
    """Compare a snapshot-derived purge list against the live file system.

    Divergence comes from activity after the scan: candidates touched since
    the snapshot become false positives; files that aged past the window
    since the snapshot (or were missed entirely) become false negatives.
    """
    window_days = purge_list.window_days if window_days is None else window_days
    now = fs.clock.now if now is None else int(now)
    cutoff = now - window_days * SECONDS_PER_DAY

    # ground truth from the live inode table
    live = fs.inodes.live_inodes()
    is_file = np.fromiter(
        (not fs.namespace.is_dir(int(i)) for i in live), dtype=bool, count=live.size
    )
    actually_purgeable = set(
        int(i) for i in live[is_file & (fs.inodes.atime[live] < cutoff)]
    )

    # map listed path ids back to live inodes via the snapshot rows
    rows = snapshot.rows_for(purge_list.path_ids)
    listed_inos = snapshot.ino[rows]
    tp = fp = 0
    for ino in listed_inos:
        ino = int(ino)
        if ino in actually_purgeable:
            tp += 1
        else:
            fp += 1
    fn = len(actually_purgeable) - tp
    return PurgeListAccuracy(
        listed=len(purge_list),
        actual=len(actually_purgeable),
        true_positives=tp,
        false_positives=fp,
        false_negatives=max(fn, 0),
    )
