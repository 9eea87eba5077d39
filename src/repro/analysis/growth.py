"""Namespace growth over the observation window (Figure 15, Observation 7)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.query.engine import Kernel
from repro.scan.lustredu import ScanStats
from repro.scan.snapshot import Snapshot


@dataclass
class GrowthSeries:
    """Figure 15: file and directory counts per snapshot."""

    labels: list[str]
    files: np.ndarray
    directories: np.ndarray
    #: estimated PSV snapshot sizes (the paper's 50 GB → 240 GB remark)
    snapshot_bytes: np.ndarray | None = None

    @property
    def file_growth_factor(self) -> float:
        """Last/first file count (paper: ≈5× over the window)."""
        if self.files.size == 0 or self.files[0] == 0:
            return float("nan")
        return float(self.files[-1] / self.files[0])

    @property
    def dir_growth_factor(self) -> float:
        if self.directories.size == 0 or self.directories[0] == 0:
            return float("nan")
        return float(self.directories[-1] / self.directories[0])

    def dir_share(self) -> np.ndarray:
        """Directory share of entries per snapshot (paper: <10% late on)."""
        total = self.files + self.directories
        return np.divide(
            self.directories,
            total,
            out=np.zeros_like(self.directories, dtype=np.float64),
            where=total > 0,
        )

    @property
    def final_dir_share(self) -> float:
        share = self.dir_share()
        return float(share[-1]) if share.size else 0.0


def _map_growth(snapshot: Snapshot) -> tuple[str, int, int]:
    return snapshot.label, snapshot.n_files, snapshot.n_dirs


def growth_kernel(scan_history: list[ScanStats] | None = None) -> Kernel:
    """Figure 15 as a kernel: per-snapshot file/dir counts.

    Delta-capable: the state is simply the per-snapshot count rows, and the
    delta sidecar's header already carries the appended snapshot's file/dir
    totals — no namespace load at all."""

    def reduce_growth(rows: list[tuple[str, int, int]]) -> GrowthSeries:
        labels = [r[0] for r in rows]
        snapshot_bytes = None
        if scan_history is not None:
            by_label = {s.label: s.psv_bytes for s in scan_history}
            snapshot_bytes = np.array(
                [by_label.get(label, 0) for label in labels], dtype=np.int64
            )
        return GrowthSeries(
            labels=labels,
            files=np.array([r[1] for r in rows], dtype=np.int64),
            directories=np.array([r[2] for r in rows], dtype=np.int64),
            snapshot_bytes=snapshot_bytes,
        )

    def update_growth(
        state: list[tuple[str, int, int]], delta
    ) -> list[tuple[str, int, int]]:
        return state + [(delta.cur_label, delta.cur_files, delta.cur_dirs)]

    return Kernel(
        name="growth",
        map_fn=_map_growth,
        reduce_fn=list,
        finish_fn=reduce_growth,
        update_fn=update_growth,
    )


def growth_series(
    ctx: AnalysisContext, scan_history: list[ScanStats] | None = None
) -> GrowthSeries:
    """Figure 15 from the snapshot series (optionally with scan sizes)."""
    return ctx.run_kernels([growth_kernel(scan_history)])["growth"]
