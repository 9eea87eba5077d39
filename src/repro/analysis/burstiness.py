"""Burstiness of file operations (Figure 17, Table 1's c_v columns, §4.2.4).

Metric definition (the paper leaves the time base ambiguous; ours is fixed
and documented): for each (project, week) pair,

* **write c_v** — coefficient of variation of the *within-week offsets* of
  the mtimes of that week's new files;
* **read c_v** — the same over the atimes of that week's readonly files.

Pairs with fewer than ``min_files`` events are excluded, mirroring the
paper's exclusion of projects accessing fewer than 100 files in a week.
Per-domain distributions over the qualifying (project, week) samples give
Figure 17's box statistics; the per-domain median is Table 1's value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.access import split_delta, split_pair
from repro.analysis.context import AnalysisContext
from repro.query.engine import Kernel
from repro.scan.snapshot import Snapshot
from repro.stats.dispersion import coefficient_of_variation, five_number_summary


@dataclass
class BurstinessResult:
    """Figure 17: per-domain c_v distributions."""

    write_by_domain: dict[str, dict[str, float]]  # five-number summaries
    read_by_domain: dict[str, dict[str, float]]
    write_samples: dict[str, np.ndarray]
    read_samples: dict[str, np.ndarray]

    def write_median(self, code: str) -> float | None:
        s = self.write_by_domain.get(code)
        return s["median"] if s else None

    def read_median(self, code: str) -> float | None:
        s = self.read_by_domain.get(code)
        return s["median"] if s else None

    def read_write_gap(self) -> float:
        """Overall median write c_v / median read c_v (paper: ≈100×)."""
        writes = np.concatenate(
            [v for v in self.write_samples.values()]
        ) if self.write_samples else np.empty(0)
        reads = np.concatenate(
            [v for v in self.read_samples.values()]
        ) if self.read_samples else np.empty(0)
        if writes.size == 0 or reads.size == 0:
            return float("nan")
        read_med = float(np.median(reads))
        if read_med == 0.0:
            return float("inf")
        return float(np.median(writes)) / read_med


def _events(new_gid, new_mtime, ro_gid, ro_atime, week_start: int) -> tuple:
    """(gid, mtime-offset) of new files and (gid, atime-offset) of readonly
    files for one week, offsets relative to the previous snapshot time."""
    return (
        new_gid.astype(np.int64),
        (new_mtime - week_start).astype(np.float64),
        ro_gid.astype(np.int64),
        (ro_atime - week_start).astype(np.float64),
    )


def _pair_events(prev: Snapshot, cur: Snapshot) -> tuple:
    files, new_ids, _, both_rows, readonly, _ = split_pair(prev, cur)
    new, ro = files.rows_for(new_ids), both_rows[readonly]
    return _events(
        files.gid[new], files.mtime[new], files.gid[ro], files.atime[ro],
        prev.timestamp,
    )


def _delta_events(delta) -> tuple:
    """One week's events from its delta sidecar — no snapshot load.

    The new files (added rows plus dir→file flips) are merged back into
    path-id order: a (project, week) c_v sums its offsets in that order,
    so the replay must present them as :func:`_pair_events` does.
    """
    new_added, new_changed, _, _, readonly, _ = split_delta(delta)
    added, cur = delta.added, delta.changed_cur

    def new(column: str) -> np.ndarray:
        return np.concatenate([added[column][new_added], cur[column][new_changed]])

    order = np.argsort(new("path_id"), kind="stable")
    return _events(
        new("gid")[order], new("mtime")[order],
        cur["gid"][readonly], cur["atime"][readonly], delta.prev_timestamp,
    )


def _per_project_cv(
    gids: np.ndarray, offsets: np.ndarray, min_files: int
) -> dict[int, float]:
    out: dict[int, float] = {}
    if gids.size == 0:
        return out
    order = np.argsort(gids, kind="stable")
    gids, offsets = gids[order], offsets[order]
    bounds = np.flatnonzero(np.diff(gids)) + 1
    for chunk_g, chunk_off in zip(
        np.split(gids, bounds), np.split(offsets, bounds)
    ):
        if chunk_off.size >= min_files:
            out[int(chunk_g[0])] = coefficient_of_variation(chunk_off)
    return out


def burstiness_kernel(ctx: AnalysisContext, min_files: int = 100) -> Kernel:
    """Figure 17 as a pair kernel: weekly events map, c_v aggregation finish.

    The state is the list of weekly events (gids and raw offsets), so
    ``update`` appends one week built from its delta; the domain join and
    the ``min_files`` threshold apply in ``finish_fn``, outside the state."""

    def finish_burstiness(weeks: list[tuple]) -> BurstinessResult:
        write_samples: dict[str, list[float]] = {}
        read_samples: dict[str, list[float]] = {}
        code_of = {i: c for c, i in ctx.domain_index.items()}
        for new_gid, new_off, ro_gid, ro_off in weeks:
            for gid, cv in _per_project_cv(new_gid, new_off, min_files).items():
                dom = ctx.gid_to_domain_id.get(gid)
                if dom is not None and np.isfinite(cv):
                    write_samples.setdefault(code_of[dom], []).append(cv)
            for gid, cv in _per_project_cv(ro_gid, ro_off, min_files).items():
                dom = ctx.gid_to_domain_id.get(gid)
                if dom is not None and np.isfinite(cv):
                    read_samples.setdefault(code_of[dom], []).append(cv)

        write_stats = {
            code: five_number_summary(np.array(vals))
            for code, vals in write_samples.items()
        }
        read_stats = {
            code: five_number_summary(np.array(vals))
            for code, vals in read_samples.items()
        }
        return BurstinessResult(
            write_by_domain=write_stats,
            read_by_domain=read_stats,
            write_samples={c: np.array(v) for c, v in write_samples.items()},
            read_samples={c: np.array(v) for c, v in read_samples.items()},
        )

    return Kernel(
        name="burstiness",
        map_fn=_pair_events,
        reduce_fn=list,
        pairwise=True,
        finish_fn=finish_burstiness,
        update_fn=lambda state, delta: state + [_delta_events(delta)],
    )


def burstiness(ctx: AnalysisContext, min_files: int = 100) -> BurstinessResult:
    """Figure 17 / Table 1 c_v columns.

    ``min_files`` is the qualification threshold per (project, week); use a
    smaller value for reduced-scale simulations (the paper used 100 at full
    scale).
    """
    return ctx.run_kernels([burstiness_kernel(ctx, min_files)])["burstiness"]
