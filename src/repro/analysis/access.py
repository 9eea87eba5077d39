"""Weekly access patterns and file age (Figures 13 and 16, §4.2.3).

The paper's classification, applied to each adjacent snapshot pair over the
*regular files* present in both:

* **untouched** — all three timestamps identical;
* **readonly**  — only atime changed;
* **updated**   — mtime and/or ctime changed;
* **new** / **deleted** — set differences of the two snapshots' path sets.

The classification exists once per input kind — :func:`split_pair` over a
snapshot pair, :func:`split_delta` over a ``.rpd`` sidecar — and Figure
17's burstiness reads the same new and readonly sets from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.fs.clock import SECONDS_PER_DAY
from repro.query.engine import Kernel
from repro.scan.snapshot import Snapshot


@dataclass
class WeeklyAccess:
    """One bar of Figure 13."""

    label: str
    new: int
    deleted: int
    readonly: int
    updated: int
    untouched: int

    @property
    def intersection(self) -> int:
        return self.readonly + self.updated + self.untouched

    def fractions(self) -> dict[str, float]:
        """Shares over the union of both weeks' files, like the paper's bars."""
        total = self.intersection + self.new + self.deleted
        if total == 0:
            return {k: 0.0 for k in ("new", "deleted", "readonly", "updated", "untouched")}
        return {
            "new": self.new / total,
            "deleted": self.deleted / total,
            "readonly": self.readonly / total,
            "updated": self.updated / total,
            "untouched": self.untouched / total,
        }


def split_pair(prev: Snapshot, cur: Snapshot) -> tuple:
    """§4.2.3 over a snapshot pair's regular files.

    Returns ``(cur_files, new_ids, n_deleted, both_rows, readonly,
    updated)``: the current files, the ids of those the previous snapshot
    lacks, the deleted count, the ``cur_files`` rows of files in both, and
    readonly/updated masks over those rows (untouched is the rest).
    """
    prev_files = prev.select(prev.is_file)
    cur_files = cur.select(cur.is_file)
    both = prev_files.intersect_ids(cur_files)
    pr, cr = prev_files.rows_for(both), cur_files.rows_for(both)
    atime_changed = prev_files.atime[pr] != cur_files.atime[cr]
    write_changed = (prev_files.mtime[pr] != cur_files.mtime[cr]) | (
        prev_files.ctime[pr] != cur_files.ctime[cr]
    )
    return (
        cur_files, cur_files.only_ids(prev_files), len(prev_files) - both.size,
        cr, atime_changed & ~write_changed, write_changed,
    )


def split_delta(delta) -> tuple:
    """The same sets from a ``.rpd`` sidecar — no snapshot load.

    Returns ``(new_added, new_changed, n_deleted, n_both, readonly,
    updated)``: masks of the new files among ``added`` rows and among
    ``changed`` rows (dir→file flips), the deleted and files-in-both
    counts, and readonly/updated masks over ``changed`` rows (a file in
    both that is not a changed row is untouched).
    """
    prev_file, cur_file = ~delta.changed_was_dir, ~delta.changed_is_dir
    prev, cur = delta.changed_prev, delta.changed_cur
    n_deleted = int((~delta.removed_is_dir).sum() + (prev_file & ~cur_file).sum())
    ff = prev_file & cur_file
    atime_changed = prev["atime"] != cur["atime"]
    write_changed = (prev["mtime"] != cur["mtime"]) | (prev["ctime"] != cur["ctime"])
    return (
        ~delta.added_is_dir, cur_file & ~prev_file, n_deleted,
        int(delta.prev_files) - n_deleted,
        ff & atime_changed & ~write_changed, ff & write_changed,
    )


def _weekly_access(label, new, deleted, both, readonly, updated) -> WeeklyAccess:
    readonly, updated = int(readonly.sum()), int(updated.sum())
    return WeeklyAccess(
        label, int(new), int(deleted), readonly, updated,
        int(both) - readonly - updated,
    )


def _classify_pair(prev: Snapshot, cur: Snapshot) -> WeeklyAccess:
    _, new_ids, deleted, both_rows, readonly, updated = split_pair(prev, cur)
    return _weekly_access(
        cur.label, new_ids.size, deleted, both_rows.size, readonly, updated
    )


def _classify_delta(delta) -> WeeklyAccess:
    """One Figure 13 bar straight from a delta sidecar — no snapshot load."""
    new_added, new_changed, deleted, both, readonly, updated = split_delta(delta)
    new = new_added.sum() + new_changed.sum()
    return _weekly_access(delta.cur_label, new, deleted, both, readonly, updated)


@dataclass
class AccessPatternResult:
    """Figure 13: the full weekly series plus window averages."""

    weeks: list[WeeklyAccess]

    def mean_fractions(self) -> dict[str, float]:
        keys = ("new", "deleted", "readonly", "updated", "untouched")
        if not self.weeks:
            return {k: 0.0 for k in keys}
        acc = {k: 0.0 for k in keys}
        for week in self.weeks:
            f = week.fractions()
            for k in keys:
                acc[k] += f[k]
        return {k: v / len(self.weeks) for k, v in acc.items()}

    def new_to_readonly_ratio(self) -> float:
        """Paper: new files ≈4× the readonly files on most snapshots."""
        new = sum(w.new for w in self.weeks)
        readonly = sum(w.readonly for w in self.weeks)
        return new / readonly if readonly else float("inf")


def access_kernel() -> Kernel:
    """Figure 13 as a pair kernel: classify each adjacent snapshot pair.

    Delta-capable: a ``.rpd`` sidecar carries both sides of every changed
    row, which is exactly the information the pairwise classifier reads, so
    ``update`` appends one :class:`WeeklyAccess` per delta."""
    return Kernel(
        name="access",
        map_fn=_classify_pair,
        reduce_fn=list,
        pairwise=True,
        finish_fn=lambda weeks: AccessPatternResult(weeks=list(weeks)),
        update_fn=lambda state, delta: state + [_classify_delta(delta)],
    )


def access_patterns(ctx: AnalysisContext) -> AccessPatternResult:
    """Figure 13 over every adjacent snapshot pair."""
    return ctx.run_kernels([access_kernel()])["access"]


@dataclass
class FileAgeResult:
    """Figure 16: per-snapshot average file age (atime − mtime, clamped ≥0)."""

    labels: list[str]
    mean_age_days: np.ndarray
    median_age_days: np.ndarray
    purge_window_days: int = 90

    @property
    def fraction_over_window(self) -> float:
        """Share of snapshots whose average age exceeds the purge window
        (paper: 86%)."""
        if self.mean_age_days.size == 0:
            return 0.0
        return float((self.mean_age_days > self.purge_window_days).mean())

    @property
    def median_of_means(self) -> float:
        """Paper: 138 days."""
        return float(np.median(self.mean_age_days)) if self.mean_age_days.size else 0.0

    @property
    def max_of_means(self) -> float:
        """Paper: 214 days."""
        return float(self.mean_age_days.max()) if self.mean_age_days.size else 0.0


def _age_row(
    label: str, atime: np.ndarray, mtime: np.ndarray
) -> tuple[str, float, float]:
    """One Figure 16 point from a snapshot's file timestamps.

    The arrays must be in snapshot row order (path_id ascending): NumPy's
    pairwise mean depends on element order, and delta replay reproduces the
    full pass bit-for-bit only because both feed it identically ordered
    values.
    """
    ages = np.maximum(atime - mtime, 0) / SECONDS_PER_DAY
    if ages.size == 0:
        return label, 0.0, 0.0
    return label, float(ages.mean()), float(np.median(ages))


def _age_of(
    snapshot: Snapshot,
) -> tuple[tuple[str, float, float], np.ndarray, np.ndarray, np.ndarray]:
    """Map partial: the Figure 16 row plus the file rows that produced it.

    The trailing ``(path_id, atime, mtime)`` arrays cost one extra
    worker→parent transfer per snapshot but let ``reduce_fn`` seed
    the delta-replay state with the *last* snapshot's file population —
    the only part of a snapshot the age series needs to advance.
    """
    mask = snapshot.is_file
    atime = snapshot.atime[mask]
    mtime = snapshot.mtime[mask]
    return (
        _age_row(snapshot.label, atime, mtime),
        snapshot.path_id[mask],
        atime,
        mtime,
    )


@dataclass
class _AgeSeriesState:
    """Journaled state for the delta-capable ages kernel.

    ``rows`` is the series so far; the ``file_*`` arrays are the last
    snapshot's file rows in path_id-ascending order, exactly as a fresh
    load would present them.
    """

    rows: list
    file_pid: np.ndarray
    file_atime: np.ndarray
    file_mtime: np.ndarray


def _reduce_age_state(partials: list) -> _AgeSeriesState:
    rows = [p[0] for p in partials]
    if partials:
        _, pid, atime, mtime = partials[-1]
    else:
        pid = atime = mtime = np.empty(0, dtype=np.int64)
    return _AgeSeriesState(
        rows=rows, file_pid=pid, file_atime=atime, file_mtime=mtime
    )


def _update_ages(state: _AgeSeriesState, delta) -> _AgeSeriesState:
    """Advance the file-age series by one delta sidecar.

    The next snapshot's file population is the previous one minus every
    removed/changed pid, plus the delta's current-side file rows (added
    files and the file side of changed rows — dir→file flips included).
    Re-sorting by path_id restores snapshot row order, so the recomputed
    mean/median are bit-identical to a full map of that snapshot.
    """
    drop = np.concatenate(
        [delta.removed["path_id"], delta.changed_prev["path_id"]]
    )
    keep = np.isin(state.file_pid, drop, invert=True)
    add = ~delta.added_is_dir
    chg = ~delta.changed_is_dir
    pid = np.concatenate([
        state.file_pid[keep],
        delta.added["path_id"][add],
        delta.changed_cur["path_id"][chg],
    ])
    atime = np.concatenate([
        state.file_atime[keep],
        delta.added["atime"][add],
        delta.changed_cur["atime"][chg],
    ])
    mtime = np.concatenate([
        state.file_mtime[keep],
        delta.added["mtime"][add],
        delta.changed_cur["mtime"][chg],
    ])
    order = np.argsort(pid, kind="stable")
    pid, atime, mtime = pid[order], atime[order], mtime[order]
    row = _age_row(delta.cur_label, atime, mtime)
    return _AgeSeriesState(
        rows=state.rows + [row],
        file_pid=pid,
        file_atime=atime,
        file_mtime=mtime,
    )


def ages_kernel(purge_window_days: int = 90) -> Kernel:
    """Figure 16 as a kernel: per-snapshot mean/median file age.

    Delta-capable: the journaled state carries the last snapshot's file
    ``(path_id, atime, mtime)`` rows, and ``update`` applies one ``.rpd``
    sidecar's removed/added/changed sets to them before recomputing the
    new snapshot's mean/median — O(|delta| + files) per appended snapshot,
    no snapshot load, bit-identical series."""

    def rows_to_result(rows: list[tuple[str, float, float]]) -> FileAgeResult:
        return FileAgeResult(
            labels=[r[0] for r in rows],
            mean_age_days=np.array([r[1] for r in rows]),
            median_age_days=np.array([r[2] for r in rows]),
            purge_window_days=purge_window_days,
        )

    return Kernel(
        name="ages",
        map_fn=_age_of,
        reduce_fn=_reduce_age_state,
        finish_fn=lambda state: rows_to_result(state.rows),
        update_fn=_update_ages,
    )


def file_ages(ctx: AnalysisContext, purge_window_days: int = 90) -> FileAgeResult:
    """Figure 16: the file-age series."""
    return ctx.run_kernels([ages_kernel(purge_window_days)])["ages"]
