"""Shared unique-row census — the fused pass's common substrate.

Six of the paper's analyses (Figures 7, 8a, 8b, 10, 11, 12, Table 2) start
from the same expensive gather: every ``(path_id, gid, uid, is_dir)`` row of
every snapshot, deduplicated to first appearance ("due to deleted files, the
aggregated count of unique files can be larger than the peak file count").
Running that gather once per analysis is exactly the namespace-rescanning
cost the Kernel protocol exists to remove, so it lives here as a single
:class:`~repro.query.engine.Kernel` whose result — a :class:`RowCensus` —
every consumer shares.

Dedup order matters for bit-exact equivalence with the per-analysis code
this replaces: the all-row, file-row, and dir-row censuses are deduplicated
*separately* (a path that flips between file and directory is attributed to
its first appearance of each kind, as the legacy per-analysis gathers did),
and partials are concatenated in snapshot order before ``np.unique``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.query.engine import Kernel
from repro.scan.snapshot import Snapshot

#: Canonical kernel name; consumers share one census per fused pass.
ROWS_KERNEL = "rows"


@dataclass(frozen=True)
class RowCensus:
    """First-seen ownership of every unique path across the window.

    ``pid``/``gid``/``uid``/``is_dir`` cover *all* rows; ``file_*`` and
    ``dir_*`` are the separate first-seen censuses over file rows and
    directory rows only.  All pid arrays are sorted ascending (the
    ``np.unique`` contract), with the companion arrays aligned to them.
    """

    pid: np.ndarray
    gid: np.ndarray
    uid: np.ndarray
    is_dir: np.ndarray
    file_pid: np.ndarray
    file_gid: np.ndarray
    dir_pid: np.ndarray
    dir_gid: np.ndarray

    @classmethod
    def empty(cls) -> "RowCensus":
        i64 = np.empty(0, dtype=np.int64)
        return cls(
            pid=i64,
            gid=i64,
            uid=i64,
            is_dir=np.empty(0, dtype=bool),
            file_pid=i64,
            file_gid=i64,
            dir_pid=i64,
            dir_gid=i64,
        )


def _map_rows(snapshot: Snapshot) -> tuple[np.ndarray, ...]:
    """One snapshot's raw ownership rows (worker side, no dedup yet)."""
    return (
        snapshot.path_id,
        snapshot.gid.astype(np.int64),
        snapshot.uid.astype(np.int64),
        snapshot.is_dir,
    )


def _first_seen(pid: np.ndarray, gid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniq, first = np.unique(pid, return_index=True)
    return uniq, gid[first]


def _reduce_rows(partials: list[tuple[np.ndarray, ...]]) -> RowCensus:
    if not partials:
        return RowCensus.empty()
    pid = np.concatenate([p[0] for p in partials])
    gid = np.concatenate([p[1] for p in partials])
    uid = np.concatenate([p[2] for p in partials])
    is_dir = np.concatenate([p[3] for p in partials])
    uniq, first = np.unique(pid, return_index=True)
    file_mask = ~is_dir
    file_pid, file_gid = _first_seen(pid[file_mask], gid[file_mask])
    dir_pid, dir_gid = _first_seen(pid[is_dir], gid[is_dir])
    return RowCensus(
        pid=uniq,
        gid=gid[first],
        uid=uid[first],
        is_dir=is_dir[first],
        file_pid=file_pid,
        file_gid=file_gid,
        dir_pid=dir_pid,
        dir_gid=dir_gid,
    )


def _merge_first_seen(
    pid: np.ndarray,
    companions: tuple[np.ndarray, ...],
    new_pid: np.ndarray,
    new_companions: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, ...]:
    """Fold never-seen pids into a sorted first-seen census.

    First-seen semantics make the update trivial: rows whose pid is already
    in the census keep their original attribution, so only genuinely new
    pids (with their companion values) are inserted, re-sorted ascending.
    """
    fresh = ~np.isin(new_pid, pid, assume_unique=False)
    if not fresh.any():
        return (pid, *companions)
    merged_pid = np.concatenate([pid, new_pid[fresh]])
    order = np.argsort(merged_pid, kind="stable")
    out = [merged_pid[order]]
    for old, new in zip(companions, new_companions):
        out.append(np.concatenate([old, new[fresh]])[order])
    return tuple(out)


def _update_rows(state: RowCensus, delta) -> RowCensus:
    """Advance the census by one snapshot via its delta sidecar.

    Only rows that are new *to the snapshot* can be new to the census, so
    the candidates are exactly the delta's ``added`` rows plus the
    ``changed`` rows (a changed row can flip file↔dir, making an
    already-censused pid new to the file- or dir-specific census).
    """
    cand_pid = np.concatenate(
        [delta.added["path_id"], delta.changed_cur["path_id"]]
    )
    cand_gid = np.concatenate([delta.added["gid"], delta.changed_cur["gid"]])
    cand_uid = np.concatenate([delta.added["uid"], delta.changed_cur["uid"]])
    cand_dir = np.concatenate([delta.added_is_dir, delta.changed_is_dir])
    pid, gid, uid, is_dir = _merge_first_seen(
        state.pid,
        (state.gid, state.uid, state.is_dir),
        cand_pid,
        (cand_gid, cand_uid, cand_dir),
    )
    fmask = ~cand_dir
    file_pid, file_gid = _merge_first_seen(
        state.file_pid, (state.file_gid,), cand_pid[fmask], (cand_gid[fmask],)
    )
    dir_pid, dir_gid = _merge_first_seen(
        state.dir_pid, (state.dir_gid,), cand_pid[cand_dir], (cand_gid[cand_dir],)
    )
    return RowCensus(
        pid=pid,
        gid=gid,
        uid=uid,
        is_dir=is_dir,
        file_pid=file_pid,
        file_gid=file_gid,
        dir_pid=dir_pid,
        dir_gid=dir_gid,
    )


def rows_kernel() -> Kernel:
    """The shared census kernel (name ``"rows"``); safe to register from
    several analyses at once — fused runs dedupe it by name *and* the
    engine shares its single map evaluation per snapshot.

    Delta-capable: the kernel's state *is* the :class:`RowCensus` (the
    reduce result), and ``update`` folds one snapshot's delta sidecar into
    it under the first-seen rule, so appending snapshot N+1 to an analyzed
    archive costs O(|delta|) instead of O(namespace)."""
    return Kernel(
        name=ROWS_KERNEL,
        map_fn=_map_rows,
        reduce_fn=_reduce_rows,
        update_fn=_update_rows,
    )
