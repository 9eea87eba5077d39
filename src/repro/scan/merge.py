"""Validating merge of per-shard scan parts into one publishable archive.

A sharded simulation leaves ``parts/shard-XXXX/<label>.rpq`` files behind
— one namespace slice per shard per scan week, each written by
:func:`write_shard_part` with the shard scanner's own path ids beside its
rows.  This module reassembles them into the archive the analyses
consume, with the same fencing the rest of the pipeline uses:

* **probe pass** — every part of every shard is fully checked (header,
  every block's CRC, the ``tree-zlib`` path block with NumPy over its
  inflated bytes, trailer, and a ``path_id`` block of strictly increasing
  shard-local ids) *before* any merged file is written; a corrupt or
  missing part either raises the usual typed
  :class:`~repro.scan.errors.CorruptSnapshotError` or, under
  ``skip``/``quarantine``, drops that whole shard from the merge and
  records the fault in the :class:`~repro.scan.store.ArchiveHealthReport`
  (a shard is merged for *all* weeks or none — a partially merged shard
  would make week-over-week diffs silently wrong);
* **merge pass** — the merge interns no path string.  It reads each part
  as arrays and keys every row by a merged path id, handed out the first
  time any shard holds the path, in (week, shard, shard-local id) order —
  the order a path table interning the parts week by week, shard by
  shard, would hand out.  A shard's own ids name its paths across weeks,
  so only a path two shards may both hold needs matching: the children of
  a directory that two shards have reached are matched by (parent, name)
  against every name any shard has ever held (:class:`_MergedPaths`), as
  are the full paths a part stores for rows whose parent lies outside it.
  Per week, part rows are concatenated in shard order with each shard's
  ``ino`` column offset by ``shard * INO_STRIDE`` (the per-shard inode
  allocators all start from the same base), stably sorted by merged path
  id, and deduplicated keep-first (of each shared directory, the row of
  the lowest merged shard survives);
* **manifest fencing** — all merged ``.rpq`` files and ``.rpd`` delta
  sidecars are written (atomically, each week's pair by
  :func:`~repro.scan.delta.write_week`, whose sections are set algebra on
  merged path ids and whose path blocks are fed from the parts' name
  bytes) first, the generation-bumped manifest last, so a merge killed
  midway is invisible to generation-fenced readers, exactly like a torn
  publish.  The caller writes the archive's ``accounts.json`` member
  before the merge and passes its record in; the merged manifest lists
  it (this module never builds a population).

Everything here is deterministic in the part bytes, so the merged archive
is byte-identical no matter how the parts were produced (worker count,
order, crash/restart history).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.manifest import write_manifest
from repro.scan.columnar import (
    PATH_CHUNK_CHARS,
    raw_block,
    read_tree_columns,
    snapshot_file,
    write_block_files,
)
from repro.scan.delta import delta_config, write_week
from repro.scan.errors import CorruptSnapshotError
from repro.scan.snapshot import NUMERIC_COLUMNS, Snapshot
from repro.scan.store import ArchiveHealthReport, SnapshotFault

#: Subdirectory (under the merged archive) holding the per-shard parts.
PARTS_DIRNAME = "parts"

#: Per-shard inode-number offset: shard ``s``'s inodes live in
#: ``[s * INO_STRIDE, (s+1) * INO_STRIDE)`` after the merge.  2^40 inodes
#: per shard is comfortably beyond any simulated namespace.
INO_STRIDE = 1 << 40

#: Layout of a shard part: bumped when a part gains or changes a block
#: (2: the ``path_id`` block of shard-local ids).  Shard journals carry it,
#: so parts an older build wrote are re-simulated, not merged.
PART_FORMAT = 2

#: Block of a shard part holding the shard scanner's path id of each row.
PART_IDS = "path_id"

#: Directory strings :meth:`_MergedPaths.tree_names` keeps at a time.
_KNOWN_DIRS = 1 << 12

#: Rows :meth:`_MergedPaths.tree_names` cuts into slices at a time.
_ROWS = 1 << 16

_NEWLINE = 0x0A


def shard_dir(parts_root: str | Path, shard: int) -> Path:
    return Path(parts_root) / f"shard-{shard:04d}"


def shard_part_path(parts_root: str | Path, shard: int, label: str) -> Path:
    return shard_dir(parts_root, shard) / f"{label}.rpq"


def write_shard_part(snapshot: Snapshot, dest: str | Path) -> dict:
    """Write one shard part (atomically); returns its size statistics.

    The part is :func:`~repro.scan.columnar.write_columnar`'s file plus a
    ``raw`` :data:`PART_IDS` block: ``snapshot.path_id``, the shard
    scanner's own ids, which name the same path in every week of the
    shard.  Only the merge reads that block; every snapshot reader
    ignores it.
    """
    part = snapshot_file(snapshot, dest)
    ids = raw_block(PART_IDS, snapshot.path_id)
    return write_block_files([part._replace(encode=lambda: [*part.encode(), ids])])[0]


class _Part(NamedTuple):
    """One shard part as arrays: its header, numeric columns, shard-local
    path ids, parent rows and newline-joined names."""

    source: Path
    header: dict
    columns: dict[str, np.ndarray]
    ids: np.ndarray
    parents: np.ndarray
    names: bytes


def _read_part(source: Path) -> _Part:
    """Read and check one part (every check the probe runs)."""
    header, columns, (parents, names) = read_tree_columns(source)
    ids = columns.pop(PART_IDS, None)
    if ids is None:
        raise CorruptSnapshotError(
            source, f"shard part has no {PART_IDS!r} block of shard-local ids"
        )
    ids = ids.astype(np.int64, copy=False)
    if ids.size > 1 and not bool(np.all(ids[1:] > ids[:-1])):
        row = int(np.flatnonzero(ids[1:] <= ids[:-1])[0]) + 1
        raise CorruptSnapshotError(
            source,
            f"shard part {PART_IDS!r} block: id {int(ids[row])} at row {row} "
            "does not follow its predecessor (ids must be strictly increasing)",
        )
    return _Part(Path(source), header, columns, ids, parents, names)


def probe_shard_parts(
    parts_root: str | Path,
    labels: list[str],
    shards: list[int],
    *,
    on_error: str = "raise",
    report: ArchiveHealthReport | None = None,
) -> list[int]:
    """Check every shard part; returns the shards safe to merge.

    Each part is read as the merge reads it — every block CRC-checked,
    the path block checked with NumPy, the shard-local ids checked — and
    dropped.  Under ``on_error="raise"`` the first bad part raises its
    typed error.  Otherwise the owning shard is dropped wholesale and the
    fault recorded — corrupt bytes never reach the merged archive as
    garbage rows.
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
                _read_part(path)
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


class _MergedPaths:
    """The merge's one cross-week structure: merged path ids as a tree.

    A merged path id is handed out the first time any shard holds the
    path, in (week, shard, shard-local id) order, so sorting a week's
    rows by it gives the order a cross-week path table would give them.
    Each shard keeps only its ``local id -> merged id`` map; the tree is
    one parent id and one name per merged id, in flat arrays.  A name is
    its path's last component, or its full path when it has no parent
    path (``/lustre``, whose directory ``""`` no part holds).

    Whether a new path is one another shard holds is decided top down.  A
    row under a parent row is matched by ``(parent, name)`` only when its
    parent is *open*: reached by two shards, or on the way to a full path
    a part stored (a row whose parent lies outside its part).  Opening a
    directory enters all its children, from every shard and every earlier
    week, into :attr:`kids`, so a directory first shared in a later week
    still finds its earlier children; a full path is resolved through
    :attr:`kids` from the top, entering directories no part holds as
    *internal* nodes (negative tokens), which become paths when a part
    holds them.  Every other row is new where it is new to its shard.
    """

    def __init__(self, shards: list[int]) -> None:
        self._local = {s: np.empty(0, np.int64) for s in shards}
        self._merged = {s: np.empty(0, np.int64) for s in shards}
        # per merged id
        self.parent = np.empty(0, np.int64)  # parent merged id, -1 none
        self.opened = np.empty(0, bool)
        # every name ended by a newline, in id order: name ``g`` is
        # ``names[offsets[g] : offsets[g + 1] - 1]``
        self.names = b""
        self.offsets = np.zeros(1, np.int64)
        # (parent node, name) -> node, for the children of open nodes; a
        # node is a merged id, an internal token (<= -2) or -1 (the top)
        self.kids: dict[tuple[int, bytes], int] = {}
        self.internal: dict[int, tuple[int, bytes]] = {}  # -> (parent, name)
        self.promoted: dict[int, int] = {}  # internal token -> merged id
        self.node_of: dict[int, int] = {}  # merged id -> internal token

    def __len__(self) -> int:
        return int(self.parent.size)

    # -- ids -------------------------------------------------------------------

    def add(
        self, shard: int, ids: np.ndarray, parents: np.ndarray, names: bytes
    ) -> np.ndarray:
        """Merged ids of one part's rows; hands out ids to its new paths.

        Parts must come week by week and, within a week, in shard order.
        """
        rows = int(ids.size)
        text = np.frombuffer(names, dtype=np.uint8)
        breaks = np.flatnonzero(text == _NEWLINE)
        starts = np.concatenate(([0], breaks + 1))[:rows]
        ends = np.concatenate((breaks, [text.size]))[:rows]
        local, merged = self._local[shard], self._merged[shard]
        at = np.searchsorted(local, ids)
        known = at < local.size
        known[known] = local[at[known]] == ids[known]
        gid = np.full(rows, -1, np.int64)
        gid[known] = merged[at[known]]
        new = ~known
        token, misses = self._match(gid, new, parents, names, starts, ends)

        # new paths: one id per distinct internal node or unmatched row, in
        # row order (two rows of a part may name one internal node)
        fresh_rows = np.flatnonzero(new & (gid < 0))
        claim = np.where(token[fresh_rows] != -1, token[fresh_rows], fresh_rows)
        _, first, inverse = np.unique(claim, return_index=True, return_inverse=True)
        rank = np.empty(first.size, np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(first.size)
        gid[fresh_rows] = len(self) + rank[inverse]
        fresh = np.sort(fresh_rows[first])  # the row that names each new id
        promoted = [(int(token[r]), int(gid[r])) for r in fresh[token[fresh] != -1]]
        for node, path in promoted:
            self.promoted[node] = path
            self.node_of[path] = node
        self._grow(fresh, gid, parents, names, starts, ends, token)
        self.opened[[path for _, path in promoted]] = True
        for row, node, name in misses:
            self.kids.setdefault((node, name), int(gid[row]))

        if new.any():
            added = ids[new]
            local = np.concatenate((local, added))
            merged = np.concatenate((merged, gid[new]))
            if local.size > added.size and added[0] <= local[-added.size - 1]:
                order = np.argsort(local, kind="stable")
                local, merged = local[order], merged[order]
            self._local[shard], self._merged[shard] = local, merged
        return gid

    def _match(self, gid, new, parents, names, starts, ends):
        """Match a part's rows new to its shard against the paths other
        shards hold, filling their ``gid`` where one does.

        Rows with no parent row are resolved by their full path first;
        then, one level at a time, rows whose parent is open are looked up
        by ``(parent, name)``.  Returns each row's internal node (-1 for
        none) and the lookups that found nothing, ``(row, parent node,
        name)``, which :meth:`add` enters once the rows have ids.
        """
        rows = gid.size
        token = np.full(rows, -1, np.int64)
        hold = np.zeros(rows, bool)  # a new row whose children are matched
        misses: list[tuple[int, int, bytes]] = []

        def settle(row: int, node: int, matched: list[int]) -> None:
            path = self._path_of(node)
            if path >= 0:
                gid[row] = path
                matched.append(path)
            else:
                token[row] = node
            hold[row] = True

        matched: list[int] = []
        for row in np.flatnonzero(new & (parents < 0)).tolist():
            settle(row, self._resolve(names[starts[row] : ends[row]]), matched)
        self._open(matched)
        under = new & (parents >= 0)
        up = np.where(under, parents, 0)
        front = hold.copy()
        front[~new] = self.opened[gid[~new]]
        while True:
            wave = np.flatnonzero(under & front[up])
            if not wave.size:
                return token, misses
            under[wave] = False
            matched = []
            for row in wave.tolist():
                p = int(parents[row])
                node = int(token[p]) if token[p] != -1 else self._node(int(gid[p]))
                name = names[starts[row] : ends[row]]
                found = self.kids.get((node, name))
                if found is None:
                    misses.append((row, node, name))
                else:
                    settle(row, found, matched)
            self._open(matched)
            front = np.zeros(rows, bool)
            front[wave] = hold[wave]

    def _grow(self, fresh, gid, parents, names, starts, ends, token) -> None:
        """Append the tree entries of the new ids named by rows ``fresh``.

        Their names go to :attr:`names`: a run of new rows that follow each
        other in the part is one slice of its text.
        """
        count = fresh.size
        if not count:
            return
        up = parents[fresh]
        parent = np.where(up >= 0, gid[np.maximum(up, 0)], -1)
        length = (ends[fresh] - starts[fresh]).astype(np.int64)
        pieces: list[bytes] = []
        # a run ends where the next new row is not the part's next row, or
        # where a row with no parent row names a full path (its own piece)
        outside = up < 0
        cuts = np.flatnonzero(
            (fresh[1:] != fresh[:-1] + 1) | outside[1:] | outside[:-1]
        ) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), count]):
            row = int(fresh[lo])
            if not outside[lo]:
                pieces.append(names[starts[row] : ends[int(fresh[hi - 1])]] + b"\n")
                continue
            text = names[starts[row] : ends[row]]
            above, leaf = self.internal[int(token[row])]
            pid = self._path_of(above)
            parent[lo] = pid
            name = leaf if pid >= 0 else text
            length[lo] = len(name)
            pieces.append(name + b"\n")
        ends = len(self.names) + np.cumsum(length + 1)
        self.names += b"".join(pieces)
        self.offsets = np.concatenate((self.offsets, ends))
        self.parent = np.concatenate((self.parent, parent))
        self.opened = np.concatenate((self.opened, np.zeros(count, bool)))

    def _node(self, gid: int) -> int:
        return self.node_of.get(gid, gid)

    def _path_of(self, node: int) -> int:
        """The merged id of ``node``, -1 when it is not a path."""
        return node if node >= 0 else self.promoted.get(node, -1)

    def _name(self, gid: int) -> bytes:
        return self.names[int(self.offsets[gid]) : int(self.offsets[gid + 1]) - 1]

    def _open(self, gids: list[int]) -> None:
        """Open paths: enter every child any shard ever held in :attr:`kids`."""
        gids = [g for g in set(gids) if not self.opened[g]]
        if not gids:
            return
        self.opened[gids] = True
        for child in np.flatnonzero(np.isin(self.parent, gids)).tolist():
            up = int(self.parent[child])
            self.kids.setdefault((self._node(up), self._name(child)), self._node(child))

    def _resolve(self, path: bytes) -> int:
        """The node of a full path a part stored, entering every missing
        component as an internal node."""
        node = -1
        for name in path.split(b"/"):
            above = self._path_of(node)
            if above >= 0:
                self._open([above])
            child = self.kids.get((node, name))
            if child is None:
                child = -2 - len(self.internal)
                self.internal[child] = (node, name)
                self.kids[(node, name)] = child
            node = child
        return node

    # -- the tree-zlib encoder's source --------------------------------------------

    def parent_rows(self, ids: np.ndarray) -> np.ndarray:
        """For a block of ascending merged ids, the row of each row's parent
        path when that is an earlier row of the block, else -1 (int32)."""
        ids = np.asarray(ids, dtype=np.int64)
        up = self.parent[ids]
        at = np.searchsorted(ids, up)
        hit = (up >= 0) & (at < np.arange(ids.size))
        hit[hit] = ids[at[hit]] == up[hit]
        return np.where(hit, at, -1).astype(np.int32)

    def tree_names(self, ids: np.ndarray, parents: np.ndarray) -> Iterator[bytes]:
        """The names of a ``tree-zlib`` block over ``ids``, newline-joined,
        in chunks of about :data:`PATH_CHUNK_CHARS` bytes at most.

        A row under a parent row gives its own name, a row with no parent
        path its stored full path, and any other row its directory's text
        (built once per :data:`_KNOWN_DIRS` directories at most), a ``/``
        and its own name.  Rows of consecutive ids — that share a
        directory, when they give full paths — are one slice of
        :attr:`names`.
        """
        names = self.names
        view = memoryview(names)
        known: dict[int, bytes] = {}
        for lo in range(0, ids.size, _ROWS):
            gid = np.asarray(ids[lo : lo + _ROWS], dtype=np.int64)
            up = self.parent[gid]
            full = (parents[lo : lo + _ROWS] < 0) & (up >= 0)
            start, end = self.offsets[gid], self.offsets[gid + 1] - 1
            cuts = np.flatnonzero(
                (full[1:] != full[:-1])
                | (gid[1:] != gid[:-1] + 1)
                | (full[1:] & (up[1:] != up[:-1]))
            ) + 1
            if len(known) > _KNOWN_DIRS:
                known.clear()
            heads = {d: self._string(d, known) + b"/" for d in np.unique(up[full]).tolist()}
            pieces: list = [b""] if lo else []  # the newline ending the chunk before
            size = 0
            bounds = [0, *cuts.tolist(), gid.size]
            first, stop = start[bounds[:-1]].tolist(), end[np.array(bounds[1:]) - 1].tolist()
            dirs = np.where(full, up, -1)[bounds[:-1]].tolist()
            for a, b, d in zip(first, stop, dirs):
                if d < 0:
                    piece = view[a:b]
                else:  # each name in the slice after the directory's text
                    head = heads[d]
                    piece = head + names[a:b].replace(b"\n", b"\n" + head)
                pieces.append(piece)
                size += len(piece)
                if size >= PATH_CHUNK_CHARS:
                    yield b"\n".join(pieces)
                    pieces, size = [b""], 0
            if len(pieces) > 1 or not lo:
                yield b"\n".join(pieces)

    def _string(self, gid: int, known: dict[int, bytes]) -> bytes:
        """The full path of merged id ``gid``; ``known`` caches directories."""
        chain: list[int] = []
        node = gid
        while node >= 0 and node not in known:
            chain.append(node)
            node = int(self.parent[node])
        text = known.get(node) if node >= 0 else None
        for node in reversed(chain):
            name = self._name(node)
            text = name if text is None else text + b"/" + name
        known[gid] = text
        return text


def _merge_week(
    label: str,
    parts: list[_Part],
    merged_ids: list[np.ndarray],
    shards: list[int],
    paths: _MergedPaths,
) -> Snapshot:
    pid = np.concatenate(merged_ids)
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
    return Snapshot.from_columns(label, int(parts[0].header["timestamp"]), paths, columns)


def _concatenated(name: str, parts: list[_Part], shards: list[int]) -> np.ndarray:
    if name == "ino":
        return np.concatenate(
            [
                part.columns["ino"].astype(np.int64) + np.int64(shard) * INO_STRIDE
                for shard, part in zip(shards, parts)
            ]
        )
    return np.concatenate([part.columns[name] for part in parts])


def _read_week(label: str, sources: list[Path]) -> list[_Part]:
    parts = [_read_part(source) for source in sources]
    timestamp = parts[0].header["timestamp"]
    for part in parts:
        if part.header["label"] != label or part.header["timestamp"] != timestamp:
            raise CorruptSnapshotError(
                part.source,
                f"shard part disagrees with siblings "
                f"(label={part.header['label']!r}, "
                f"timestamp={part.header['timestamp']})",
            )
    return parts


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
    paths = _MergedPaths(merged_shards)
    prev: Snapshot | None = None
    records: list[dict] = []
    for label in labels:
        sources = [
            shard_part_path(parts_root, shard, label) for shard in merged_shards
        ]
        parts = _read_week(label, sources)
        merged_ids = [
            paths.add(shard, part.ids, part.parents, part.names)
            for shard, part in zip(merged_shards, parts)
        ]
        merged = _merge_week(label, parts, merged_ids, merged_shards, paths)
        del parts, merged_ids  # the week's parts are freed before it is written
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
