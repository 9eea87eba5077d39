"""The shard merge against a frozen copy of the table-based merge it replaced.

The merge keys every part row by a merged path id derived from the
shard scanners' own ids and interns no path string.  ``table_merge`` below
is the merge as it was before: every part re-interned into one cross-week
:class:`~repro.scan.paths.PathTable`, rows concatenated in shard order,
stably sorted by path id and deduplicated keep-first.  For any parts the
two must write byte-identical ``.rpq`` and ``.rpd`` files; crafted weeks
cover the cases where a merge keyed by shard-local ids could drift from
the table — a directory a second shard reaches only in a later week, a
path that leaves one shard for another, a path re-created after a gap, a
shard of structural rows only, an empty week, a dropped middle shard — and
hypothesis searches random ones, full paths of rows whose parent lies
outside their part included.
"""

from __future__ import annotations

import hashlib
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan import columnar
from repro.scan.columnar import read_columnar, write_columnar, write_columnar_blocks
from repro.scan.delta import write_week
from repro.scan.errors import CorruptSnapshotError
from repro.scan.merge import (
    INO_STRIDE,
    merge_shard_parts,
    probe_shard_parts,
    shard_part_path,
    write_shard_part,
)
from repro.scan.paths import PathTable
from repro.scan.snapshot import COLUMN_DTYPES, NUMERIC_COLUMNS, Snapshot
from repro.synth.driver import SimulationConfig
from repro.synth.sharding import run_sharded
from repro.testing.oracle import _split
from tests.synth.test_output_pins import SHARDED, SHARDED_DIGESTS


def table_merge(parts_root: Path, dest: Path, labels: list[str], shards: list[int]) -> None:
    """The table-based merge, frozen: parts read into one cross-week
    :class:`PathTable`, each week written by ``write_week``."""
    table = PathTable()
    prev = None
    dest.mkdir(parents=True, exist_ok=True)
    for label in labels:
        parts = [
            read_columnar(shard_part_path(parts_root, shard, label), table)
            for shard in shards
        ]
        pid = np.concatenate([p.path_id for p in parts])
        order = np.argsort(pid, kind="stable")
        pid = pid[order]
        keep = np.ones(len(pid), dtype=bool)
        keep[1:] = pid[1:] != pid[:-1]
        sel = order[keep]
        columns = {"path_id": pid[keep]}
        for name in NUMERIC_COLUMNS:
            if name == "ino":
                columns[name] = np.concatenate([
                    part.ino.astype(np.int64) + np.int64(shard) * INO_STRIDE
                    for shard, part in zip(shards, parts)
                ])[sel]
            elif name != "path_id":
                columns[name] = np.concatenate([getattr(p, name) for p in parts])[sel]
        merged = Snapshot.from_columns(label, int(parts[0].timestamp), table, columns)
        write_week(merged, prev, dest)
        prev = merged


def digests(directory: Path) -> dict[str, str]:
    files = sorted(directory.glob("*.rpq")) + sorted(directory.glob("*.rpd"))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


#: every path a crafted part may hold: the root, structural directories,
#: two domains' projects and their files
UNIVERSE = [
    "",
    "/lustre",
    "/lustre/atlas1",
    "/lustre/atlas1/phy",
    "/lustre/atlas1/phy/p1",
    "/lustre/atlas1/phy/p1/a.nc",
    "/lustre/atlas1/phy/p1/b.h5",
    "/lustre/atlas1/phy/p1/run",
    "/lustre/atlas1/phy/p1/run/out.0",
    "/lustre/atlas1/phy/p2",
    "/lustre/atlas1/phy/p2/c.dat",
    "/lustre/atlas1/cli",
    "/lustre/atlas1/cli/p3",
    "/lustre/atlas1/cli/p3/d.nc",
    "/lustre/atlas1/cli/p3/données.nc",
    "/lustre/atlas1/cli/p4",
    "/lustre/atlas1/cli/p4/日本.h5",
    "/lustre/atlas2",
    "/lustre/atlas2/bio",
    "/lustre/atlas2/bio/p5",
    "/lustre/atlas2/bio/p5/e.fa",
]
_DIRS = {p.rpartition("/")[0] for p in UNIVERSE}


def write_parts(root: Path, held: list[list[set[str]]]) -> list[str]:
    """``held[week][shard]``: the paths each shard holds each week, written
    as shard parts the way a shard worker writes them — one scanner table
    per shard across weeks, each week's paths interned in sorted order."""
    n_shards = len(held[0])
    tables = [PathTable() for _ in range(n_shards)]
    labels = [f"w{week}" for week in range(len(held))]
    for week, shards in enumerate(held):
        for shard, paths in enumerate(shards):
            order = sorted(paths)
            table = tables[shard]
            cols = {n: np.zeros(len(order), COLUMN_DTYPES[n]) for n in NUMERIC_COLUMNS}
            cols["path_id"] = table.intern_many(order)
            for row, path in enumerate(order):
                k = UNIVERSE.index(path)
                cols["ino"][row] = 100 * shard + k + 1
                cols["mode"][row] = 0o040775 if path in _DIRS else 0o100664
                cols["uid"][row] = 1000 + shard
                cols["gid"][row] = 2000 + k % 3
                # some rows change week to week, others stay
                cols["atime"][row] = 1_420_000_000 + week * 86_400 * (k % 2)
                cols["mtime"][row] = 1_420_000_000 + k
                cols["ctime"][row] = 1_420_000_000 + week * (k % 3)
                cols["stripe_count"][row] = 1 + k % 4
            snap = Snapshot.from_columns(labels[week], 1_420_000_000 + week * 604_800,
                                         table, cols)
            path = shard_part_path(root, shard, labels[week])
            path.parent.mkdir(parents=True, exist_ok=True)
            write_shard_part(snap, path)
    return labels


def assert_merges_agree(tmp: Path, held, shards=None) -> dict[str, str]:
    parts = tmp / "parts"
    labels = write_parts(parts, held)
    shards = list(range(len(held[0]))) if shards is None else shards
    merge_shard_parts(parts, tmp / "new", SimulationConfig(), labels, shards)
    table_merge(parts, tmp / "old", labels, shards)
    new, old = digests(tmp / "new"), digests(tmp / "old")
    assert new == old
    return new


_STRUCT = {"/lustre", "/lustre/atlas1"}
_PHY = _STRUCT | {"/lustre/atlas1/phy", "/lustre/atlas1/phy/p1",
                  "/lustre/atlas1/phy/p1/a.nc", "/lustre/atlas1/phy/p1/run"}
_CLI = _STRUCT | {"/lustre/atlas1/cli", "/lustre/atlas1/cli/p3",
                  "/lustre/atlas1/cli/p3/d.nc"}

CASES = {
    # shard 1 reaches phy only in week 2, where shard 0 has held p1 and
    # its files since week 0; shard 1 also holds p1 and a child of its own
    "directory-shared-late": [
        [_PHY, _CLI],
        [_PHY | {"/lustre/atlas1/phy/p1/b.h5"}, _CLI],
        [_PHY, _CLI | {"/lustre/atlas1/phy", "/lustre/atlas1/phy/p1",
                       "/lustre/atlas1/phy/p2", "/lustre/atlas1/phy/p2/c.dat"}],
    ],
    # a.nc leaves shard 0 after week 0 and appears in shard 1 in week 1
    "path-moves-shards": [
        [_PHY, _CLI],
        [_PHY - {"/lustre/atlas1/phy/p1/a.nc"},
         _CLI | {"/lustre/atlas1/phy", "/lustre/atlas1/phy/p1", "/lustre/atlas1/phy/p1/a.nc"}],
    ],
    # run/ and its file go in week 1 and come back in week 2
    "recreated-after-gap": [
        [_PHY | {"/lustre/atlas1/phy/p1/run/out.0"}, _CLI],
        [_PHY - {"/lustre/atlas1/phy/p1/run"}, _CLI],
        [_PHY | {"/lustre/atlas1/phy/p1/run/out.0"}, _CLI],
    ],
    "structural-only-shard": [
        [_PHY, _STRUCT, _CLI],
        [_PHY, _STRUCT, _CLI | {"/lustre/atlas1/cli/p4"}],
    ],
    "empty-week": [
        [_PHY, _CLI],
        [set(), set()],
        [_PHY, set()],
        [_PHY, _CLI],
    ],
    # full paths: rows whose parent is no earlier row of their part, and
    # the root "" held in a later week (the merge's top directory becomes
    # a path)
    "outside-rows": [
        [{"/lustre/atlas1/phy/p1/a.nc", "/lustre/atlas1/cli"},
         {"/lustre/atlas1", "/lustre/atlas1/cli/p3/d.nc"}],
        [{"", "/lustre", "/lustre/atlas1/phy/p1/a.nc", "/lustre/atlas1/phy/p1"},
         _CLI],
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_merge_equals_the_table_merge(tmp_path, case):
    assert_merges_agree(tmp_path, CASES[case])


def test_a_dropped_middle_shard_merges_as_the_table_merge(tmp_path):
    held = [[_PHY, _CLI, _PHY | _CLI], [_PHY, _STRUCT, _CLI]]
    got = assert_merges_agree(tmp_path, held, shards=[0, 2])
    assert got != assert_merges_agree(tmp_path / "all", held)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n_shards=st.integers(1, 4),
    n_weeks=st.integers(1, 4),
)
def test_random_parts_merge_as_the_table_merge(tmp_path_factory, data, n_shards, n_weeks):
    held = [
        [data.draw(st.sets(st.sampled_from(UNIVERSE), max_size=len(UNIVERSE)))
         for _ in range(n_shards)]
        for _ in range(n_weeks)
    ]
    shards = list(range(n_shards))
    if n_shards > 2 and data.draw(st.booleans()):
        del shards[data.draw(st.integers(1, n_shards - 2))]
    assert_merges_agree(tmp_path_factory.mktemp("merge"), held, shards)


def test_the_merge_interns_no_path(tmp_path, monkeypatch):
    """With interning and the eager reader refused, the merge of the
    pinned 2-shard run still writes its pinned bytes."""
    run_sharded(SHARDED, 2, tmp_path / "run", workers=0)
    labels = sorted(p.stem for p in (tmp_path / "run").glob("*.rpq"))

    def refuse(*args, **kwargs):
        raise AssertionError("the merge interned a path")

    monkeypatch.setattr(PathTable, "intern_rows", refuse)
    monkeypatch.setattr(columnar, "read_columnar", refuse)
    merge_shard_parts(tmp_path / "run" / "parts", tmp_path / "merged", SHARDED,
                      labels, [0, 1])
    want = {k: v for k, v in SHARDED_DIGESTS.items() if k != "accounts.json"}
    assert digests(tmp_path / "merged") == want


# -- the probe refuses parts without usable shard-local ids ---------------------


def _part(tmp_path: Path) -> Path:
    write_parts(tmp_path / "parts", [[_PHY]])
    return shard_part_path(tmp_path / "parts", 0, "w0")


def test_probe_refuses_a_part_without_ids(tmp_path):
    """A part as builds before the id block wrote it — the snapshot file
    alone — is refused typed, naming the block."""
    part = _part(tmp_path)
    write_columnar(read_columnar(part, PathTable()), part)
    with pytest.raises(CorruptSnapshotError, match="no 'path_id' block") as err:
        probe_shard_parts(tmp_path / "parts", ["w0"], [0])
    assert err.value.path == str(part)


def test_probe_refuses_ids_out_of_order(tmp_path):
    """Shard-local ids that are not strictly increasing are refused typed,
    every CRC valid."""
    part = _part(tmp_path)
    blob = part.read_bytes()
    header, base = _split(blob)
    blocks = []
    for meta in header["columns"]:
        start = base + meta.pop("offset")
        data = blob[start : start + meta["stored_bytes"]]
        if meta["name"] == "path_id":
            ids = np.frombuffer(data, dtype=np.int64).copy()
            ids[2] = ids[1]
            data = ids.tobytes()
            meta["crc32"] = zlib.crc32(data)
        blocks.append((data, meta))
    write_columnar_blocks(part, header["label"], header["timestamp"], header["rows"], blocks)
    with pytest.raises(CorruptSnapshotError, match="strictly increasing") as err:
        probe_shard_parts(tmp_path / "parts", ["w0"], [0])
    assert err.value.path == str(part)
