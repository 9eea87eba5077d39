"""Delta sidecar (.rpd): exactness, roundtrip, interning order."""

import numpy as np
import pytest

from repro.fs.filesystem import FileSystem
from repro.scan.columnar import read_columnar, write_columnar
from repro.scan.delta import (
    apply_delta,
    compute_delta,
    read_delta,
    sidecar_path,
    write_delta,
)
from repro.scan.errors import CorruptSnapshotError
from repro.scan.lustredu import LustreDuScanner
from repro.scan.paths import PathTable
from repro.scan.snapshot import NUMERIC_COLUMNS


@pytest.fixture
def two_weeks():
    """Two snapshots with adds, deletes, reads, writes, and a chown."""
    fs = FileSystem(ost_count=64, default_stripe=4, max_stripe=32)
    d = fs.makedirs("/lustre/proj/a", uid=100, gid=200)
    inos = fs.create_many(d, [f"f{i}" for i in range(12)], 100, 200,
                          timestamps=fs.clock.now)
    scanner = LustreDuScanner()
    prev = scanner.scan(fs, label="w1")
    fs.clock.advance_days(7)
    fs.unlink_many(d, ["f0", "f1"])              # removed
    fs.create_many(d, ["g0", "g1", "g2"], 100, 200,
                   timestamps=fs.clock.now)       # added
    fs.read_many(inos[2:5], fs.clock.now)         # atime-only change
    fs.write_many(inos[5:7], fs.clock.now)        # mtime/ctime change
    fs.chown(int(inos[7]), uid=101, gid=201)      # ownership change
    cur = scanner.scan(fs, label="w2")
    return fs, scanner, prev, cur


def test_compute_delta_sections(two_weeks):
    _, _, prev, cur = two_weeks
    delta = compute_delta(prev, cur)
    names = prev.paths.path_of
    added = sorted(map(names, delta.added["path_id"]))
    removed = sorted(map(names, delta.removed["path_id"]))
    assert added == ["/lustre/proj/a/g0", "/lustre/proj/a/g1", "/lustre/proj/a/g2"]
    assert removed == ["/lustre/proj/a/f0", "/lustre/proj/a/f1"]
    changed = set(map(names, delta.changed_prev["path_id"]))
    # 3 reads + 2 writes + 1 chown touch files; the parent dir's mtime
    # moved too (creates/unlinks bump it)
    assert {f"/lustre/proj/a/f{i}" for i in range(2, 8)} <= changed
    assert delta.prev_files == 12 and delta.cur_files == 13
    assert np.array_equal(
        delta.changed_prev["path_id"], delta.changed_cur["path_id"]
    )


def test_apply_delta_reconstructs_exactly(two_weeks):
    _, _, prev, cur = two_weeks
    rebuilt = apply_delta(prev, compute_delta(prev, cur))
    for name in NUMERIC_COLUMNS:
        assert np.array_equal(getattr(rebuilt, name), getattr(cur, name)), name


def test_roundtrip_through_disk(two_weeks, tmp_path):
    _, _, prev, cur = two_weeks
    delta = compute_delta(prev, cur)
    dest = sidecar_path(tmp_path, cur.label)
    stats = write_delta(delta, dest)
    assert stats["stored_bytes"] == dest.stat().st_size
    table = PathTable()
    # reader tables are built by loading snapshots in order
    for snap in (prev,):
        write_columnar(snap, tmp_path / f"{snap.label}.rpq")
        read_columnar(tmp_path / f"{snap.label}.rpq", table)
    got = read_delta(dest, table)
    assert got.prev_label == "w1" and got.cur_label == "w2"
    for section in ("added", "removed", "changed_prev", "changed_cur"):
        mine = getattr(delta, section)
        theirs = getattr(got, section)
        strings_mine = prev.paths.paths_of(mine["path_id"])
        strings_theirs = table.paths_of(theirs["path_id"])
        assert strings_mine == strings_theirs, section
        for name in NUMERIC_COLUMNS:
            if name == "path_id":
                continue
            assert np.array_equal(mine[name], theirs[name]), (section, name)


def test_delta_interning_matches_full_load(two_weeks, tmp_path):
    """Replaying prev.rpq + delta allocates the ids a full load would."""
    _, _, prev, cur = two_weeks
    write_columnar(prev, tmp_path / "w1.rpq")
    write_columnar(cur, tmp_path / "w2.rpq")
    write_delta(compute_delta(prev, cur), sidecar_path(tmp_path, "w2"))

    full = PathTable()
    read_columnar(tmp_path / "w1.rpq", full)
    read_columnar(tmp_path / "w2.rpq", full)

    incremental = PathTable()
    loaded_prev = read_columnar(tmp_path / "w1.rpq", incremental)
    delta = read_delta(sidecar_path(tmp_path, "w2"), incremental)
    # identical id assignment
    assert incremental.paths_of(range(len(incremental))) == \
        full.paths_of(range(len(full)))

    rebuilt = apply_delta(loaded_prev, delta)
    reread = read_columnar(tmp_path / "w2.rpq", PathTable())
    assert len(rebuilt) == len(reread)


def test_read_delta_rejects_corruption(two_weeks, tmp_path):
    _, _, prev, cur = two_weeks
    dest = sidecar_path(tmp_path, "w2")
    write_delta(compute_delta(prev, cur), dest)
    data = bytearray(dest.read_bytes())
    data[len(data) // 2] ^= 0xFF
    dest.write_bytes(bytes(data))
    with pytest.raises(CorruptSnapshotError):
        read_delta(dest, PathTable())


def test_read_delta_rejects_plain_snapshot(two_weeks, tmp_path):
    _, _, prev, _ = two_weeks
    write_columnar(prev, tmp_path / "w1.rpq")
    with pytest.raises(CorruptSnapshotError, match="delta"):
        read_delta(tmp_path / "w1.rpq", PathTable())
