import io

import numpy as np
import pytest

from repro.fs.filesystem import FileSystem
from repro.ingest import IngestConfig, ingest_file
from repro.scan.columnar import describe_sections, read_columnar, write_columnar
from repro.scan.lustredu import LustreDuScanner
from repro.scan.paths import PathTable
from repro.scan.psv import format_record, write_psv
from repro.scan.snapshot import NUMERIC_COLUMNS


@pytest.fixture
def fs():
    fs = FileSystem(ost_count=64, default_stripe=4, max_stripe=32)
    d = fs.makedirs("/lustre/atlas1/cli/cli001/user1", uid=100, gid=200)
    fs.create_many(d, [f"out.{i}.nc" for i in range(20)], 100, 200,
                   timestamps=fs.clock.now)
    d2 = fs.makedirs("/lustre/atlas1/bio/bio001/user2", uid=101, gid=201)
    fs.setstripe(d2, 8)
    fs.create(d2, "dock.pdbqt", uid=101, gid=201)
    return fs


def test_scan_captures_every_entry(fs):
    scanner = LustreDuScanner()
    snap = scanner.scan(fs)
    assert len(snap) == fs.entry_count - 1  # root not exported
    assert snap.n_files == 21
    assert snap.n_dirs == fs.directory_count - 1


def test_scan_columns_match_stat(fs):
    scanner = LustreDuScanner()
    snap = scanner.scan(fs)
    target = fs.namespace.lookup("/lustre/atlas1/bio/bio001/user2/dock.pdbqt")
    row = np.flatnonzero(snap.ino == target)[0]
    st = fs.stat(target)
    assert snap.uid[row] == st["uid"]
    assert snap.gid[row] == st["gid"]
    assert snap.mtime[row] == st["mtime"]
    assert snap.stripe_count[row] == 8
    assert snap.paths.path_of(int(snap.path_id[row])) == st["path"]


def test_scan_depth_equals_walk_depth(fs):
    """The scanner interns by separator count; the walk tracks depth as it
    descends — the two agree on every entry, since names hold no "/"."""
    fs.create(fs.namespace.lookup("/lustre/atlas1/cli/cli001/user1"),
              ".hidden", uid=100, gid=200)
    scanner = LustreDuScanner()
    snap = scanner.scan(fs)
    table = scanner.paths
    scanned = {table.path_of(int(pid)): int(table.depth[pid])
               for pid in snap.path_id}
    walked = {path: depth for _, path, depth in fs.namespace.walk()}
    assert scanned == walked


def test_scan_stats_recorded(fs):
    scanner = LustreDuScanner()
    scanner.scan(fs, label="w1")
    assert len(scanner.history) == 1
    stats = scanner.history[0]
    assert stats.label == "w1"
    assert stats.entries == len(scanner.paths) if stats.entries else True
    assert stats.psv_bytes > 0
    assert stats.files == 21


def test_scan_reuses_path_table_across_weeks(fs):
    scanner = LustreDuScanner()
    s1 = scanner.scan(fs, label="w1")
    fs.clock.advance_days(7)
    s2 = scanner.scan(fs, label="w2")
    # same namespace → identical interned ids
    assert np.array_equal(s1.path_id, s2.path_id)


def test_format_record_matches_figure2_shape():
    line = format_record(
        "/proj/user/f.00000245", 1478274632, 1471400961, 1471400961,
        13133, 2329, 0o100664, 1073636389, 755, 4, 2016, False,
    )
    fields = line.split("|")
    assert len(fields) == 9
    assert fields[0] == "/proj/user/f.00000245"
    assert fields[6] == "100664"
    osts = fields[8].split(",")
    assert len(osts) == 4
    assert osts[0].startswith("755:")


def test_format_record_directory_has_empty_ost():
    line = format_record("/proj", 1, 2, 3, 0, 0, 0o40775, 7, 0, 0, 2016, True)
    assert line.endswith("|")


def _ingest(src, out):
    """Read a PSV file back the one supported way, through ``repro.ingest``
    (``raise``: a record the validator rejects fails the test)."""
    stats = ingest_file(src, out, IngestConfig(on_error="raise"))
    return read_columnar(out / stats.output, PathTable())


def test_psv_round_trip(tmp_path, fs):
    scanner = LustreDuScanner()
    snap = scanner.scan(fs, label="w1")
    buf = io.StringIO()
    nbytes = write_psv(snap, buf, ost_count=fs.osts.ost_count)
    assert nbytes == len(buf.getvalue())
    src = tmp_path / "w1.psv"
    src.write_text(buf.getvalue(), encoding="utf-8")
    snap2 = _ingest(src, tmp_path / "out")
    assert len(snap2) == len(snap)
    assert sorted(snap2.path_strings()) == sorted(snap.path_strings())
    # numeric columns identical after aligning by path string
    order1 = np.argsort(np.array(snap.path_strings()))
    order2 = np.argsort(np.array(snap2.path_strings()))
    for col in ("uid", "gid", "atime", "mtime", "ctime", "ino"):
        assert (getattr(snap, col)[order1] == getattr(snap2, col)[order2]).all()
    # stripe geometry preserved for files (dirs read back as 0)
    assert (snap2.stripe_count[order2] == snap.stripe_count[order1]).all()


def test_psv_file_round_trip(tmp_path, fs):
    scanner = LustreDuScanner()
    snap = scanner.scan(fs)
    dest = tmp_path / "snap.psv"
    write_psv(snap, dest)
    snap2 = _ingest(dest, tmp_path / "out")
    assert len(snap2) == len(snap)


def test_columnar_round_trip(tmp_path, fs):
    scanner = LustreDuScanner()
    snap = scanner.scan(fs, label="w1")
    dest = tmp_path / "snap.rpq"
    stats = write_columnar(snap, dest)
    # numeric columns are stored raw (mmap-able), only the path table is
    # compressed, and the reported size is the file's
    assert stats["stored_bytes"] == dest.stat().st_size
    stored = {name: length for name, _, length in describe_sections(dest)}
    path_bytes = len("\n".join(snap.path_strings()).encode("utf-8"))
    assert stored["column:__paths__"] < path_bytes
    for name in NUMERIC_COLUMNS:
        if name != "path_id":
            assert stored[f"column:{name}"] == getattr(snap, name).nbytes
    table2 = PathTable()
    snap2 = read_columnar(dest, table2)
    assert snap2.label == "w1"
    assert len(snap2) == len(snap)
    s1 = sorted(zip(snap.path_strings(), snap.uid.tolist(), snap.mtime.tolist()))
    s2 = sorted(zip(snap2.path_strings(), snap2.uid.tolist(), snap2.mtime.tolist()))
    assert s1 == s2
    for name in NUMERIC_COLUMNS:
        assert getattr(snap2, name).dtype == getattr(snap, name).dtype


def test_columnar_rejects_corrupt_file(tmp_path, fs):
    scanner = LustreDuScanner()
    snap = scanner.scan(fs)
    dest = tmp_path / "snap.rpq"
    write_columnar(snap, dest)
    blob = bytearray(dest.read_bytes())
    blob[-1] ^= 0xFF  # corrupt the path table block
    dest.write_bytes(bytes(blob))
    with pytest.raises(IOError):
        read_columnar(dest, PathTable())


def test_columnar_rejects_wrong_magic(tmp_path):
    dest = tmp_path / "bogus.rpq"
    dest.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(IOError):
        read_columnar(dest, PathTable())


def test_columnar_compression_beats_psv(tmp_path, fs):
    """The paper's Parquet argument: columnar+compressed < raw PSV text."""
    scanner = LustreDuScanner()
    snap = scanner.scan(fs)
    psv_dest = tmp_path / "snap.psv"
    write_psv(snap, psv_dest)
    col_dest = tmp_path / "snap.rpq"
    write_columnar(snap, col_dest)
    assert col_dest.stat().st_size < psv_dest.stat().st_size
