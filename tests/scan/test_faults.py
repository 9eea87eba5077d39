"""Exhaustive corruption sweep over the columnar format.

The hardened read path's contract: *any* truncation and *any* single-byte
corruption of a ``.rpq`` file surfaces as a typed
:class:`~repro.scan.errors.CorruptSnapshotError` carrying the file, offset,
and reason — never a cryptic decoder exception, never silently wrong
arrays.  This suite sweeps every section boundary (truncation) and every
section (bit flips) enumerated by the fault harness, plus the legacy
version-1 layout, which must stay readable.
"""

import json
import shutil
import zlib

import numpy as np
import pytest

from repro.scan.columnar import (
    MAGIC_V1,
    MAGIC_V2,
    MAGIC_V3,
    _encode_column,
    describe_sections,
    open_columnar,
    path_block_meta,
    read_columnar,
    read_columnar_header,
    write_columnar,
    write_columnar_blocks,
)
from repro.scan.errors import CorruptSnapshotError
from repro.scan.paths import PathTable
from repro.scan.snapshot import COLUMN_DTYPES, NUMERIC_COLUMNS, Snapshot
from repro.testing.faults import (
    FlakyReader,
    bit_flip,
    block_edges,
    corruption_points,
    padding_spans,
    truncate_at,
)


def _row(pid, **over):
    base = {
        "path_id": pid,
        "ino": 7,
        "mode": 0o100664,
        "uid": 1,
        "gid": 2,
        "atime": 1_420_000_000,
        "mtime": 1_420_000_500,
        "ctime": 1_420_000_900,
        "stripe_count": 4,
        "stripe_start": 0,
    }
    base.update(over)
    return base


def _make_snapshot(n_rows: int = 5) -> Snapshot:
    paths = PathTable()
    rows = [
        _row(
            paths.intern(f"/lustre/atlas1/phy/p1/run.{i}"),
            ino=100 + i,
            atime=1_420_000_000 + i * 3600,
        )
        for i in range(n_rows)
    ]
    columns = {
        name: np.array([r[name] for r in rows], dtype=COLUMN_DTYPES[name])
        for name in NUMERIC_COLUMNS
    }
    return Snapshot(label="w0", timestamp=1000, paths=paths, **columns)


@pytest.fixture(params=[2, 3], ids=["v2", "v3"])
def valid_rpq(tmp_path, request):
    snap = _make_snapshot()
    dest = tmp_path / "w0.rpq"
    write_columnar(snap, dest, format_version=request.param)
    return dest, snap


# -- sweep: truncation at every boundary ------------------------------------


def test_truncation_sweep_every_boundary(valid_rpq, tmp_path):
    """Truncating at (or inside) every section always raises typed."""
    dest, _ = valid_rpq
    points = set()
    for _, offset, length in corruption_points(dest):
        points.add(offset)                      # section start
        points.add(offset + max(1, length) // 2)  # mid-section
    points.add(0)  # empty file
    size = dest.stat().st_size
    for offset in sorted(p for p in points if p < size):
        victim = tmp_path / "trunc.rpq"
        shutil.copy(dest, victim)
        truncate_at(victim, offset)
        with pytest.raises(CorruptSnapshotError) as err:
            read_columnar_header(victim)
        assert err.value.path == str(victim)
        assert err.value.reason
        # the full read must fail identically-typed, never return data
        with pytest.raises(CorruptSnapshotError):
            read_columnar(victim, PathTable())


def test_bitflip_sweep_every_section(valid_rpq, tmp_path):
    """One flipped bit anywhere in the file always raises typed."""
    dest, _ = valid_rpq
    for name, offset, length in corruption_points(dest):
        for point in {offset, offset + max(1, length) // 2,
                      offset + max(1, length) - 1}:
            victim = tmp_path / "flip.rpq"
            shutil.copy(dest, victim)
            bit_flip(victim, point, bit=3)
            with pytest.raises(CorruptSnapshotError) as err:
                read_columnar(victim, PathTable())
            assert err.value.path == str(victim), f"section {name} @{point}"
            assert err.value.reason


def test_bitflip_sweep_lazy_reads(valid_rpq, tmp_path):
    """The lazy (mmap-backed for v3) path surfaces the same typed errors:
    corruption is caught at open time (header/trailer/path table) or on the
    first touch of the flipped column — never returned as silent data."""
    dest, _ = valid_rpq
    for name, offset, length in corruption_points(dest):
        victim = tmp_path / "flip.rpq"
        shutil.copy(dest, victim)
        bit_flip(victim, offset + max(1, length) // 2, bit=3)
        seen = []
        with pytest.raises(CorruptSnapshotError) as err:
            snap = open_columnar(victim, PathTable(), on_corrupt=seen.append)
            for col in NUMERIC_COLUMNS:
                np.asarray(getattr(snap, col))
        assert err.value.path == str(victim), f"section {name}"
        # a lazy-touch failure also fired the quarantine hook
        if seen:
            assert seen[0] is err.value


def test_truncation_sweep_lazy_reads(valid_rpq, tmp_path):
    """Truncation always fails at open — the lazy reader validates the
    trailer before handing out any view."""
    dest, _ = valid_rpq
    for _, offset, length in corruption_points(dest):
        victim = tmp_path / "trunc.rpq"
        shutil.copy(dest, victim)
        truncate_at(victim, offset + max(1, length) // 2)
        with pytest.raises(CorruptSnapshotError):
            open_columnar(victim, PathTable())


def test_bitflip_at_exact_block_edges_raises_typed(valid_rpq, tmp_path):
    """The first and last stored byte of every block — for v3, the bytes
    adjacent to alignment padding — are covered by a CRC: an off-by-one in
    the offset bookkeeping cannot slip a flipped boundary byte through."""
    dest, _ = valid_rpq
    for name, first, last in block_edges(dest):
        for point in {first, last}:
            victim = tmp_path / "edge.rpq"
            shutil.copy(dest, victim)
            bit_flip(victim, point, bit=6)
            with pytest.raises(CorruptSnapshotError):
                read_columnar(victim, PathTable())
            victim2 = tmp_path / "edge_lazy.rpq"
            shutil.copy(dest, victim2)
            bit_flip(victim2, point, bit=6)
            with pytest.raises(CorruptSnapshotError):
                snap = open_columnar(victim2, PathTable())
                for col in NUMERIC_COLUMNS:
                    np.asarray(getattr(snap, col))


def test_v3_padding_flips_are_data_free(valid_rpq, tmp_path):
    """Flipping any byte of v3's alignment padding leaves every decoded
    value byte-identical — the sweep's only blind spots carry no data.
    Truncating *inside* a pad still fails typed via the trailer length."""
    dest, snap = valid_rpq
    spans = padding_spans(dest)
    if dest.read_bytes()[:4] != MAGIC_V3:
        assert spans == []
        return
    assert spans, "v3 file with no alignment padding"
    pristine = read_columnar(dest, PathTable())
    for offset, length in spans:
        victim = tmp_path / "pad.rpq"
        shutil.copy(dest, victim)
        bit_flip(victim, offset + length // 2, bit=1)
        loaded = read_columnar(victim, PathTable())
        for col in NUMERIC_COLUMNS:
            np.testing.assert_array_equal(
                getattr(loaded, col), getattr(pristine, col)
            )
        assert loaded.path_strings() == pristine.path_strings()
        trunc = tmp_path / "pad_trunc.rpq"
        shutil.copy(dest, trunc)
        truncate_at(trunc, offset + length // 2)
        with pytest.raises(CorruptSnapshotError):
            open_columnar(trunc, PathTable())


def test_header_level_faults_caught_before_data(valid_rpq, tmp_path):
    """Header/trailer corruption is rejected by the cheap header read alone
    (what DiskSnapshotCollection's construction-time verify relies on)."""
    dest, _ = valid_rpq
    for name, offset, length in corruption_points(dest):
        if name.startswith("column:"):
            continue
        victim = tmp_path / "hdr.rpq"
        shutil.copy(dest, victim)
        bit_flip(victim, offset + max(1, length) // 2)
        with pytest.raises(CorruptSnapshotError):
            read_columnar_header(victim)


def test_empty_and_tiny_files_raise_typed(tmp_path):
    """Satellite: truncated/empty files give a typed error with the path,
    not a struct-unpack or JSON traceback — and so does a well-formed file
    whose block names a codec the reader does not know."""
    empty = tmp_path / "empty.rpq"
    empty.write_bytes(b"")
    with pytest.raises(CorruptSnapshotError) as err:
        read_columnar_header(empty)
    assert str(empty) in str(err.value)

    stub = tmp_path / "stub.rpq"
    stub.write_bytes(MAGIC_V2 + b"\x20")  # magic + 1 byte of header_len
    with pytest.raises(CorruptSnapshotError) as err:
        read_columnar_header(stub)
    assert str(stub) in str(err.value)

    junk = tmp_path / "junk.rpq"
    junk.write_bytes(b"not a snapshot at all, just some text padding")
    with pytest.raises(CorruptSnapshotError, match="magic"):
        read_columnar_header(junk)

    # intact CRCs and layout, but the atime block is tagged "lz4": refused
    # by codec name before any decompression, eagerly and on a lazy touch
    snap = _make_snapshot()
    blocks = [
        _encode_column(name, getattr(snap, name))
        for name in NUMERIC_COLUMNS
        if name not in ("path_id", "atime")
    ]
    atime = snap.atime.tobytes()
    blocks.append((atime, {
        "name": "atime", "dtype": str(snap.atime.dtype), "codec": "lz4",
        "rows": len(snap), "raw_bytes": len(atime),
        "stored_bytes": len(atime), "crc32": zlib.crc32(atime),
    }))
    strings = "\n".join(snap.paths.paths[pid] for pid in snap.path_id)
    str_blob = zlib.compress(strings.encode("utf-8"))
    blocks.append((str_blob, path_block_meta(str_blob, len(snap), len(strings))))
    for version in (2, 3):
        foreign = tmp_path / f"lz4-v{version}.rpq"
        write_columnar_blocks(
            foreign, "w0", 1000, len(snap), blocks, format_version=version
        )
        with pytest.raises(CorruptSnapshotError, match="unknown codec 'lz4'"):
            read_columnar(foreign, PathTable())
        lazy = open_columnar(foreign, PathTable())
        with pytest.raises(CorruptSnapshotError, match="unknown codec 'lz4'"):
            lazy.atime


def test_describe_sections_tile_the_file(valid_rpq):
    """v2 sections are contiguous and cover the whole file; v3 sections are
    ordered and non-overlapping, and every gap is pure zero padding between
    aligned blocks — the sweep's only blind spots carry no data and no CRC."""
    dest, _ = valid_rpq
    sections = describe_sections(dest)
    blob = dest.read_bytes()
    if blob[:4] == MAGIC_V3:
        offset = 0
        for _, start, length in sections:
            assert start >= offset
            assert blob[offset:start] == b"\0" * (start - offset)
            offset = start + length
        assert offset == dest.stat().st_size
    else:
        offset = 0
        for _, start, length in sections:
            assert start == offset
            offset += length
        assert offset == dest.stat().st_size


# -- legacy v1 files ---------------------------------------------------------


def _write_v1(snapshot: Snapshot, dest) -> None:
    """Hand-write the pre-trailer RPQ1 layout (what old archives hold)."""
    blocks, metas = [], []
    for name in NUMERIC_COLUMNS:
        if name == "path_id":
            continue
        blob, meta = _encode_column(name, getattr(snapshot, name))
        blocks.append(blob)
        metas.append(meta)
    strings = "\n".join(
        snapshot.paths.paths[pid] for pid in snapshot.path_id
    )
    str_blob = zlib.compress(strings.encode("utf-8"), 6)
    metas.append(
        {
            "name": "__paths__", "codec": "strtab-zlib",
            "rows": int(snapshot.path_id.size), "raw_bytes": len(strings),
            "stored_bytes": len(str_blob), "crc32": zlib.crc32(str_blob),
        }
    )
    blocks.append(str_blob)
    header = json.dumps(
        {
            "label": snapshot.label, "timestamp": snapshot.timestamp,
            "rows": len(snapshot), "columns": metas,
        }
    ).encode("utf-8")
    with open(dest, "wb") as fh:
        fh.write(MAGIC_V1)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        for blob in blocks:
            fh.write(blob)


def test_legacy_v1_file_still_reads(tmp_path):
    snap = _make_snapshot()
    dest = tmp_path / "legacy.rpq"
    _write_v1(snap, dest)
    header = read_columnar_header(dest)
    assert header == {"label": "w0", "timestamp": 1000, "rows": len(snap)}
    loaded = read_columnar(dest, PathTable())
    assert len(loaded) == len(snap)
    np.testing.assert_array_equal(loaded.atime, snap.atime)
    assert loaded.path_strings() == [
        snap.paths.paths[p] for p in snap.path_id
    ]


def test_legacy_v1_block_corruption_still_detected(tmp_path):
    """v1 has no trailer, but its per-block CRCs still catch bit flips."""
    snap = _make_snapshot()
    dest = tmp_path / "legacy.rpq"
    _write_v1(snap, dest)
    sections = describe_sections(dest)
    col = next(s for s in sections if s[0].startswith("column:"))
    bit_flip(dest, col[1] + col[2] // 2)
    with pytest.raises(CorruptSnapshotError, match="checksum"):
        read_columnar(dest, PathTable())


def test_write_magic_per_format_version(tmp_path):
    snap = _make_snapshot()
    default = tmp_path / "default.rpq"
    write_columnar(snap, default)
    assert default.read_bytes()[:4] == MAGIC_V3  # new archives are v3
    pinned = tmp_path / "pinned.rpq"
    write_columnar(snap, pinned, format_version=2)
    assert pinned.read_bytes()[:4] == MAGIC_V2
    with pytest.raises(ValueError):
        write_columnar(snap, tmp_path / "bad.rpq", format_version=4)


# -- sweep: .rpd delta sidecars ----------------------------------------------
#
# The sidecar reuses the .rpq v2 block machinery (per-block CRCs, header
# CRC, total-length trailer), so the same harness enumerates its sections.
# Contract: any truncation or bit flip surfaces as a typed
# CorruptSnapshotError from read_delta — never garbage rows handed to the
# replay path — and find_delta_chain(validate=True) refuses the chain with
# a reason instead of returning a poisoned file list.


def _make_delta_sidecar(tmp_path):
    from repro.scan.delta import compute_delta, write_delta

    paths = PathTable()
    rows0 = [
        _row(
            paths.intern(f"/lustre/atlas1/phy/p1/run.{i}"),
            ino=100 + i,
            atime=1_420_000_000 + i * 3600,
        )
        for i in range(5)
    ]
    prev = Snapshot(
        label="w0",
        timestamp=1000,
        paths=paths,
        **{
            name: np.array([r[name] for r in rows0], dtype=COLUMN_DTYPES[name])
            for name in NUMERIC_COLUMNS
        },
    )
    rows1 = [dict(r) for r in rows0[:-1]]  # run.4 removed
    rows1[0] = dict(rows1[0], mtime=rows1[0]["mtime"] + 50)  # run.0 changed
    rows1.append(  # one added path
        _row(paths.intern("/lustre/atlas1/phy/p1/new.0"), ino=900)
    )
    cur = Snapshot(
        label="w1",
        timestamp=2000,
        paths=paths,
        **{
            name: np.array([r[name] for r in rows1], dtype=COLUMN_DTYPES[name])
            for name in NUMERIC_COLUMNS
        },
    )
    dest = tmp_path / "w1.rpd"
    write_delta(compute_delta(prev, cur), dest)
    return dest


def test_rpd_truncation_sweep_every_boundary(tmp_path):
    from repro.scan.delta import read_delta

    dest = _make_delta_sidecar(tmp_path)
    points = {0}
    for _, offset, length in corruption_points(dest):
        points.add(offset)
        points.add(offset + max(1, length) // 2)
    size = dest.stat().st_size
    for offset in sorted(p for p in points if p < size):
        victim = tmp_path / "trunc.rpd"
        shutil.copy(dest, victim)
        truncate_at(victim, offset)
        with pytest.raises(CorruptSnapshotError) as err:
            read_delta(victim, PathTable())
        assert err.value.reason


def test_rpd_bitflip_sweep_every_section(tmp_path):
    from repro.scan.delta import read_delta

    dest = _make_delta_sidecar(tmp_path)
    for name, offset, length in corruption_points(dest):
        for point in {offset, offset + max(1, length) // 2,
                      offset + max(1, length) - 1}:
            victim = tmp_path / "flip.rpd"
            shutil.copy(dest, victim)
            bit_flip(victim, point, bit=3)
            with pytest.raises(CorruptSnapshotError) as err:
                read_delta(victim, PathTable())
            assert err.value.reason, f"section {name} @{point}"


def test_rpd_corruption_never_pollutes_the_table(tmp_path):
    """A failed read_delta must leave the caller's path table untouched —
    replay falls back to full maps against the same table, so a half-
    interned garbage path would poison id assignment silently."""
    from repro.scan.delta import read_delta

    dest = _make_delta_sidecar(tmp_path)
    sections = corruption_points(dest)
    # flip inside the last section so earlier blocks decode first
    name, offset, length = sections[-1]
    bit_flip(dest, offset + max(1, length) // 2, bit=1)
    table = PathTable()
    baseline = len(table)
    with pytest.raises(CorruptSnapshotError):
        read_delta(dest, table)
    assert len(table) == baseline, "corrupt sidecar interned paths"


def test_find_delta_chain_validate_refuses_corrupt(tmp_path):
    from repro.scan.delta import find_delta_chain

    dest = _make_delta_sidecar(tmp_path)
    labels = ["w0", "w1"]
    files, reason = find_delta_chain(tmp_path, labels, 1, validate=True)
    assert files == [dest] and reason == ""
    _, offset, length = corruption_points(dest)[1]
    bit_flip(dest, offset + max(1, length) // 2, bit=2)
    files, reason = find_delta_chain(tmp_path, labels, 1, validate=True)
    assert files is None
    assert "corrupt" in reason
    # without validation the existence check still passes — the contract
    # is that *some* probe (here or the caller's) runs before replay
    files, _ = find_delta_chain(tmp_path, labels, 1)
    assert files == [dest]


def test_find_delta_chain_validate_refuses_mislink(tmp_path):
    from repro.scan.delta import find_delta_chain

    _make_delta_sidecar(tmp_path)
    # the sidecar links w0->w1; claim the prefix ended at 'wX' instead
    files, reason = find_delta_chain(tmp_path, ["wX", "w1"], 1, validate=True)
    assert files is None
    assert "links" in reason and "wX" in reason


def test_find_delta_chain_missing_sidecar_reason(tmp_path):
    from repro.scan.delta import find_delta_chain

    _make_delta_sidecar(tmp_path)
    files, reason = find_delta_chain(
        tmp_path, ["w0", "w1", "w2"], 1, validate=True
    )
    assert files is None
    assert "missing delta sidecar" in reason


# -- harness self-tests ------------------------------------------------------


def test_truncate_at_validates_offset(valid_rpq):
    dest, _ = valid_rpq
    with pytest.raises(ValueError):
        truncate_at(dest, dest.stat().st_size + 1)
    with pytest.raises(ValueError):
        truncate_at(dest, -1)


def test_bit_flip_validates_args(valid_rpq):
    dest, _ = valid_rpq
    with pytest.raises(ValueError):
        bit_flip(dest, 0, bit=8)
    with pytest.raises(ValueError):
        bit_flip(dest, dest.stat().st_size)


def test_bit_flip_is_self_inverse(valid_rpq):
    dest, _ = valid_rpq
    before = dest.read_bytes()
    bit_flip(dest, 10, bit=5)
    assert dest.read_bytes() != before
    bit_flip(dest, 10, bit=5)
    assert dest.read_bytes() == before


def test_flaky_reader_counts_and_recovers():
    flaky = FlakyReader(lambda x: x * 2, failures=2)
    for _ in range(2):
        with pytest.raises(OSError):
            flaky(21)
    assert flaky(21) == 42
    assert flaky.calls == 3
