"""Exhaustive corruption sweep over the columnar format.

The hardened read path's contract: *any* truncation and *any* single-byte
corruption of a ``.rpq`` file surfaces as a typed
:class:`~repro.scan.errors.CorruptSnapshotError` carrying the file, offset,
and reason — never a cryptic decoder exception, never silently wrong
arrays.  This suite sweeps every section boundary (truncation) and every
section (bit flips) enumerated by the fault harness, in both readable
layouts: ``RPQ3``, which every writer emits, and the legacy ``RPQ2``,
which older archives and sidecars hold.
"""

import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.scan.columnar import (
    BLOCK_ALIGN,
    END_MAGIC,
    MAGIC_V2,
    MAGIC_V3,
    describe_sections,
    encode_column,
    open_columnar,
    path_block_meta,
    read_columnar,
    read_columnar_header,
    read_columnar_paths,
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


def _split(blob: bytes) -> tuple[dict, int]:
    """The JSON header of a container and where its data section starts."""
    header_len = int.from_bytes(blob[4:8], "little")
    base = 12 + header_len
    if blob[:4] == MAGIC_V3:
        base = -(-base // BLOCK_ALIGN) * BLOCK_ALIGN
    return json.loads(blob[12 : 12 + header_len]), base


def _envelope(magic: bytes, header: dict, data: bytes) -> bytes:
    """``data`` wrapped in a container: preamble with header CRC, header,
    alignment padding for ``RPQ3``, and the total-length trailer."""
    header_bytes = json.dumps(header).encode("utf-8")
    head = (
        magic
        + len(header_bytes).to_bytes(4, "little")
        + zlib.crc32(header_bytes).to_bytes(4, "little")
        + header_bytes
    )
    if magic == MAGIC_V3:
        head += b"\0" * (-len(head) % BLOCK_ALIGN)
    total = len(head) + len(data) + 12
    return head + data + total.to_bytes(8, "little") + END_MAGIC


def _rewrite_as_rpq2(src, dest) -> None:
    """Rewrite an ``RPQ3`` ``.rpq``/``.rpd`` in the legacy ``RPQ2`` layout.

    ``RPQ2`` is what older writers emitted: blocks back to back after the
    header, no ``offset`` keys, and snapshot numeric columns compressed with
    :func:`encode_column` instead of stored ``raw``.  No writer emits it
    any more, but archives written before ``RPQ3`` hold it, so the readers
    must keep decoding it.
    """
    blob = Path(src).read_bytes()
    assert blob[:4] == MAGIC_V3
    header, base = _split(blob)
    blocks, metas = [], []
    for meta in header["columns"]:
        start = base + meta.pop("offset")
        data = blob[start : start + meta["stored_bytes"]]
        if meta["codec"] == "raw":
            values = np.frombuffer(data, dtype=np.dtype(meta["dtype"]))
            data, meta = encode_column(meta["name"], values)
        blocks.append(data)
        metas.append(meta)
    header["columns"] = metas
    Path(dest).write_bytes(_envelope(MAGIC_V2, header, b"".join(blocks)))


@pytest.fixture(params=["v2", "v3"])
def valid_rpq(tmp_path, request):
    snap = _make_snapshot()
    dest = tmp_path / "w0.rpq"
    write_columnar(snap, dest)
    if request.param == "v2":
        _rewrite_as_rpq2(dest, dest)
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
        encode_column(name, getattr(snap, name))
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
    v3, v2 = tmp_path / "lz4-v3.rpq", tmp_path / "lz4-v2.rpq"
    write_columnar_blocks(v3, "w0", 1000, len(snap), blocks)
    _rewrite_as_rpq2(v3, v2)
    for foreign in (v2, v3):
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


def test_every_writer_emits_rpq3(tmp_path):
    """Snapshots, delta sidecars and ingested dumps share one written
    layout; ``RPQ2`` is only ever read."""
    from repro.ingest import ingest_trace

    snap = _make_snapshot()
    write_columnar(snap, tmp_path / "w0.rpq")
    sidecar = _make_delta_sidecar(tmp_path)
    src = tmp_path / "traces" / "20150105.psv"
    src.parent.mkdir()
    src.write_text(
        "".join(
            f"/s/p/u/f{i}.dat|1420000000|1419000000|1419500000|10|20|100644"
            f"|{i + 1}|3:1a\n"
            for i in range(3)
        )
    )
    ingest_trace(src.parent, tmp_path / "ingested")
    written = [
        tmp_path / "w0.rpq", sidecar,
        *sorted((tmp_path / "ingested").glob("*.rpq")),
        *sorted((tmp_path / "ingested").glob("*.rpd")),
    ]
    assert len(written) == 3
    assert {path.read_bytes()[:4] for path in written} == {MAGIC_V3}


# -- malformed block tables --------------------------------------------------


def _with_block_field(src, dest, field: str, value) -> None:
    """Copy a container, setting ``field`` of its first numeric block.

    The header CRC and trailer are recomputed and the blocks keep their
    place in the layout, so only the bad field can make a reader refuse it.
    """
    blob = Path(src).read_bytes()
    header, base = _split(blob)
    next(m for m in header["columns"] if "dtype" in m)[field] = value
    Path(dest).write_bytes(_envelope(blob[:4], header, blob[base:-12]))


def _touch_every_column(path):
    snap = open_columnar(path, PathTable())
    for col in NUMERIC_COLUMNS:
        np.asarray(getattr(snap, col))


def _read_sidecar(path):
    from repro.scan.delta import read_delta

    read_delta(path, PathTable())


_ENTRY_POINTS = {
    "header": read_columnar_header,
    "eager": lambda path: read_columnar(path, PathTable()),
    "paths": lambda path: read_columnar_paths(path, PathTable()),
    "lazy": _touch_every_column,
    "delta": _read_sidecar,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "field,value",
    [
        ("offset", "x"),
        ("stored_bytes", None),
        ("rows", "x"),
        ("name", ["x"]),
        ("dtype", "object"),
    ],
    ids=["offset", "stored_bytes", "rows", "name", "dtype"],
)
def test_malformed_block_table_raises_typed(tmp_path, field, value, entry):
    """A block-table entry of the wrong type — behind a valid header CRC —
    is refused with CorruptSnapshotError by every entry point, so the
    store's skip/quarantine policies catch it like any other corruption."""
    if entry == "delta":
        src = _make_delta_sidecar(tmp_path)
    else:
        src = tmp_path / "w0.rpq"
        write_columnar(_make_snapshot(), src)
    victim = tmp_path / f"bad{src.suffix}"
    _with_block_field(src, victim, field, value)
    with pytest.raises(CorruptSnapshotError) as err:
        _ENTRY_POINTS[entry](victim)
    assert err.value.path == str(victim)


# -- sweep: .rpd delta sidecars ----------------------------------------------
#
# The sidecar is an .rpq container (per-block CRCs, header CRC, aligned
# blocks, total-length trailer), so the same harness enumerates its sections.
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
