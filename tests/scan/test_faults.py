"""Exhaustive corruption sweep over the columnar format.

The hardened read path's contract: *any* truncation and *any* single-byte
corruption of a ``.rpq`` file surfaces as a typed
:class:`~repro.scan.errors.CorruptSnapshotError` carrying the file, offset,
and reason — never a cryptic decoder exception, never silently wrong
arrays.  This suite sweeps every section boundary (truncation) and every
section (bit flips) enumerated by the fault harness, in both readable
layouts: ``RPQ3``, which every writer emits, and the legacy ``RPQ2``,
which older archives and sidecars hold.  The archive's ``accounts.json``
member is held to the same contract: any damage raises the typed error,
naming the member, under every ``on_error`` policy.
"""

import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.scan.columnar import (
    MAGIC_V2,
    MAGIC_V3,
    describe_sections,
    encode_column,
    open_columnar,
    path_block_meta,
    read_columnar,
    read_columnar_header,
    read_columnar_paths,
    verify_columnar,
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
from repro.testing.oracle import _envelope, _split, rewrite_as_rpq2


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


def _path(i: int) -> str:
    """Row 0 is the project directory; every later row a file in it, so a
    path block holds a row with no parent in the block (its full path)
    and rows under an earlier row (their names)."""
    return "/lustre/atlas1/phy/p1" + (f"/run.{i}" if i else "")


def _make_snapshot(n_rows: int = 5) -> Snapshot:
    paths = PathTable()
    rows = [
        _row(
            paths.intern(_path(i)),
            ino=100 + i,
            atime=1_420_000_000 + i * 3600,
            **({} if i else {"mode": 0o040775}),
        )
        for i in range(n_rows)
    ]
    columns = {
        name: np.array([r[name] for r in rows], dtype=COLUMN_DTYPES[name])
        for name in NUMERIC_COLUMNS
    }
    return Snapshot(label="w0", timestamp=1000, paths=paths, **columns)


@pytest.fixture(params=["v2", "v3"])
def valid_rpq(tmp_path, request):
    snap = _make_snapshot()
    dest = tmp_path / "w0.rpq"
    write_columnar(snap, dest)
    if request.param == "v2":
        rewrite_as_rpq2(dest, dest)
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
        with pytest.raises(CorruptSnapshotError):
            verify_columnar(victim)


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
            # the intern-free check refuses exactly what the read refuses
            with pytest.raises(CorruptSnapshotError):
                verify_columnar(victim)


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
    strings = "\n".join(snap.path_strings())
    str_blob = zlib.compress(strings.encode("utf-8"))
    blocks.append((str_blob, path_block_meta(str_blob, len(snap), len(strings))))
    v3, v2 = tmp_path / "lz4-v3.rpq", tmp_path / "lz4-v2.rpq"
    write_columnar_blocks(v3, "w0", 1000, len(snap), blocks)
    rewrite_as_rpq2(v3, v2)
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


def _read_sidecar(path, table=None):
    from repro.scan.delta import read_delta

    read_delta(path, PathTable() if table is None else table)


_ENTRY_POINTS = {
    "header": read_columnar_header,
    "eager": lambda path: read_columnar(path, PathTable()),
    "paths": lambda path: read_columnar_paths(path, PathTable()),
    "lazy": _touch_every_column,
    "verify": verify_columnar,
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


def _with_short_block(src, dest, name: str) -> None:
    """Copy a ``.rpq`` with column ``name`` one row shorter than the header.

    The block's own meta, its CRC, the header CRC and the layout are all
    rewritten to match, so only the row-count disagreement is wrong.
    """
    blob = Path(src).read_bytes()
    header, base = _split(blob)
    blocks = []
    for meta in header["columns"]:
        start = base + meta.pop("offset")
        data = blob[start : start + meta["stored_bytes"]]
        if meta["name"] == name:
            data = data[: -np.dtype(meta["dtype"]).itemsize]
            meta.update(
                rows=meta["rows"] - 1, raw_bytes=len(data),
                stored_bytes=len(data), crc32=zlib.crc32(data),
            )
        blocks.append((data, meta))
    write_columnar_blocks(
        dest, header["label"], header["timestamp"], header["rows"], blocks
    )


def _merge_drops_short_shard(victim):
    """``merge_shard_parts(on_error="skip")`` over a healthy shard 0 and
    ``victim`` as shard 1 drops shard 1 and merges shard 0 alone."""
    from repro.scan.merge import merge_shard_parts, shard_part_path, write_shard_part
    from repro.scan.store import ArchiveHealthReport
    from repro.synth.driver import SimulationConfig

    root = victim.parent / "parts"
    healthy, bad = (shard_part_path(root, s, "w0") for s in (0, 1))
    for part in (healthy, bad):
        part.parent.mkdir(parents=True)
    write_shard_part(_make_snapshot(6), healthy)
    shutil.copy(victim, bad)
    report = ArchiveHealthReport()
    records = merge_shard_parts(
        root, victim.parent / "merged", SimulationConfig(), ["w0"], [0, 1],
        on_error="skip", report=report,
    )
    [fault] = report.faults
    assert fault.path == str(bad)
    assert "shard 1 dropped from merge" in fault.reason
    assert "'uid'" in fault.reason
    assert [rec["rows"] for rec in records] == [6]


@pytest.mark.parametrize("entry", ["eager", "lazy", "paths", "verify", "merge"])
def test_short_column_block_refused_typed(tmp_path, entry):
    """A column block holding fewer rows than the header says — every CRC
    valid — is refused with CorruptSnapshotError before any path is
    interned: never a bare ValueError the store's policies miss, never a
    lazy snapshot whose ``uid`` is shorter than its ``len``."""
    from repro.scan.merge import write_shard_part

    src = tmp_path / "w0.rpq"
    (write_shard_part if entry == "merge" else write_columnar)(_make_snapshot(6), src)
    victim = tmp_path / "short.rpq"
    _with_short_block(src, victim, "uid")
    if entry == "merge":
        _merge_drops_short_shard(victim)
        return
    with pytest.raises(CorruptSnapshotError, match="'uid'.*5 rows.*6") as err:
        _ENTRY_POINTS[entry](victim)
    assert err.value.path == str(victim)


# -- the tree path block: content faults behind valid CRCs ---------------------


def _payload_faults():
    """Each fault as ``(payload, rows) -> stored block``: the inflated
    stream of a ``tree-zlib`` block (int32 parent rows, then the names)
    altered, then deflated — every CRC stays valid."""

    def parents(edit):
        def fault(payload, rows):
            refs = np.frombuffer(payload[: 4 * rows], dtype="<i4").copy()
            edit(refs)
            return zlib.compress(refs.tobytes() + payload[4 * rows :])
        return fault

    def names(edit):
        def fault(payload, rows):
            text = payload[4 * rows :].decode("utf-8").split("\n")
            return zlib.compress(payload[: 4 * rows] + "\n".join(edit(text)).encode())
        return fault

    def set_at(row, value):
        def edit(refs):
            refs[row] = value
        return edit

    return {
        "below-none": (parents(set_at(1, -2)), "parent reference -2 is below none"),
        "own-row": (parents(set_at(1, 1)), "parent reference 1 is at or after its own row"),
        "later-row": (parents(set_at(1, 2)), "parent reference 2 is at or after its own row"),
        "past-block": (parents(set_at(1, 99)), "parent reference 99 is past the block"),
        "extra-name": (names(lambda t: t + ["extra"]), r"\d+ names for \d+ rows"),
        "missing-name": (names(lambda t: t[:-1]), r"\d+ names for \d+ rows"),
        "slash-name": (names(lambda t: [t[0], "a/b", *t[2:]]), "holds a '/'"),
        "short-parents": (
            lambda payload, rows: zlib.compress(payload[: 4 * rows - 2]),
            "stream ends after",
        ),
        "truncated-stream": (
            lambda payload, rows: zlib.compress(payload)[:-6], "undecodable",
        ),
    }


_PAYLOAD_FAULTS = _payload_faults()


def _with_path_payload(src, dest, block: str, fault) -> None:
    """Copy a container with path block ``block`` replaced by
    ``fault(payload, rows)``; the block's CRC, the header CRC and the
    layout are rewritten to match."""
    blob = Path(src).read_bytes()
    header, base = _split(blob)
    blocks = []
    for meta in header["columns"]:
        start = base + meta.pop("offset")
        data = blob[start : start + meta["stored_bytes"]]
        if meta["name"] == block:
            assert meta["codec"] == "tree-zlib"
            data = fault(zlib.decompress(data), meta["rows"])
            meta.update(stored_bytes=len(data), crc32=zlib.crc32(data))
        blocks.append((data, meta))
    write_columnar_blocks(
        dest, header["label"], header["timestamp"], header["rows"], blocks
    )


@pytest.mark.parametrize("entry", ["eager", "lazy", "paths", "verify", "delta", "merge"])
@pytest.mark.parametrize("fault", sorted(_PAYLOAD_FAULTS))
def test_bad_tree_path_block_refused_typed(tmp_path, fault, entry):
    """A ``tree-zlib`` block whose parent rows or names are wrong — every
    CRC valid — is refused with CorruptSnapshotError naming the block, by
    every reader and by the intern-free checks (verify, the merge probe),
    never an IndexError or rows interned under the wrong parent."""
    damage, reason = _PAYLOAD_FAULTS[fault]
    if entry == "delta":
        src, block = _make_delta_sidecar(tmp_path), "added.__paths__"
    else:
        src, block = tmp_path / "w0.rpq", "__paths__"
        write_columnar(_make_snapshot(6), src)
    victim = tmp_path / f"bad{src.suffix}"
    _with_path_payload(src, victim, block, damage)
    if entry == "merge":
        from repro.scan.merge import probe_shard_parts, shard_part_path

        part = shard_part_path(tmp_path / "parts", 0, "w0")
        part.parent.mkdir(parents=True)
        shutil.copy(victim, part)
        victim = part
    table = PathTable()
    calls = {
        **_ENTRY_POINTS,
        "eager": lambda path: read_columnar(path, table),
        "paths": lambda path: read_columnar_paths(path, table),
        "lazy": lambda path: open_columnar(path, table),
        "delta": lambda path: _read_sidecar(path, table),
        "merge": lambda path: probe_shard_parts(path.parents[1], ["w0"], [0]),
    }
    with pytest.raises(CorruptSnapshotError, match=reason) as err:
        calls[entry](victim)
    assert err.value.path == str(victim)
    assert f"path table {block!r}" in err.value.reason
    assert len(table) == 0, "a refused block interned paths"


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "field,value",
    [("offset", "x"), ("stored_bytes", None), ("rows", "x"), ("name", ["x"]),
     ("codec", 7)],
    ids=["offset", "stored_bytes", "rows", "name", "codec"],
)
def test_malformed_path_block_table_raises_typed(tmp_path, field, value, entry):
    """The path block's own block-table entry of the wrong type is refused
    by every entry point, as a numeric block's is."""
    if entry == "delta":
        src = _make_delta_sidecar(tmp_path)
    else:
        src = tmp_path / "w0.rpq"
        write_columnar(_make_snapshot(), src)
    blob = src.read_bytes()
    header, base = _split(blob)
    next(m for m in header["columns"] if m["codec"] == "tree-zlib")[field] = value
    victim = tmp_path / f"bad{src.suffix}"
    victim.write_bytes(_envelope(blob[:4], header, blob[base:-12]))
    with pytest.raises(CorruptSnapshotError) as err:
        _ENTRY_POINTS[entry](victim)
    assert err.value.path == str(victim)


def test_merge_drops_a_shard_with_a_bad_tree_block(tmp_path):
    """Under ``skip`` the merge probe drops the shard whose path block is
    bad, naming the block, and merges the rest."""
    from repro.scan.merge import merge_shard_parts, shard_part_path, write_shard_part
    from repro.scan.store import ArchiveHealthReport
    from repro.synth.driver import SimulationConfig

    src = tmp_path / "w0.rpq"
    write_shard_part(_make_snapshot(6), src)
    victim = tmp_path / "bad.rpq"
    _with_path_payload(src, victim, "__paths__", _PAYLOAD_FAULTS["past-block"][0])

    root = tmp_path / "parts"
    healthy, bad = (shard_part_path(root, s, "w0") for s in (0, 1))
    for part in (healthy, bad):
        part.parent.mkdir(parents=True)
    write_shard_part(_make_snapshot(6), healthy)
    shutil.copy(victim, bad)
    report = ArchiveHealthReport()
    records = merge_shard_parts(
        root, tmp_path / "merged", SimulationConfig(), ["w0"], [0, 1],
        on_error="skip", report=report,
    )
    [fault] = report.faults
    assert fault.path == str(bad)
    assert "shard 1 dropped from merge" in fault.reason
    assert "path table '__paths__'" in fault.reason
    assert [rec["rows"] for rec in records] == [6]


# -- sweep: .rpd delta sidecars ----------------------------------------------
#
# The sidecar is an .rpq container (per-block CRCs, header CRC, aligned
# blocks, total-length trailer), so the same harness enumerates its sections.
# Contract: any truncation or bit flip surfaces as a typed
# CorruptSnapshotError from read_delta — never garbage rows handed to the
# replay path, which then recomputes that interval from its two snapshots.


def _make_delta_sidecar(tmp_path):
    from repro.scan.delta import compute_delta, write_delta

    paths = PathTable()
    rows0 = [
        _row(
            paths.intern(_path(i)),
            ino=100 + i,
            atime=1_420_000_000 + i * 3600,
            **({} if i else {"mode": 0o040775}),
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
    rows1[0] = dict(rows1[0], mtime=rows1[0]["mtime"] + 50)  # p1 changed
    rows1 += [  # an added directory, and files in it
        _row(paths.intern("/lustre/atlas1/phy/p1/new"), ino=900, mode=0o040775),
        _row(paths.intern("/lustre/atlas1/phy/p1/new/f.0"), ino=901),
        _row(paths.intern("/lustre/atlas1/phy/p1/new/f.1"), ino=902),
    ]
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


# -- the accounts member -----------------------------------------------------


@pytest.fixture(scope="module")
def member_archive(tmp_path_factory):
    """A tiny published archive carrying its ``accounts.json`` member."""
    from repro.core.pipeline import ReproPipeline
    from repro.synth.driver import SimulationConfig

    config = SimulationConfig(
        seed=47, scale=1.5e-6, weeks=2, min_project_files=4,
        stress_depths=False,
    )
    pipeline = ReproPipeline(config)
    pipeline.simulate()
    directory = tmp_path_factory.mktemp("member-archive")
    pipeline.archive(directory)
    return directory, config


def _rewrite_member(directory, edit) -> None:
    """Apply ``edit`` to the member's rows and re-record size and CRC32,
    so only the row checks can catch the damage."""
    from repro.core.accounts import ACCOUNTS_NAME
    from repro.core.manifest import MANIFEST_NAME

    member = directory / ACCOUNTS_NAME
    doc = json.loads(member.read_bytes())
    edit(doc)
    body = json.dumps(doc, separators=(",", ":")).encode()
    member.write_bytes(body)
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["accounts"].update(bytes=len(body), crc32=zlib.crc32(body))
    manifest_path.write_text(json.dumps(manifest))


def _short_user_row(doc) -> None:
    doc["users"][0] = doc["users"][0][:4]


def _string_uid(doc) -> None:
    doc["users"][0][0] = str(doc["users"][0][0])


_MEMBER_DAMAGE = {
    "truncated": lambda d, m: truncate_at(m, m.stat().st_size // 2),
    "bitflip": lambda d, m: bit_flip(m, m.stat().st_size // 2, bit=3),
    "deleted": lambda d, m: m.unlink(),
    "short-row": lambda d, m: _rewrite_member(d, _short_user_row),
    "string-uid": lambda d, m: _rewrite_member(d, _string_uid),
}


@pytest.mark.parametrize("on_error", ["raise", "skip", "quarantine"])
@pytest.mark.parametrize("damage", sorted(_MEMBER_DAMAGE))
def test_damaged_accounts_member_raises_typed(
    member_archive, tmp_path, damage, on_error
):
    """The member is not a snapshot: no ``on_error`` policy drops it."""
    from repro.core.accounts import ACCOUNTS_NAME
    from repro.core.pipeline import analyze_archive

    source, config = member_archive
    directory = tmp_path / "archive"
    shutil.copytree(source, directory)
    _MEMBER_DAMAGE[damage](directory, directory / ACCOUNTS_NAME)
    with pytest.raises(CorruptSnapshotError, match=ACCOUNTS_NAME) as info:
        analyze_archive(
            directory, config=config, analyses="census", on_error=on_error
        )
    assert Path(info.value.path).name == ACCOUNTS_NAME
    # nothing was quarantined on the member's account
    assert not (directory / "quarantine").exists()


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
