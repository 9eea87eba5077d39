"""The one block writer and the week writer.

``write_columnar``, ``write_delta`` and ``write_week`` all go through
``columnar.write_block_files``: the calling thread builds every numeric
payload, and a per-call thread pool deflates each block on one thread,
which builds a path table's ``PATH_CHUNK``-path UTF-8 chunks as it draws
them.  These tests hold that to the bytes of the encoders it replaced (one
joined string, one ``zlib.compress`` per block, one file at a time),
across chunk boundaries, and check that no writer thread outlives a call.
"""

from __future__ import annotations

import sys
import threading
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import runcontrol
from repro.core.pipeline import ReproPipeline
from repro.scan import columnar
from repro.scan.columnar import (
    describe_sections,
    read_columnar,
    write_columnar,
    write_columnar_blocks,
)
from repro.scan.delta import (
    DELTA_COLUMNS,
    compute_delta,
    read_delta,
    sidecar_path,
    write_delta,
    write_week,
)
from repro.scan.paths import PathTable
from repro.scan.snapshot import COLUMN_DTYPES, NUMERIC_COLUMNS, Snapshot
from repro.synth.driver import SimulationConfig

CHUNKS = [1, 2, 7, columnar.PATH_CHUNK]

_PATH_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")
_PATH = st.one_of(
    st.sampled_from(["/", ".bashrc", "/home/u1/.profile", "/lustre/ü/日本.nc"]),
    st.text(_PATH_CHARS, max_size=12),
)


# -- the encoders this writer replaced, frozen ---------------------------------


def _frozen_encode_column(name, data):
    meta = {"name": name, "dtype": str(data.dtype), "rows": int(data.size)}
    if name in ("atime", "mtime", "ctime", "ino") and data.size:
        base = int(data.min())
        raw = (data.astype(np.int64) - base).astype(np.uint64).tobytes()
        meta["codec"] = "delta-zlib"
        meta["base"] = base
        meta["raw_bytes"] = len(raw)
    else:
        raw = np.ascontiguousarray(data).tobytes()
        meta["raw_bytes"] = len(raw)
        meta["codec"] = "zlib"
    blob = zlib.compress(raw, 6)
    meta["stored_bytes"] = len(blob)
    meta["crc32"] = zlib.crc32(blob)
    return blob, meta


def _frozen_path_block(name, table, path_ids):
    strings = "\n".join(map(table.paths.__getitem__, path_ids.tolist()))
    blob = zlib.compress(strings.encode("utf-8"), 6)
    return blob, {
        "name": name,
        "codec": "strtab-zlib",
        "rows": int(path_ids.size),
        "raw_bytes": len(strings),
        "stored_bytes": len(blob),
        "crc32": zlib.crc32(blob),
    }


def _frozen_write_columnar(snapshot, dest):
    blocks = []
    for name in NUMERIC_COLUMNS[1:]:
        data = getattr(snapshot, name)
        blob = np.ascontiguousarray(data).tobytes()
        blocks.append((blob, {
            "name": name, "dtype": str(data.dtype), "rows": int(data.size),
            "codec": "raw", "raw_bytes": len(blob), "stored_bytes": len(blob),
            "crc32": zlib.crc32(blob),
        }))
    blocks.append(_frozen_path_block("__paths__", snapshot.paths, snapshot.path_id))
    write_columnar_blocks(dest, snapshot.label, snapshot.timestamp, len(snapshot), blocks)


def _frozen_write_delta(delta, dest):
    import json

    sections = {
        "added": int(delta.added["path_id"].size),
        "removed": int(delta.removed["path_id"].size),
        "changed": int(delta.changed_prev["path_id"].size),
    }
    info = {
        "kind": "repro-delta", "version": 1,
        "prev_label": delta.prev_label, "cur_label": delta.cur_label,
        "prev_timestamp": int(delta.prev_timestamp),
        "cur_timestamp": int(delta.cur_timestamp),
        "prev_rows": int(delta.prev_rows), "cur_rows": int(delta.cur_rows),
        "prev_files": int(delta.prev_files), "prev_dirs": int(delta.prev_dirs),
        "cur_files": int(delta.cur_files), "cur_dirs": int(delta.cur_dirs),
        "sections": sections,
    }
    raw = json.dumps(info).encode("utf-8")
    blob = zlib.compress(raw, 6)
    blocks = [(blob, {
        "name": "__delta__", "codec": "json-zlib", "rows": 0,
        "raw_bytes": len(raw), "stored_bytes": len(blob), "crc32": zlib.crc32(blob),
    })]
    groups = (
        ("added", {"cur": delta.added}),
        ("removed", {"prev": delta.removed}),
        ("changed", {"prev": delta.changed_prev, "cur": delta.changed_cur}),
    )
    for section, sides in groups:
        any_side = next(iter(sides.values()))
        blocks.append(_frozen_path_block(
            f"{section}.__paths__", delta.paths, any_side["path_id"]
        ))
        for side, cols in sides.items():
            prefix = f"{section}.{side}" if len(sides) > 1 else section
            for name in DELTA_COLUMNS:
                blob, meta = _frozen_encode_column(name, cols[name])
                meta["name"] = f"{prefix}.{name}"
                blocks.append((blob, meta))
    write_columnar_blocks(
        dest, delta.cur_label, delta.cur_timestamp, sum(sections.values()), blocks
    )


# -- the path table encoder ----------------------------------------------------


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=60, deadline=None)
@given(paths=st.lists(_PATH, max_size=40))
def test_path_block_is_one_zlib_stream_of_the_joined_text(chunk, paths):
    table = PathTable()
    ids = table.intern_many(paths)
    with mock.patch.object(columnar, "PATH_CHUNK", chunk):
        buffers, meta = columnar.path_table_block("__paths__", table, ids)
    text = "\n".join(paths)
    blob, crc = columnar._deflate(buffers)
    assert blob == zlib.compress(text.encode("utf-8"), 6)
    assert crc == zlib.crc32(blob)
    # characters, not UTF-8 bytes: the value every archive has recorded
    assert meta["raw_bytes"] == len(text)
    assert meta["rows"] == len(paths)


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=25, deadline=None)
@given(paths=st.lists(_PATH.filter(bool), min_size=1, max_size=30, unique=True))
def test_written_path_table_matches_one_compress_and_reads_back(
    chunk, paths, tmp_path_factory
):
    table = PathTable()
    ids = table.intern_many(paths)
    columns = {name: np.zeros(len(paths), COLUMN_DTYPES[name]) for name in NUMERIC_COLUMNS}
    columns["path_id"] = ids
    snap = Snapshot.from_columns("w0", 1000, table, columns)
    dest = tmp_path_factory.mktemp("paths") / "w0.rpq"
    with mock.patch.object(columnar, "PATH_CHUNK", chunk):
        write_columnar(snap, dest)
    (_, offset, length), = [
        s for s in describe_sections(dest) if s[0] == "column:__paths__"
    ]
    stored = dest.read_bytes()[offset : offset + length]
    assert stored == zlib.compress("\n".join(paths).encode("utf-8"), 6)
    back = read_columnar(dest, PathTable())
    assert [back.paths.paths[i] for i in back.path_id] == paths


# -- the week writer against the frozen encoders ---------------------------------


@pytest.fixture(scope="module")
def weeks():
    """Three simulated weeks with stress depths: 10k–28k rows and paths to
    12 KB per snapshot, more than one chunk at every size below."""
    pipeline = ReproPipeline(SimulationConfig(seed=3, scale=1e-6, weeks=3))
    pipeline.simulate()
    return list(pipeline.simulation.collection)


@pytest.mark.parametrize("chunk", [7, 1000, columnar.PATH_CHUNK])
def test_week_writer_bytes_equal_the_frozen_encoders(weeks, tmp_path, chunk):
    assert min(len(week) for week in weeks) > chunk
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    with mock.patch.object(columnar, "PATH_CHUNK", chunk):
        for i, snap in enumerate(weeks):
            prev = weeks[i - 1] if i else None
            stats = write_week(snap, prev, new)
            _frozen_write_columnar(snap, old / f"{snap.label}.rpq")
            if prev is not None:
                _frozen_write_delta(compute_delta(prev, snap), sidecar_path(old, snap.label))
            assert stats["stored_bytes"] == (new / f"{snap.label}.rpq").stat().st_size
    written = sorted(p.name for p in new.iterdir())
    assert written == sorted(p.name for p in old.iterdir())
    assert sum(name.endswith(".rpd") for name in written) == len(weeks) - 1
    for name in written:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_one_file_writers_match_the_week_writer(weeks, tmp_path):
    prev, cur = weeks[0], weeks[1]
    week_dir, single = tmp_path / "week", tmp_path / "single"
    week_dir.mkdir()
    single.mkdir()
    stats = write_week(cur, prev, week_dir)
    single_stats = write_columnar(cur, single / f"{cur.label}.rpq")
    assert stats == {k: single_stats[k] for k in ("raw_bytes", "stored_bytes")}
    write_delta(compute_delta(prev, cur), sidecar_path(single, cur.label))
    for name in (f"{cur.label}.rpq", f"{cur.label}.rpd"):
        assert (week_dir / name).read_bytes() == (single / name).read_bytes()
    back = read_delta(sidecar_path(week_dir, cur.label), PathTable())
    assert (back.prev_label, back.cur_label) == (prev.label, cur.label)


def test_rewriting_a_mapped_snapshot_reproduces_its_file(weeks, tmp_path):
    """Raw blocks are written from the arrays' own bytes, so a snapshot
    whose columns are read-only mmap views rewrites to the same file."""
    first = tmp_path / "first.rpq"
    write_columnar(weeks[0], first)
    mapped = columnar.open_columnar(first, PathTable())
    write_columnar(mapped, tmp_path / "again.rpq")
    assert (tmp_path / "again.rpq").read_bytes() == first.read_bytes()


# -- threads ---------------------------------------------------------------------


def _writer_calls(weeks, root: Path):
    prev, cur = weeks[0], weeks[1]
    delta = compute_delta(prev, cur)
    return {
        "write_columnar": lambda: write_columnar(cur, root / "a.rpq"),
        "write_delta": lambda: write_delta(delta, root / "a.rpd"),
        "write_week first": lambda: write_week(prev, None, root),
        "write_week": lambda: write_week(cur, prev, root),
        "write_week into a missing directory": lambda: write_week(
            cur, prev, root / "missing"
        ),
    }


def test_no_writer_thread_outlives_a_call(weeks, tmp_path):
    for name, call in _writer_calls(weeks, tmp_path).items():
        before = threading.active_count()
        try:
            call()
        except FileNotFoundError:
            assert "missing" in name, name
        else:
            assert "missing" not in name, name
        assert threading.active_count() == before, name
    assert not [t for t in threading.enumerate() if t.name.startswith("deflate")]


def test_pool_only_for_two_or_more_deflates(weeks, tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    prev, cur = weeks[0], weeks[1]
    with mock.patch("concurrent.futures.ThreadPoolExecutor", Recording), \
            mock.patch.object(runcontrol, "usable_cpus", return_value=3):
        write_columnar(cur, tmp_path / "one.rpq")  # one deflate: inline
        assert sizes == []
        write_week(cur, prev, tmp_path)
        assert sizes == [3]
    with mock.patch("concurrent.futures.ThreadPoolExecutor", Recording), \
            mock.patch.object(runcontrol, "usable_cpus", return_value=1):
        serial = tmp_path / "serial"
        serial.mkdir()
        write_week(cur, prev, serial)  # one CPU: every deflate inline
        assert sizes == [3]
    for name in (f"{cur.label}.rpq", f"{cur.label}.rpd"):
        assert (serial / name).read_bytes() == (tmp_path / name).read_bytes()


def test_more_deflate_threads_than_cores_write_the_same_bytes(weeks, tmp_path):
    """Eight deflate threads on any host, switching as often as the
    interpreter allows: every week still equals the all-inline write."""
    prev, cur = weeks[0], weeks[1]
    want = tmp_path / "inline"
    want.mkdir()
    with mock.patch.object(runcontrol, "usable_cpus", return_value=1):
        write_week(cur, prev, want)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(runcontrol, "usable_cpus", return_value=8), \
                mock.patch.object(columnar, "PATH_CHUNK", 64):
            for attempt in range(3):
                got = tmp_path / f"pooled-{attempt}"
                got.mkdir()
                write_week(cur, prev, got)
                for name in (f"{cur.label}.rpq", f"{cur.label}.rpd"):
                    assert (got / name).read_bytes() == (want / name).read_bytes()
    finally:
        sys.setswitchinterval(interval)
