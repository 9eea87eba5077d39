"""Path tables as bounded streams, on both sides of the container.

The writer builds a path table's chunks only as its deflate draws them,
on the one pool thread that deflates the table; the reader inflates,
decodes and splits a table ``INFLATE_PIECE`` bytes at a time.  These
tests hold the streaming decoder to the whole-text decode it replaced
(same list, or the same typed error), check that a path the format cannot
store is refused before any file exists, that no stream is drawn by two
threads, and that the deflate pool neither deadlocks nor leaves a thread
behind, whatever fails.
"""

from __future__ import annotations

import threading
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fs.filesystem import FileSystem
from repro.core import runcontrol
from repro.scan import columnar
from repro.scan.columnar import (
    read_columnar,
    verify_columnar,
    write_columnar,
)
from repro.scan.delta import write_week
from repro.scan.errors import CorruptSnapshotError
from repro.scan.lustredu import LustreDuScanner
from repro.scan.paths import PathTable
from repro.scan.snapshot import COLUMN_DTYPES, NUMERIC_COLUMNS, Snapshot

PIECES = [1, 7, columnar.INFLATE_PIECE]


# -- the decoder against the whole-text decode ---------------------------------


def _whole_text(blob: bytes, rows: int):
    """What the reader returned before it streamed: the list, or which
    typed error it raised."""
    try:
        text = zlib.decompress(blob).decode("utf-8")
    except (zlib.error, UnicodeDecodeError):
        return "undecodable"
    strings = text.split("\n") if text else []
    return strings if len(strings) == rows else f"{len(strings)} paths for {rows} rows"


def _streamed(blob: bytes, rows: int, keep: bool = True):
    meta = {"name": "__paths__", "crc32": zlib.crc32(blob)}
    try:
        return columnar._decode_strtab(blob, meta, rows, "t.rpq", 0, keep)
    except CorruptSnapshotError as exc:
        reason = exc.reason.removeprefix("path table '__paths__': ")
        return "undecodable" if reason.startswith("undecodable") else reason


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=80)


@st.composite
def _blobs(draw):
    """A path table's stored bytes: UTF-8 text or arbitrary bytes, deflated,
    then maybe truncated or followed by trailing bytes."""
    payload = draw(st.one_of(_TEXT.map(lambda t: t.encode("utf-8")), st.binary(max_size=60)))
    blob = zlib.compress(payload, draw(st.sampled_from([0, 1, 6, 9])))
    fault = draw(st.sampled_from(["none", "truncated", "trailing"]))
    if fault == "truncated":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif fault == "trailing":
        blob += draw(st.binary(min_size=1, max_size=12))
    return blob


def _rows_of(blob: bytes) -> int:
    try:
        text = zlib.decompress(blob).decode("utf-8")
    except (zlib.error, UnicodeDecodeError):
        return 0
    return len(text.split("\n")) if text else 0


@pytest.mark.parametrize("piece", PIECES)
@settings(max_examples=150, deadline=None)
@given(blob=_blobs(), skew=st.sampled_from([0, 0, 0, -1, 1]))
# multibyte characters split across pieces of 1 and 7 bytes
@example(blob=zlib.compress("/données/日本語/データ.h5\n/ü".encode()), skew=0)
# a newline at a piece boundary, and two in a row
@example(blob=zlib.compress(b"/abcdef\n/ghijkl\n\n/m"), skew=0)
# the empty table, and one path
@example(blob=zlib.compress(b""), skew=0)
@example(blob=zlib.compress("/lustre/ü.nc".encode()), skew=0)
# a truncated stream, invalid UTF-8, a split multibyte character at the end
@example(blob=zlib.compress(b"/a\n/b\n/c" * 20)[:-5], skew=0)
@example(blob=zlib.compress(b"/a\n\xff\xfe/b"), skew=0)
@example(blob=zlib.compress("/a/日".encode()[:-1]), skew=0)
# trailing bytes after the end of the stream, and not a zlib stream at all
@example(blob=zlib.compress(b"/a\n/b") + b"\x00garbage", skew=0)
@example(blob=b"not zlib", skew=0)
@example(blob=b"", skew=0)
def test_streaming_decoder_equals_the_whole_text_decode(piece, blob, skew):
    rows = max(0, _rows_of(blob) + skew)
    want = _whole_text(blob, rows)
    with mock.patch.object(columnar, "INFLATE_PIECE", piece):
        assert _streamed(blob, rows) == want
        # counting instead of building: the same verdict, and no list
        assert _streamed(blob, rows, keep=False) == (
            None if isinstance(want, list) else want
        )


def test_a_corrupt_block_is_refused_before_it_inflates():
    blob = zlib.compress(b"/a\n/b")
    meta = {"name": "__paths__", "crc32": zlib.crc32(blob) ^ 1}
    with pytest.raises(CorruptSnapshotError, match="checksum mismatch"):
        columnar._decode_strtab(blob, meta, 2, "t.rpq", 0)


# -- a path the format cannot store ----------------------------------------------


def _namespace_with(names: list[str]):
    fs = FileSystem(ost_count=32, default_stripe=2, max_stripe=8)
    scanner = LustreDuScanner()
    d = fs.makedirs("/lustre/atlas1/cli/p1/u1", uid=1, gid=1)
    fs.create_many(d, ["a.dat", "b.dat"], 1, 1, timestamps=fs.clock.now)
    before = scanner.scan(fs, label="w0")
    fs.clock.advance_days(7)
    fs.create_many(d, names, 1, 1, timestamps=fs.clock.now)
    return before, scanner.scan(fs, label="w1")


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("writer", ["write_columnar", "write_week"])
def test_a_newline_in_a_name_is_refused_and_nothing_is_written(
    tmp_path, writer, cpus
):
    """POSIX allows a newline in a file name and the scanner emits the
    path; joined into a path table it would read back as two paths, so
    the writer refuses it, naming it, before any file or thread is left."""
    prev, cur = _namespace_with(["c.dat", "bad\nname.dat", "d.dat"])
    assert "/lustre/atlas1/cli/p1/u1/bad\nname.dat" in cur.paths
    before = threading.active_count()
    with mock.patch.object(runcontrol, "usable_cpus", return_value=cpus), \
            pytest.raises(ValueError, match=r"bad\\nname\.dat"):
        if writer == "write_columnar":
            write_columnar(cur, tmp_path / "w1.rpq")
        else:
            write_week(cur, prev, tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == before


def test_names_without_newlines_still_write(tmp_path):
    prev, cur = _namespace_with(["c.dat", "tab\tname.dat", "ü ß.dat"])
    write_week(cur, prev, tmp_path)
    back = read_columnar(tmp_path / "w1.rpq", PathTable())
    assert back.path_strings() == cur.path_strings()


# -- the deflate pool --------------------------------------------------------------


def _snapshot(paths: list[str], label: str = "w0") -> Snapshot:
    table = PathTable()
    ids = table.intern_many(paths)
    columns = {name: np.zeros(len(paths), COLUMN_DTYPES[name]) for name in NUMERIC_COLUMNS}
    columns["path_id"] = ids
    return Snapshot.from_columns(label, 1000, table, columns)


def _in_thread(call, seconds: float = 120.0):
    """Run ``call`` on a daemon thread; a pool that deadlocks fails the
    test instead of hanging it."""
    outcome: list = []

    def target():
        try:
            outcome.append(call())
        except BaseException as exc:  # handed to the test thread
            outcome.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "the write did not finish"
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


def _weeks(n_paths: int, split: int, overlap: int):
    """Two weeks on one table whose delta has all three sections."""
    table = PathTable()
    paths = [f"/lustre/atlas1/d{i % 7}/p{i % 13}/f{i}.dat" for i in range(n_paths)]

    def week(names, label, value):
        columns = {n: np.full(len(names), value, COLUMN_DTYPES[n]) for n in NUMERIC_COLUMNS}
        columns["path_id"] = table.intern_many(names)
        return Snapshot.from_columns(label, 1000 * value, table, columns)

    return week(paths[:split], "w0", 1), week(paths[split - overlap :], "w1", 2)


def test_each_stream_is_drawn_by_one_pool_thread(tmp_path):
    """The thread that deflates a stream draws every buffer of it: no
    stream is drawn by two threads, nor by the thread that writes."""
    draws: list[list[tuple[int, str]]] = []

    def stream(seen: list):
        for _ in range(4):
            seen.append((threading.get_ident(), threading.current_thread().name))
            yield b"x" * 512
        seen.append((threading.get_ident(), threading.current_thread().name))

    def blocks():
        for i in range(3):
            draws.append([])
            yield stream(draws[-1]), {
                "name": f"c{i}", "dtype": "uint8", "codec": "zlib",
                "rows": 2048, "raw_bytes": 2048,
            }

    files = [
        columnar.BlockFile(tmp_path / f"{label}.rpq", label, 1000, 2048, blocks)
        for label in ("w0", "w1")
    ]
    caller: list[int] = []

    def write():
        caller.append(threading.get_ident())
        return columnar.write_block_files(files)

    with mock.patch.object(runcontrol, "usable_cpus", return_value=2):
        stats = _in_thread(write)
    assert [s["raw_bytes"] for s in stats] == [3 * 2048, 3 * 2048]
    assert len(draws) == 6
    for seen in draws:
        assert len(seen) == 5  # four buffers and the draw that ends it
        assert len({ident for ident, _ in seen}) == 1
        assert caller[0] not in {ident for ident, _ in seen}
        assert all(name.startswith("deflate") for _, name in seen)


def test_more_tables_than_pool_threads_write_the_inline_bytes(tmp_path):
    """An ``.rpd`` carries three path tables and its week's ``.rpq`` one:
    with two pool threads and chunks of a few paths, tables wait for a
    free thread.  The bytes equal the all-inline write."""
    prev, cur = _weeks(3000, 2000, 1000)
    want, got = tmp_path / "inline", tmp_path / "pooled"
    want.mkdir()
    got.mkdir()
    with mock.patch.object(runcontrol, "usable_cpus", return_value=1):
        write_week(cur, prev, want)
    with mock.patch.object(runcontrol, "usable_cpus", return_value=2), \
            mock.patch.object(columnar, "PATH_CHUNK_CHARS", 200):
        before = threading.active_count()
        _in_thread(lambda: write_week(cur, prev, got))
        assert threading.active_count() == before
    for name in ("w1.rpq", "w1.rpd"):
        assert (got / name).read_bytes() == (want / name).read_bytes()


def test_a_failing_pool_deflate_surfaces_and_leaves_nothing(tmp_path):
    """A deflate that raises on a pool thread must not leave the calling
    thread waiting: the error surfaces, no file or thread is left."""
    prev, cur = _weeks(2000, 1200, 400)
    deflate = columnar._deflate

    def failing(buffers):
        if threading.current_thread().name.startswith("deflate"):
            raise MemoryError("no room for the compressor")
        return deflate(buffers)

    before = threading.active_count()
    with mock.patch.object(runcontrol, "usable_cpus", return_value=2), \
            mock.patch.object(columnar, "PATH_CHUNK_CHARS", 100), \
            mock.patch.object(columnar, "_deflate", failing), \
            pytest.raises(MemoryError):
        _in_thread(lambda: write_week(cur, prev, tmp_path))
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == before


@pytest.mark.parametrize("chars", [1, 50, columnar.PATH_CHUNK_CHARS])
def test_chunks_bound_characters_and_keep_every_path_whole(chars):
    """No path's parent is a row here, so every row stores its full path:
    after the parent rows, the chunks are the joined paths."""
    paths = ["/" + "d/" * n + "f" for n in (0, 3, 40, 1, 200, 2, 0)]
    table = PathTable()
    ids = table.intern_many(paths)
    with mock.patch.object(columnar, "PATH_CHUNK_CHARS", chars):
        chunks, meta = columnar.path_table_block("__paths__", table, ids)
        parents, *rest = list(chunks)
    assert parents == np.full(len(paths), -1, dtype="<i4").tobytes()
    texts = [chunk.decode("utf-8") for chunk in rest]
    assert "".join(texts) == "\n".join(paths)
    assert meta["raw_bytes"] == len(parents) + len("\n".join(paths))
    for text in texts:
        # a chunk's paths exceed the bound only when it holds one path
        body = text.removeprefix("\n")
        assert len(body) - body.count("\n") <= chars or "\n" not in body


def test_verify_reads_a_table_it_would_return(tmp_path):
    snap = _snapshot(["/", "/a", "/a/ü", "/a/日本.h5"])
    write_columnar(snap, tmp_path / "w0.rpq")
    with mock.patch.object(columnar, "INFLATE_PIECE", 3):
        assert verify_columnar(tmp_path / "w0.rpq")["rows"] == 4
        back = read_columnar(tmp_path / "w0.rpq", PathTable())
    assert back.path_strings() == ["/", "/a", "/a/ü", "/a/日本.h5"]
