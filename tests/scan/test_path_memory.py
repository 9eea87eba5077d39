"""No writer or reader holds a whole path table's text.

A path table streams through zlib in bounded pieces: the writer builds
chunks only as its deflate draws them, and a reader inflates, decodes and
splits one piece at a time.  ``tracemalloc`` traces every allocation of
the process — pool threads and NumPy buffers included — so these bounds
catch a table materialized whole on either side: as joined text, as
inflated bytes, or as one decoded string.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core import runcontrol
from repro.scan import columnar
from repro.scan.columnar import (
    open_columnar,
    read_columnar,
    verify_columnar,
    write_columnar,
)
from repro.scan.delta import write_week
from repro.scan.paths import PathTable
from repro.scan.snapshot import COLUMN_DTYPES, NUMERIC_COLUMNS, Snapshot


def _snapshot(paths: list[str], label: str) -> Snapshot:
    table = PathTable()
    columns = {n: np.zeros(len(paths), COLUMN_DTYPES[n]) for n in NUMERIC_COLUMNS}
    columns["path_id"] = table.intern_many(paths)
    return Snapshot.from_columns(label, 1000, table, columns)


def _short_paths(n: int) -> list[str]:
    return [
        f"/lustre/atlas1/d{i % 11}/p{i % 97}/u{i % 389}/run{i // 389}/f{i}.nc"
        for i in range(n)
    ]


def _deep_paths(n: int, depth: int) -> list[str]:
    """Stress-depth paths like the simulator's: ~``3.7 * depth`` characters."""
    chain = "/".join(f"d{k % 97}" for k in range(depth))
    return [f"/lustre/atlas1/s{i % 7}/{chain}/f{i}.nc" for i in range(n)]


def _text_len(paths: list[str]) -> int:
    return len("\n".join(paths))


def _peak(call) -> tuple[int, int]:
    """``(peak, retained)`` bytes traced while ``call`` runs; retained is
    what is still allocated once it returned, its result included."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak, retained


@pytest.fixture(scope="module")
def wide():
    """A table spanning many chunks of either bound: 20k short paths and
    1,200 stress-depth ones, about 13.5 MB of text in 21k rows."""
    paths = _short_paths(20_000) + _deep_paths(1200, 2700)
    return _snapshot(paths, "w1"), _text_len(paths)


@pytest.mark.parametrize("cpus", [1, 4])
def test_writing_a_snapshot_holds_a_fraction_of_its_path_table(wide, tmp_path, cpus):
    snap, text = wide
    with mock.patch.object(runcontrol, "usable_cpus", return_value=cpus):
        peak, _ = _peak(lambda: write_columnar(snap, tmp_path / "w1.rpq"))
    # the parent held every chunk before its deflate ran, and a chunk of
    # 4,096 deep paths as one string besides: 1.57x
    assert peak < 0.2 * text


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_writing_a_week_holds_a_fraction_of_its_path_tables(wide, tmp_path, cpus):
    """Against an empty week, the ``.rpd``'s added section repeats the
    whole table: two such tables deflate in one call, besides the
    section's own numeric columns."""
    snap, text = wide
    empty = Snapshot.from_columns("w0", 0, snap.paths, {
        n: np.zeros(0, COLUMN_DTYPES[n]) for n in NUMERIC_COLUMNS
    })
    with mock.patch.object(runcontrol, "usable_cpus", return_value=cpus):
        peak, _ = _peak(lambda: write_week(snap, empty, tmp_path))
    # the parent held both tables' text before the first wait: 2.66x
    assert peak < 0.5 * text


@pytest.fixture(scope="module")
def deep_file(tmp_path_factory):
    """1,500 paths of ~10 KB each: about 15.8 MB of text in a 1,500-row
    file, so the path table dominates every read."""
    paths = _deep_paths(1500, 2700)
    dest = tmp_path_factory.mktemp("deep") / "w0.rpq"
    write_columnar(_snapshot(paths, "w0"), dest)
    return dest, _text_len(paths)


@pytest.mark.parametrize("reader", ["read_columnar", "open_columnar"])
def test_reading_holds_the_paths_it_returns_plus_a_fraction(deep_file, reader):
    dest, text = deep_file
    read = read_columnar if reader == "read_columnar" else open_columnar
    peak, retained = _peak(lambda: read(dest, PathTable()))
    # the tree holds each directory of the seven stress chains once, as a
    # name under its parent, not each path's text: 0.42x (1.0x and more
    # while the table interned full strings)
    assert retained < 0.5 * text
    # the parent also held the inflated bytes and the decoded text: +1.93x
    assert peak - retained < 0.15 * text


def test_verifying_holds_a_fraction_of_the_path_table(deep_file):
    dest, text = deep_file
    peak, _ = _peak(lambda: verify_columnar(dest))
    # the parent built the whole list as well: 2.95x
    assert peak < 0.1 * text
