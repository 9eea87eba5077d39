"""Compatibility matrix for the two readable ``.rpq`` layouts.

One snapshot, in the ``RPQ3`` layout every writer emits and in the legacy
``RPQ2`` layout older archives hold (rewritten from the ``RPQ3`` file — no
writer emits it any more), must round-trip to identical values through
every reader entry point: ``read_columnar`` (eager), ``open_columnar``
(lazy / mmap-backed for raw blocks), ``read_columnar_paths`` (interning
replay), ``read_columnar_header``, and ``describe_sections`` (the fault
harness's map of the file).  The pre-checksum ``RPQ1`` layout is refused.
"""

import numpy as np
import pytest

from repro.scan.columnar import (
    BLOCK_ALIGN,
    MAGIC_V2,
    MAGIC_V3,
    describe_sections,
    open_columnar,
    read_columnar,
    read_columnar_header,
    read_columnar_paths,
    write_columnar,
)
from repro.scan.errors import CorruptSnapshotError
from repro.scan.paths import PathTable
from repro.scan.snapshot import NUMERIC_COLUMNS

from repro.testing.oracle import rewrite_as_rpq2

from tests.scan.test_faults import _make_snapshot

VERSIONS = ("v2", "v3")


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """The same snapshot serialized in both readable layouts."""
    root = tmp_path_factory.mktemp("versions")
    snap = _make_snapshot(n_rows=9)
    files = {"v2": root / "v2.rpq", "v3": root / "v3.rpq"}
    write_columnar(snap, files["v3"])
    rewrite_as_rpq2(files["v3"], files["v2"])
    return files, snap


def test_magic_per_version(matrix):
    files, _ = matrix
    assert files["v2"].read_bytes()[:4] == MAGIC_V2
    assert files["v3"].read_bytes()[:4] == MAGIC_V3


@pytest.mark.parametrize(
    "read",
    [
        read_columnar_header,
        describe_sections,
        lambda path: read_columnar(path, PathTable()),
        lambda path: open_columnar(path, PathTable()),
        lambda path: read_columnar_paths(path, PathTable()),
    ],
    ids=["header", "sections", "eager", "lazy", "paths"],
)
def test_rpq1_is_refused(matrix, tmp_path, read):
    """``RPQ1`` (no header CRC, no trailer) is refused by magic, typed."""
    files, _ = matrix
    blob = files["v2"].read_bytes()
    # RPQ1 was RPQ2 without the header CRC and the length trailer
    legacy = tmp_path / "v1.rpq"
    legacy.write_bytes(b"RPQ1" + blob[4:8] + blob[12:-12])
    with pytest.raises(CorruptSnapshotError, match="RPQ1"):
        read(legacy)


@pytest.mark.parametrize("version", VERSIONS)
def test_eager_read_round_trips(matrix, version):
    files, snap = matrix
    loaded = read_columnar(files[version], PathTable())
    assert loaded.label == snap.label and loaded.timestamp == snap.timestamp
    for name in NUMERIC_COLUMNS:
        np.testing.assert_array_equal(
            getattr(loaded, name), getattr(snap, name), err_msg=name
        )
    assert loaded.path_strings() == snap.path_strings()


@pytest.mark.parametrize("version", VERSIONS)
def test_lazy_read_matches_eager(matrix, version):
    files, _ = matrix
    eager = read_columnar(files[version], PathTable())
    lazy = open_columnar(files[version], PathTable())
    for name in NUMERIC_COLUMNS:
        a, b = getattr(eager, name), np.asarray(getattr(lazy, name))
        np.testing.assert_array_equal(a, b, err_msg=name)
        assert a.dtype == b.dtype, name
    assert lazy.path_strings() == eager.path_strings()


@pytest.mark.parametrize("version", VERSIONS)
def test_paths_only_read_matches_full_interning(matrix, version):
    """read_columnar_paths must reproduce the exact path→id assignment a
    full load would have made — that is the resume/warm_paths contract."""
    files, _ = matrix
    full_table = PathTable()
    full = read_columnar(files[version], full_table)
    replay_table = PathTable()
    pids = read_columnar_paths(files[version], replay_table)
    np.testing.assert_array_equal(pids, full.path_id)
    assert replay_table.paths_of(range(len(replay_table))) == \
        full_table.paths_of(range(len(full_table)))


@pytest.mark.parametrize("version", VERSIONS)
def test_header_and_sections_agree(matrix, version):
    files, snap = matrix
    header = read_columnar_header(files[version])
    blocks = header.pop("columns")
    assert header == {
        "label": snap.label, "timestamp": snap.timestamp, "rows": len(snap),
    }
    sections = describe_sections(files[version])
    names = [s[0] for s in sections]
    # the header's block table lists exactly the file's block sections
    assert [f"column:{b['name']}" for b in blocks] == [
        n for n in names if n.startswith("column:")
    ]
    for column in NUMERIC_COLUMNS:
        if column == "path_id":
            continue  # derived from the path table, never stored
        assert f"column:{column}" in names
    assert any("paths" in n for n in names)
    # sections are ordered and non-overlapping in every version
    offset = 0
    for _, start, length in sections:
        assert start >= offset
        offset = start + length
    assert offset == files[version].stat().st_size


def test_v3_blocks_are_aligned(matrix):
    files, _ = matrix
    for name, start, _ in describe_sections(files["v3"]):
        if name.startswith("column:") or name == "paths":
            assert start % BLOCK_ALIGN == 0, (name, start)


def test_mixed_version_archive_analyzes_as_one_window(matrix, tmp_path):
    """An archive migrated file-by-file (old v2 snapshots next to new v3
    ones) loads as one collection; ids and values agree across versions."""
    files, snap = matrix
    import shutil

    arch = tmp_path / "arch"
    arch.mkdir()
    shutil.copy(files["v2"], arch / "w0.rpq")
    shutil.copy(files["v3"], arch / "w1.rpq")
    from repro.scan.store import DiskSnapshotCollection

    disk = DiskSnapshotCollection(arch)
    assert len(disk) == 2
    a, b = disk[0], disk[1]
    for name in NUMERIC_COLUMNS:
        np.testing.assert_array_equal(
            np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        )
