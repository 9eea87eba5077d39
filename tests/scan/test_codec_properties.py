"""Property-based tests for the snapshot codecs (PSV and columnar).

PSV text is read back the one supported way, through :mod:`repro.ingest`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.inode import S_IFDIR, S_IFREG
from repro.scan.columnar import read_columnar, write_columnar
from repro.scan.errors import IngestRecordError
from repro.scan.paths import PathTable
from repro.scan.psv import write_psv
from repro.scan.snapshot import Snapshot

from .test_lustredu_psv_columnar import _ingest

_NAME_ALPHABET = st.characters(
    whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="._-"
)
_name = st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=12)


@st.composite
def snapshots(draw):
    """Random well-formed snapshots with unique paths."""
    n = draw(st.integers(min_value=1, max_value=40))
    names = draw(
        st.lists(_name, min_size=n, max_size=n, unique=True)
    )
    depth_choices = ["/proj", "/proj/u1", "/proj/u1/run0"]
    paths = []
    for i, name in enumerate(names):
        prefix = depth_choices[i % len(depth_choices)]
        paths.append(f"{prefix}/{name}")
    table = PathTable()
    pids = table.intern_many(paths)
    is_dir = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    base = 1_420_000_000
    atime = draw(
        st.lists(st.integers(0, 10**7), min_size=n, max_size=n)
    )
    mtime = draw(
        st.lists(st.integers(0, 10**7), min_size=n, max_size=n)
    )
    mode = np.where(
        np.array(is_dir), S_IFDIR | 0o775, S_IFREG | 0o664
    ).astype(np.uint32)
    stripes = np.where(np.array(is_dir), 0, 4).astype(np.int32)
    cols = {
        "path_id": pids,
        "ino": np.arange(1, n + 1, dtype=np.int64),
        "mode": mode,
        "uid": np.full(n, 100, dtype=np.int32),
        "gid": np.full(n, 200, dtype=np.int32),
        "atime": base + np.array(atime, dtype=np.int64),
        "mtime": base + np.array(mtime, dtype=np.int64),
        "ctime": base + np.array(mtime, dtype=np.int64),
        "stripe_count": stripes,
        "stripe_start": np.zeros(n, dtype=np.int32),
    }
    return Snapshot.from_columns("20150105", base, table, cols)


def _key_view(snap):
    """Order-independent canonical view of a snapshot's content."""
    return sorted(
        zip(
            snap.path_strings(),
            snap.uid.tolist(),
            snap.gid.tolist(),
            snap.atime.tolist(),
            snap.mtime.tolist(),
            snap.ctime.tolist(),
            snap.mode.tolist(),
        )
    )


@settings(max_examples=40, deadline=None)
@given(snapshots())
def test_psv_round_trip_property(tmp_path_factory, snap):
    src = tmp_path_factory.mktemp("psv") / f"{snap.label}.psv"
    with open(src, "w", encoding="utf-8") as fh:
        write_psv(snap, fh, ost_count=2016)
    back = _ingest(src, src.parent)
    assert _key_view(back) == _key_view(snap)


@settings(max_examples=25, deadline=None)
@given(snapshots())
def test_columnar_round_trip_property(tmp_path_factory, snap):
    dest = tmp_path_factory.mktemp("col") / "s.rpq"
    stats = write_columnar(snap, dest)
    assert stats["stored_bytes"] > 0
    back = read_columnar(dest, PathTable())
    assert _key_view(back) == _key_view(snap)
    assert back.label == snap.label
    assert back.timestamp == snap.timestamp


@settings(max_examples=25, deadline=None)
@given(snapshots())
def test_file_dir_counts_preserved(tmp_path_factory, snap):
    dest = tmp_path_factory.mktemp("col") / "s.rpq"
    write_columnar(snap, dest)
    back = read_columnar(dest, PathTable())
    assert back.n_files == snap.n_files
    assert back.n_dirs == snap.n_dirs


def test_psv_rejects_malformed_line(tmp_path):
    src = tmp_path / "x.psv"
    src.write_text("not|enough|fields\n")
    with pytest.raises(IngestRecordError, match="expected 9"):
        _ingest(src, tmp_path)


def test_psv_skips_blank_lines(tmp_path):
    src = tmp_path / "x.psv"
    line = "/p/f.nc|1|2|3|10|20|100664|7|0:abc\n"
    src.write_text("\n" + line + "\n")
    snap = _ingest(src, tmp_path)
    assert len(snap) == 1
