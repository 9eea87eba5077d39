"""Round-trip tests for the shared-memory collection transport."""

import numpy as np
import pytest

from repro.fs.filesystem import FileSystem
from repro.query.shm import attach_collection, export_collection
from repro.scan.lustredu import LustreDuScanner
from repro.scan.snapshot import NUMERIC_COLUMNS, SnapshotCollection


def _build_collection(weeks=3, files_per_week=10):
    fs = FileSystem(ost_count=32, default_stripe=2, max_stripe=8)
    scanner = LustreDuScanner()
    coll = SnapshotCollection(scanner.paths)
    d = fs.makedirs("/lustre/atlas1/bio/p9/u3", uid=3, gid=9)
    for week in range(weeks):
        fs.create_many(
            d,
            [f"w{week}.part{i}.pdbqt" for i in range(files_per_week)],
            3, 9, timestamps=fs.clock.now,
        )
        coll.append(scanner.scan(fs, label=f"w{week}"))
        fs.clock.advance_days(7)
    return coll


def test_export_attach_round_trip():
    coll = _build_collection()
    with export_collection(coll) as export:
        attached, seg = attach_collection(export.handle)
        try:
            assert len(attached) == len(coll)
            for orig, view in zip(coll, attached):
                assert view.label == orig.label
                assert view.timestamp == orig.timestamp
                for name in NUMERIC_COLUMNS:
                    np.testing.assert_array_equal(
                        getattr(view, name), getattr(orig, name)
                    )
        finally:
            seg.close()


def test_attached_views_are_readonly_and_zero_copy():
    coll = _build_collection(weeks=1)
    with export_collection(coll) as export:
        attached, seg = attach_collection(export.handle)
        try:
            snap = attached[0]
            assert not snap.atime.flags.writeable
            with pytest.raises(ValueError):
                snap.atime[0] = 0
            # a view, not a pickle copy: the buffer belongs to the segment
            assert snap.atime.base is not None
        finally:
            seg.close()


def test_attached_path_table_derived_columns():
    coll = _build_collection()
    with export_collection(coll) as export:
        attached, seg = attach_collection(export.handle)
        try:
            for orig, view in zip(coll, attached):
                np.testing.assert_array_equal(view.depth(), orig.depth())
                np.testing.assert_array_equal(view.ext_id(), orig.ext_id())
        finally:
            seg.close()


def test_attached_path_strings_lazy_decode():
    coll = _build_collection(weeks=1)
    with export_collection(coll) as export:
        attached, seg = attach_collection(export.handle)
        try:
            assert attached[0].path_strings() == coll[0].path_strings()
            table = attached.paths
            assert len(table) == len(coll.paths)
            some_path = coll.paths.path_of(1)
            assert some_path in table
            assert table.id_of(some_path) == 1
        finally:
            seg.close()


def test_attached_table_is_readonly():
    coll = _build_collection(weeks=1)
    with export_collection(coll) as export:
        attached, seg = attach_collection(export.handle)
        try:
            with pytest.raises(TypeError):
                attached.paths.intern("/new/path")
        finally:
            seg.close()


def test_empty_collection_export():
    coll = SnapshotCollection()
    with export_collection(coll) as export:
        attached, seg = attach_collection(export.handle)
        try:
            assert len(attached) == 0
            assert len(attached.paths) == 0
            assert attached.paths.paths_of([]) == []
        finally:
            seg.close()


def test_handle_is_small_and_picklable():
    import pickle

    coll = _build_collection()
    with export_collection(coll) as export:
        blob = pickle.dumps(export.handle)
        # the handle must stay O(metadata): far smaller than the column data
        assert len(blob) < export.nbytes / 4
        rebuilt = pickle.loads(blob)
        assert rebuilt.segment == export.handle.segment
        assert rebuilt.n_paths == len(coll.paths)
