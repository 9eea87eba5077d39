import numpy as np

from repro.fs.filesystem import FileSystem
from repro.query.parallel import Kernel, SnapshotExecutor
from repro.scan.lustredu import LustreDuScanner
from repro.scan.snapshot import SnapshotCollection


def _build_collection(weeks=4, files_per_week=20):
    fs = FileSystem(ost_count=32, default_stripe=2, max_stripe=8)
    scanner = LustreDuScanner()
    coll = SnapshotCollection(scanner.paths)
    d = fs.makedirs("/lustre/atlas1/cli/p1/u1", uid=1, gid=1)
    for week in range(weeks):
        fs.create_many(
            d,
            [f"w{week}.f{i}.nc" for i in range(files_per_week)],
            1, 1, timestamps=fs.clock.now,
        )
        coll.append(scanner.scan(fs, label=f"w{week}"))
        fs.clock.advance_days(7)
    return coll


def _partials(coll, fn, processes=1, pairwise=False):
    """Ordered partials of a one-kernel pass (``list`` reduce)."""
    ex = SnapshotExecutor(processes=processes)
    return ex.run_kernels(coll, [Kernel("k", fn, list, pairwise=pairwise)])["k"]


def _count(snapshot):
    return len(snapshot)


def _file_count(snapshot):
    return int(snapshot.is_file.sum())


def test_serial_map():
    coll = _build_collection()
    counts = _partials(coll, _count)
    assert len(counts) == 4
    assert counts == sorted(counts)  # growing file system


def test_parallel_map_matches_serial():
    coll = _build_collection()
    serial = _partials(coll, _file_count)
    parallel = _partials(coll, _file_count, processes=2)
    assert serial == parallel


def test_empty_collection():
    coll = SnapshotCollection()
    assert _partials(coll, _count, processes=None) == []


def test_executor_map():
    coll = _build_collection()
    ex = SnapshotExecutor(processes=1)
    results = ex.run_kernels(coll, [Kernel("rows", _count, list)])
    assert results == {"rows": [len(s) for s in coll]}
    assert ex.last_stats.n_tasks == 4


def _pair_diff(prev, cur):
    return len(cur) - len(prev)


def test_executor_map_pairs_serial():
    coll = _build_collection(weeks=3, files_per_week=10)
    assert _partials(coll, _pair_diff, pairwise=True) == [10, 10]


def test_executor_map_pairs_parallel_matches():
    coll = _build_collection(weeks=4, files_per_week=5)
    serial = _partials(coll, _pair_diff, pairwise=True)
    parallel = _partials(coll, _pair_diff, processes=2, pairwise=True)
    assert serial == parallel


def test_map_pairs_short_collection():
    coll = _build_collection(weeks=1)
    assert _partials(coll, _pair_diff, pairwise=True) == []


def test_closure_works_in_parallel():
    coll = _build_collection()
    threshold = 30

    def count_above(snapshot):
        return int(np.sum(snapshot.is_file) > threshold)

    serial = _partials(coll, count_above)
    parallel = _partials(coll, count_above, processes=2)
    assert serial == parallel
