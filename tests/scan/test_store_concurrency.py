"""Concurrent readers on one DiskSnapshotCollection (the serving case).

Two pinning suites:

* single-flight block decode — two threads touching the same un-decoded
  column must produce exactly one ``block_misses`` increment and one
  resident-byte charge (the loser counts a block hit);
* the lazy-decode transient-I/O retry ladder — an ``OSError`` surfacing
  at first *column touch* (not at open time) rides the same
  retry/backoff policy as eager opens, the engine's stats report those
  retries, and corruption is never retried.
"""

import threading

import numpy as np
import pytest

from repro.core.pipeline import ReproPipeline
from repro.query.engine import ExecutionEngine, Kernel
from repro.scan import columnar as columnar_mod
from repro.scan.columnar import LazySnapshot
from repro.scan.errors import CorruptSnapshotError
from repro.scan.store import DiskSnapshotCollection
from repro.synth.driver import SimulationConfig


@pytest.fixture(scope="module")
def archived(tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    pipeline = ReproPipeline(
        SimulationConfig(seed=93, scale=2e-6, weeks=6, min_project_files=5,
                         stress_depths=False)
    )
    pipeline.simulate()
    pipeline.archive(directory)
    return directory, pipeline.simulation


# -- single-flight decode -----------------------------------------------------


def _touch_column(snap, results, i, barrier):
    barrier.wait()
    results[i] = snap.atime


def test_concurrent_block_touch_single_flights(archived):
    directory, _ = archived
    disk = DiskSnapshotCollection(directory)
    snap = disk[0]
    assert disk.block_misses == 0
    n_threads = 8
    barrier = threading.Barrier(n_threads, timeout=30)
    results = [None] * n_threads
    threads = [
        threading.Thread(
            target=_touch_column, args=(snap, results, i, barrier)
        )
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    # exactly one decode: one miss charged, everyone else a hit
    assert disk.block_misses == 1
    assert disk.block_hits == n_threads - 1
    # every thread got the same resident array
    first = results[0]
    assert all(r is first for r in results)
    # resident bytes charged exactly once (path_id + one column)
    expected = int(snap.path_id.nbytes) + int(first.nbytes)
    assert disk.cache_bytes_used == expected


def test_concurrent_getitem_single_loads(archived):
    directory, _ = archived
    disk = DiskSnapshotCollection(directory, cache_size=4)
    n_threads = 8
    barrier = threading.Barrier(n_threads, timeout=30)
    snaps = [None] * n_threads

    def load(i):
        barrier.wait()
        snaps[i] = disk[1]

    threads = [threading.Thread(target=load, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert disk.loads == 1
    assert disk.hits == n_threads - 1
    assert all(s is snaps[0] for s in snaps)


def test_concurrent_mixed_columns_counts_consistently(archived):
    directory, _ = archived
    disk = DiskSnapshotCollection(directory)
    snap = disk[0]
    columns = ["atime", "mtime", "uid", "gid"]
    n_threads = len(columns) * 4
    barrier = threading.Barrier(n_threads, timeout=30)

    def touch(name):
        barrier.wait()
        getattr(snap, name)

    threads = [
        threading.Thread(target=touch, args=(columns[i % len(columns)],))
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    # one miss per distinct column, no double charges
    assert disk.block_misses == len(columns)
    assert disk.block_hits == n_threads - len(columns)
    expected = int(snap.path_id.nbytes) + sum(
        int(getattr(snap, c).nbytes) for c in columns
    )
    assert disk.cache_bytes_used == expected


def test_subset_and_pickle_have_independent_locks(archived):
    import pickle

    directory, _ = archived
    disk = DiskSnapshotCollection(directory)
    sub = disk.subset([0, 1])
    assert sub._lock is not disk._lock
    clone = pickle.loads(pickle.dumps(disk))
    assert clone._lock is not disk._lock
    assert len(clone[0]) == len(disk[0])


# -- lazy-decode transient I/O ------------------------------------------------


def _make_flaky(failures):
    """A patchable ``_decode_block`` raising EIO for the first N calls."""
    real = LazySnapshot._decode_block
    state = {"calls": 0, "failures": failures}

    def flaky(self, name, meta, offset):
        state["calls"] += 1
        if state["calls"] <= state["failures"]:
            raise OSError(5, "Input/output error (injected)")
        return real(self, name, meta, offset)

    return flaky, state


def test_lazy_block_touch_retries_transient_eio(archived, monkeypatch):
    directory, _ = archived
    disk = DiskSnapshotCollection(directory, io_retries=2, io_backoff=0.0)
    snap = disk[0]
    flaky, state = _make_flaky(failures=2)
    monkeypatch.setattr(LazySnapshot, "_decode_block", flaky)
    atime = snap.atime  # first touch: 2 EIOs, then success
    assert isinstance(atime, np.ndarray)
    assert state["calls"] == 3
    # the retries were accounted in the shared health report
    assert disk.health.io_retries == 2
    # exactly one miss despite the retries
    assert disk.block_misses == 1


def _max_atime(snap):
    return int(snap.atime.max())


def test_engine_stats_count_block_level_io_retries(archived, monkeypatch):
    """The engine retries no task; its ``retries`` counter reports the
    transient-I/O retries the collection absorbed during the pass."""
    directory, _ = archived
    disk = DiskSnapshotCollection(directory, io_retries=2, io_backoff=0.0)
    flaky, state = _make_flaky(failures=2)
    monkeypatch.setattr(LazySnapshot, "_decode_block", flaky)
    engine = ExecutionEngine(processes=1)
    results, stats = engine.run_kernels(disk, [Kernel("t", _max_atime, list)])
    assert len(results["t"]) == len(disk)
    assert stats.retries == disk.health.io_retries == 2


def test_lazy_block_touch_exhausts_retries_then_raises(archived, monkeypatch):
    directory, _ = archived
    disk = DiskSnapshotCollection(directory, io_retries=1, io_backoff=0.0)
    snap = disk[0]
    flaky, state = _make_flaky(failures=5)
    monkeypatch.setattr(LazySnapshot, "_decode_block", flaky)
    with pytest.raises(OSError):
        snap.mtime
    assert state["calls"] == 2  # initial attempt + 1 retry
    assert disk.health.io_retries == 1
    # a later touch succeeds once the fault clears
    state["failures"] = 0
    assert isinstance(snap.mtime, np.ndarray)


def test_lazy_corruption_is_never_retried(archived, monkeypatch, tmp_path):
    from repro.testing.faults import bit_flip, block_edges

    directory, _ = archived
    # corrupt a copy so the module-scoped archive stays clean
    import shutil

    workdir = tmp_path / "corrupt"
    shutil.copytree(directory, workdir)
    target = sorted(workdir.glob("*.rpq"))[0]
    sections = [
        (name, off, length)
        for name, off, length in columnar_mod.describe_sections(target)
        if name == "column:atime"
    ]
    assert sections
    name, offset, length = sections[0]
    bit_flip(target, offset + length // 2)
    disk = DiskSnapshotCollection(workdir, io_retries=3, io_backoff=0.0)
    snap = disk[0]
    calls = {"n": 0}
    real = LazySnapshot._decode_block

    def counting(self, name, meta, offset):
        calls["n"] += 1
        return real(self, name, meta, offset)

    monkeypatch.setattr(LazySnapshot, "_decode_block", counting)
    with pytest.raises(CorruptSnapshotError):
        snap.atime
    assert calls["n"] == 1  # permanent fault: no retry ladder
    assert disk.health.io_retries == 0


def test_open_columnar_retry_params_default_off(archived):
    # direct opens (no store) keep the old semantics: no retries
    from repro.scan.columnar import open_columnar
    from repro.scan.paths import PathTable

    directory, _ = archived
    first = sorted(directory.glob("*.rpq"))[0]
    snap = open_columnar(first, PathTable())
    assert snap.__dict__["_io_retries"] == 0
    assert isinstance(snap.atime, np.ndarray)
