import numpy as np
import pytest

from repro.analysis.access import access_patterns, file_ages
from repro.analysis.context import AnalysisContext
from repro.analysis.extensions import extension_trend
from repro.analysis.files import entries_by_domain
from repro.analysis.growth import growth_series
from repro.core.pipeline import ReproPipeline
from repro.scan.store import DiskSnapshotCollection, read_columnar_header
from repro.synth.driver import SimulationConfig


@pytest.fixture(scope="module")
def archived(tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    pipeline = ReproPipeline(
        SimulationConfig(seed=91, scale=2e-6, weeks=8, min_project_files=5,
                         stress_depths=False)
    )
    pipeline.simulate()
    pipeline.archive(directory)
    return directory, pipeline.simulation


def test_header_reader(archived):
    directory, sim = archived
    first = sorted(directory.glob("*.rpq"))[0]
    header = read_columnar_header(first)
    assert header["rows"] > 0
    assert header["label"] in [s.label for s in sim.collection]


def test_disk_collection_orders_by_time(archived):
    directory, sim = archived
    disk = DiskSnapshotCollection(directory)
    assert len(disk) == len(sim.collection)
    assert disk.labels == sim.collection.labels
    assert (np.diff(disk.timestamps) > 0).all()
    assert disk.row_counts.sum() > 0


def test_disk_collection_lru(archived):
    directory, _ = archived
    disk = DiskSnapshotCollection(directory, cache_size=2)
    disk[0]
    disk[0]
    assert disk.hits == 1 and disk.loads == 1
    disk[1]
    disk[2]  # evicts 0
    disk[0]
    assert disk.loads == 4


def test_disk_matches_memory_analyses(archived):
    """Every streaming analysis must agree with the in-memory run."""
    directory, sim = archived
    disk = DiskSnapshotCollection(directory, cache_size=2)
    mem_ctx = AnalysisContext(sim.collection, sim.population)
    disk_ctx = AnalysisContext(disk, sim.population)

    # growth series
    g_mem = growth_series(mem_ctx)
    g_disk = growth_series(disk_ctx)
    assert (g_mem.files == g_disk.files).all()
    assert (g_mem.directories == g_disk.directories).all()

    # weekly access patterns
    a_mem = access_patterns(mem_ctx)
    a_disk = access_patterns(disk_ctx)
    assert [w.new for w in a_mem.weeks] == [w.new for w in a_disk.weeks]
    assert [w.untouched for w in a_mem.weeks] == [
        w.untouched for w in a_disk.weeks
    ]

    # file ages
    f_mem = file_ages(mem_ctx)
    f_disk = file_ages(disk_ctx)
    assert np.allclose(f_mem.mean_age_days, f_disk.mean_age_days)

    # unique-entry census
    c_mem = entries_by_domain(mem_ctx)
    c_disk = entries_by_domain(disk_ctx)
    assert c_mem.files == c_disk.files
    assert c_mem.directories == c_disk.directories

    # extension trend
    t_mem = extension_trend(mem_ctx)
    t_disk = extension_trend(disk_ctx)
    assert t_mem.extensions == t_disk.extensions
    assert np.allclose(t_mem.shares, t_disk.shares)


def test_union_path_ids_streams(archived):
    directory, sim = archived
    disk = DiskSnapshotCollection(directory, cache_size=1)
    assert disk.union_path_ids().size == sim.collection.union_path_ids().size


def test_subset(archived):
    directory, _ = archived
    disk = DiskSnapshotCollection(directory)
    sub = disk.subset([0, 2])
    assert len(sub) == 2
    assert sub.labels == [disk.labels[0], disk.labels[2]]
    assert sub.paths is disk.paths


def test_missing_directory_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        DiskSnapshotCollection(tmp_path)


def test_bad_cache_size(archived):
    directory, _ = archived
    with pytest.raises(ValueError):
        DiskSnapshotCollection(directory, cache_size=0)


def test_cache_info_counters(archived):
    directory, _ = archived
    disk = DiskSnapshotCollection(directory, cache_size=2)
    info = disk.cache_info()
    # hits, misses, maxsize, currsize, bytes, bytes_limit, block hits/misses
    assert info == (0, 0, 2, 0, 0, None, 0, 0)
    disk[0]
    disk[0]
    disk[1]
    info = disk.cache_info()
    assert info.hits == 1 and info.misses == 2
    assert info.currsize == 2 and info.maxsize == 2
    assert disk.misses == disk.loads == 2


def test_lru_eviction_is_recency_ordered(archived):
    """A hit refreshes recency: the *least recently used* entry is evicted,
    not the oldest-loaded one."""
    directory, _ = archived
    disk = DiskSnapshotCollection(directory, cache_size=2)
    disk[0]
    disk[1]
    disk[0]  # hit; 1 is now least recently used
    disk[2]  # evicts 1, keeps 0
    assert disk.hits == 1
    disk[0]  # still resident
    assert disk.hits == 2 and disk.loads == 3
    disk[1]  # was evicted: must reload
    assert disk.loads == 4


def test_pairs_loads_each_snapshot_once(archived):
    """The sliding two-snapshot window serves every predecessor from cache."""
    directory, _ = archived
    disk = DiskSnapshotCollection(directory, cache_size=2)
    n_pairs = sum(1 for _ in disk.pairs())
    assert n_pairs == len(disk) - 1
    info = disk.cache_info()
    assert info.misses == len(disk)
    # every pair after the first finds its predecessor resident
    assert info.hits == len(disk) - 2


def test_subset_has_fresh_counters_and_same_eviction(archived):
    directory, _ = archived
    disk = DiskSnapshotCollection(directory, cache_size=2)
    disk[0]
    sub = disk.subset([0, 1, 2])
    assert sub.cache_info() == (0, 0, 2, 0, 0, None, 0, 0)
    for _ in sub.pairs():
        pass
    assert sub.cache_info().misses == 3
    assert sub.cache_info().hits == 1
    # parent counters untouched by the subset's traffic
    assert disk.cache_info().misses == 1


def test_disk_collection_parallel_executor(archived):
    """The fork-based executor works over the disk-backed collection."""
    from repro.query.parallel import Kernel, SnapshotExecutor

    directory, sim = archived
    disk = DiskSnapshotCollection(directory, cache_size=2)
    kernels = [Kernel("rows", len, list)]
    serial = SnapshotExecutor(processes=1).run_kernels(disk, kernels)["rows"]
    parallel = SnapshotExecutor(processes=2).run_kernels(disk, kernels)["rows"]
    assert serial == parallel
    assert serial == [len(s) for s in sim.collection]
