"""Degradation-policy, retry, and resume-support suite for the disk store.

Covers the failure-tolerance layer of :class:`DiskSnapshotCollection`:
``on_error`` policies (raise / skip / quarantine), deep verification,
transient-I/O retry with backoff, the :class:`ArchiveHealthReport`,
``warm_paths`` interning replay, and the ``subset()`` sharing contract.
"""

import errno
import shutil

import numpy as np
import pytest

import repro.scan.store as store_mod
from repro.analysis.context import AnalysisContext
from repro.analysis.growth import growth_series
from repro.core.pipeline import ReproPipeline
from repro.scan.errors import CorruptSnapshotError
from repro.scan.store import (
    QUARANTINE_DIRNAME,
    DiskSnapshotCollection,
)
from repro.synth.driver import SimulationConfig
from repro.testing.faults import FlakyReader, bit_flip, corruption_points, truncate_at


@pytest.fixture(scope="module")
def archived(tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    pipeline = ReproPipeline(
        SimulationConfig(seed=91, scale=2e-6, weeks=6, min_project_files=5,
                         stress_depths=False)
    )
    pipeline.simulate()
    pipeline.archive(directory)
    return directory, pipeline.simulation


@pytest.fixture()
def copy(archived, tmp_path):
    """A disposable per-test copy of the pristine archive."""
    directory, _ = archived
    target = tmp_path / "arch"
    shutil.copytree(directory, target)
    return target


def _corrupt_one(directory, kind="truncate"):
    """Corrupt the second .rpq in the directory; returns its path."""
    victim = sorted(directory.glob("*.rpq"))[1]
    if kind == "truncate":
        truncate_at(victim, victim.stat().st_size // 2)
    else:  # mid-column bit flip: invisible to a header-only verify
        col = next(
            s for s in corruption_points(victim) if s[0].startswith("column:")
        )
        bit_flip(victim, col[1] + col[2] // 2)
    return victim


def test_raise_policy_is_default(copy):
    _corrupt_one(copy)
    with pytest.raises(CorruptSnapshotError):
        DiskSnapshotCollection(copy)


def test_skip_policy_survives_and_reports(copy):
    victim = _corrupt_one(copy)
    with pytest.warns(RuntimeWarning, match="corrupt snapshot"):
        disk = DiskSnapshotCollection(copy, on_error="skip")
    n_files = len(list(copy.glob("*.rpq")))
    assert len(disk) == n_files - 1
    health = disk.health_report()
    assert health.degraded
    assert health.scanned == n_files and health.ok == n_files - 1
    [fault] = health.faults
    assert fault.path == str(victim)
    assert fault.action == "skipped"
    assert fault.reason
    assert str(n_files - 1) in health.summary()
    # the corrupt file stays in place under "skip"
    assert victim.exists()


def test_quarantine_policy_moves_file_aside(copy):
    victim = _corrupt_one(copy)
    with pytest.warns(RuntimeWarning, match="quarantined"):
        disk = DiskSnapshotCollection(copy, on_error="quarantine")
    assert not victim.exists()
    assert (copy / QUARANTINE_DIRNAME / victim.name).exists()
    [fault] = disk.health_report().faults
    assert fault.action == "quarantined"
    # the next construction sees a clean window, even under strict policy
    clean = DiskSnapshotCollection(copy)
    assert len(clean) == len(disk)
    assert not clean.health_report().degraded


def test_all_corrupt_raises_even_under_skip(copy):
    for f in copy.glob("*.rpq"):
        truncate_at(f, 3)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(CorruptSnapshotError, match="empty window"):
            DiskSnapshotCollection(copy, on_error="skip")


def test_invalid_policy_and_verify_rejected(copy):
    with pytest.raises(ValueError, match="on_error"):
        DiskSnapshotCollection(copy, on_error="ignore")
    with pytest.raises(ValueError, match="verify"):
        DiskSnapshotCollection(copy, verify="paranoid")


def test_deep_verify_catches_midfile_bitflip(copy):
    """A column bit flip passes header verification but not deep verify."""
    victim = _corrupt_one(copy, kind="bitflip")
    # header-only verify indexes the file; with lazy loads the fault
    # surfaces when the corrupt block is first touched
    disk = DiskSnapshotCollection(copy, on_error="skip", verify="header")
    assert not disk.health_report().degraded
    bad_idx = disk._files.index(victim)
    with pytest.raises(CorruptSnapshotError):
        snap = disk[bad_idx]
        for name in store_mod.NUMERIC_COLUMNS:
            np.asarray(getattr(snap, name))
    # deep verify excludes it up front
    with pytest.warns(RuntimeWarning, match="corrupt snapshot"):
        deep = DiskSnapshotCollection(copy, on_error="skip", verify="deep")
    assert len(deep) == len(disk) - 1
    assert deep.health_report().degraded


def test_deep_verify_does_not_pollute_shared_paths(copy):
    """Deep verification interns nothing: the shared table starts empty,
    so dropped files never leak path ids into live loads."""
    disk = DiskSnapshotCollection(copy, verify="deep")
    assert len(disk.paths) == 0
    disk[0]
    assert len(disk.paths) > 0


@pytest.mark.parametrize("kind", ["truncate", "bitflip"])
def test_deep_verify_interns_nothing(copy, monkeypatch, kind):
    """With interning disabled, deep verification still decodes every
    block and drops the corrupt file under the skip policy."""
    victim = _corrupt_one(copy, kind=kind)

    def refuse(self, paths):
        raise AssertionError("deep verification interned paths")

    monkeypatch.setattr(store_mod.PathTable, "intern_many", refuse)
    with pytest.warns(RuntimeWarning, match="corrupt snapshot"):
        deep = DiskSnapshotCollection(copy, on_error="skip", verify="deep")
    [fault] = deep.health_report().faults
    assert fault.path == str(victim)
    assert len(deep) == len(list(copy.glob("*.rpq"))) - 1


def test_skip_policy_report_matches_clean_window(copy, archived, tmp_path):
    """Satellite: on_error="skip" yields the *correct* analysis over the
    surviving snapshots — identical to deleting the bad file outright."""
    directory, sim = archived
    victim = _corrupt_one(copy)
    with pytest.warns(RuntimeWarning):
        degraded = DiskSnapshotCollection(copy, on_error="skip", verify="deep")

    truth_dir = tmp_path / "truth"
    shutil.copytree(directory, truth_dir)
    (truth_dir / victim.name).unlink()
    truth = DiskSnapshotCollection(truth_dir)

    g_degraded = growth_series(AnalysisContext(degraded, sim.population))
    g_truth = growth_series(AnalysisContext(truth, sim.population))
    assert g_degraded.labels == g_truth.labels
    np.testing.assert_array_equal(g_degraded.files, g_truth.files)
    np.testing.assert_array_equal(g_degraded.directories, g_truth.directories)


# -- transient I/O retry -----------------------------------------------------


def test_transient_io_retried_with_backoff(copy, monkeypatch):
    disk = DiskSnapshotCollection(copy, io_retries=2, io_backoff=0.0)
    flaky = FlakyReader(store_mod.open_columnar, failures=2)
    monkeypatch.setattr(store_mod, "open_columnar", flaky)
    snap = disk[0]
    assert len(snap) > 0
    assert flaky.calls == 3
    assert disk.health_report().io_retries == 2


def test_transient_io_exhaustion_raises(copy, monkeypatch):
    disk = DiskSnapshotCollection(copy, io_retries=1, io_backoff=0.0)
    flaky = FlakyReader(store_mod.open_columnar, failures=5)
    monkeypatch.setattr(store_mod, "open_columnar", flaky)
    with pytest.raises(OSError) as err:
        disk[0]
    assert err.value.errno == errno.EIO
    assert flaky.calls == 2  # initial attempt + 1 retry, then give up


def test_corruption_is_never_retried(copy, monkeypatch):
    """CorruptSnapshotError is permanent: one attempt, no backoff loop."""
    disk = DiskSnapshotCollection(copy, io_retries=5, io_backoff=0.0)
    calls = {"n": 0}

    def always_corrupt(path, paths, **hooks):
        calls["n"] += 1
        raise CorruptSnapshotError(path, "synthetic permanent fault")

    monkeypatch.setattr(store_mod, "open_columnar", always_corrupt)
    with pytest.raises(CorruptSnapshotError):
        disk[0]
    assert calls["n"] == 1


def test_corrupt_load_quarantines_under_policy(copy, monkeypatch):
    """A file that passes header verify but fails on first touch is still
    moved aside under the quarantine policy, so the next run starts clean."""
    victim = _corrupt_one(copy, kind="bitflip")
    disk = DiskSnapshotCollection(copy, on_error="quarantine", verify="header")
    bad_idx = disk._files.index(victim)
    with pytest.raises(CorruptSnapshotError):
        snap = disk[bad_idx]
        for name in store_mod.NUMERIC_COLUMNS:
            np.asarray(getattr(snap, name))
    assert not victim.exists()
    assert (copy / QUARANTINE_DIRNAME / victim.name).exists()


# -- warm_paths (resume interning replay) ------------------------------------


def test_warm_paths_reproduces_interning_order(copy):
    """warm_paths(i) must leave the PathTable exactly as a full load of
    snapshot i would — that is what makes journaled partials resumable."""
    full = DiskSnapshotCollection(copy)
    n_unique_first = len(set(full[0].path_strings()))
    pids_full = full[1].path_id.copy()

    warmed = DiskSnapshotCollection(copy)
    warmed.warm_paths(0)
    assert len(warmed.paths) == n_unique_first
    pids_warmed = warmed[1].path_id.copy()
    np.testing.assert_array_equal(pids_full, pids_warmed)
    # warming never loads column data
    assert warmed.loads == 1


def test_warm_paths_bounds(copy):
    disk = DiskSnapshotCollection(copy)
    with pytest.raises(IndexError):
        disk.warm_paths(len(disk))


# -- subset sharing contract -------------------------------------------------


def test_subset_path_ids_consistent_after_partial_parent_loads(copy):
    """Regression for the documented sharing contract: loads through parent
    and subset intern into one table, so ids agree regardless of which view
    loaded first — including after *partial* parent loads."""
    parent = DiskSnapshotCollection(copy)
    parent[0]  # partial parent load before the subset exists
    sub = parent.subset([1, 2])
    sub_pids = sub[0].path_id.copy()
    parent_pids = parent[1].path_id.copy()
    np.testing.assert_array_equal(sub_pids, parent_pids)
    assert sub.paths is parent.paths

    # a fresh collection loading 0 then 1 must agree too (same intern order)
    fresh = DiskSnapshotCollection(copy)
    fresh[0]
    np.testing.assert_array_equal(fresh[1].path_id, parent_pids)


def test_subset_shares_health_report(copy, monkeypatch):
    parent = DiskSnapshotCollection(copy, io_retries=2, io_backoff=0.0)
    sub = parent.subset([0, 1])
    flaky = FlakyReader(store_mod.open_columnar, failures=1)
    monkeypatch.setattr(store_mod, "open_columnar", flaky)
    sub[0]
    # the retry observed through the subset lands in the parent's report
    assert parent.health_report().io_retries == 1
    assert sub.health_report() is parent.health_report()
