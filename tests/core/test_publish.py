"""Atomic publish protocol + bounded delta repair.

The live-follower contract's writer half: ``pipeline.archive`` fsyncs
data + sidecars first and commits a generation-bumped ``manifest.json``
last, so a reader that pins its window to the manifest can never observe
a half-published snapshot.  The reader half: the incremental loader turns
a broken chain link into a recompute of just that interval — bounded,
warned, byte-identical.
"""

import warnings

import pytest

from repro.core.manifest import load_manifest, manifest_generation
from repro.core.pipeline import (
    KERNEL_STATE_FILENAME,
    ReproPipeline,
    analyze_archive,
)
from repro.scan.delta import sidecar_path
from repro.scan.errors import CorruptSnapshotError
from repro.synth.driver import SimulationConfig
from repro.testing.faults import bit_flip, torn_publish

TINY = SimulationConfig(
    seed=47, scale=1.5e-6, weeks=6, min_project_files=4, stress_depths=False
)
DELTA_ANALYSES = "census,access,growth,users,ages,depth"


@pytest.fixture(scope="module")
def simulated():
    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    return pipeline


@pytest.fixture(scope="module")
def baseline(simulated, tmp_path_factory):
    directory = tmp_path_factory.mktemp("base")
    simulated.archive(directory)
    _, report = analyze_archive(directory, config=TINY, analyses=DELTA_ANALYSES)
    return report.text


def _manifest_files(directory):
    manifest = load_manifest(directory)
    return [directory / rec["file"] for rec in manifest["snapshots"]]


# -- generation fencing ------------------------------------------------------


def test_generation_increments_per_publish(simulated, tmp_path):
    assert manifest_generation(tmp_path) == 0  # no manifest yet
    simulated.archive(tmp_path, max_snapshots=3)
    assert manifest_generation(tmp_path) == 1
    simulated.archive(tmp_path, max_snapshots=4)
    assert manifest_generation(tmp_path) == 2
    manifest = load_manifest(tmp_path)
    assert manifest["generation"] == 2
    assert len(manifest["snapshots"]) == 4


def test_skip_existing_appends_only_the_new_snapshot(simulated, tmp_path):
    simulated.archive(tmp_path, max_snapshots=3)
    member = tmp_path / "accounts.json"
    member_stamp = (member.stat().st_ino, member.stat().st_mtime_ns)
    before = {
        f.name: f.stat().st_mtime_ns for f in sorted(tmp_path.glob("*.rpq"))
    }
    simulated.archive(tmp_path, max_snapshots=4, skip_existing=True)
    after = {
        f.name: f.stat().st_mtime_ns for f in sorted(tmp_path.glob("*.rpq"))
    }
    assert len(after) == len(before) + 1
    for name, stamp in before.items():
        assert after[name] == stamp, f"{name} was rewritten"
    # the accounts member did not change, so the append left it alone
    assert (member.stat().st_ino, member.stat().st_mtime_ns) == member_stamp
    assert manifest_generation(tmp_path) == 2
    # the appended snapshot brought its delta sidecar
    new_label = _manifest_files(tmp_path)[-1].stem
    assert sidecar_path(tmp_path, new_label).exists()


def test_torn_publish_leaves_old_generation_intact(simulated, tmp_path):
    simulated.archive(tmp_path, max_snapshots=3)
    files_before = _manifest_files(tmp_path)
    with torn_publish(tmp_path):
        simulated.archive(tmp_path, max_snapshots=4, skip_existing=True)
    # the stray 4th snapshot is on disk, but the manifest never moved
    assert len(list(tmp_path.glob("*.rpq"))) == 4
    assert manifest_generation(tmp_path) == 1
    assert _manifest_files(tmp_path) == files_before
    # a manifest-pinned reader sees exactly the published window
    pipeline, _ = analyze_archive(
        tmp_path, config=TINY, analyses="census",
        snapshot_files=_manifest_files(tmp_path),
    )
    assert len(pipeline.context.collection) == 3
    # a publish retry self-heals: existing files are complete (atomic
    # writes), so it only commits the manifest
    simulated.archive(tmp_path, max_snapshots=4, skip_existing=True)
    assert manifest_generation(tmp_path) == 2
    assert len(_manifest_files(tmp_path)) == 4


def test_torn_append_leaves_previous_generation_and_member_analyzable(
    simulated, tmp_path
):
    simulated.archive(tmp_path, max_snapshots=3)
    _, before = analyze_archive(tmp_path, config=TINY, analyses=DELTA_ANALYSES)
    record = load_manifest(tmp_path)["accounts"]
    with torn_publish(tmp_path):
        simulated.archive(tmp_path, max_snapshots=4, skip_existing=True)
    assert manifest_generation(tmp_path) == 1
    assert load_manifest(tmp_path)["accounts"] == record
    _, after = analyze_archive(
        tmp_path, config=TINY, analyses=DELTA_ANALYSES,
        snapshot_files=_manifest_files(tmp_path),
    )
    assert after.text == before.text


def test_rewarm_on_corrupt_member_keeps_last_good_figures(simulated, tmp_path):
    from repro.core.accounts import ACCOUNTS_NAME
    from repro.serve.service import ArchiveService

    simulated.archive(tmp_path, max_snapshots=3)
    service = ArchiveService(
        tmp_path, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    service.warm()
    names = service.figure_names()
    figures = {name: service.figure(name) for name in names}
    text, etag = service.report_text(), service.etag
    simulated.archive(tmp_path, max_snapshots=4, skip_existing=True)
    member = tmp_path / ACCOUNTS_NAME
    bit_flip(member, member.stat().st_size // 2, bit=2)
    with pytest.warns(RuntimeWarning, match=ACCOUNTS_NAME):
        assert not service.refresh()
    assert service.breaker.snapshot()["consecutive_failures"] == 1
    assert service.generation == 1
    assert (service.report_text(), service.etag) == (text, etag)
    assert {name: service.figure(name) for name in names} == figures


def test_pinned_window_missing_file_is_typed(simulated, tmp_path):
    simulated.archive(tmp_path, max_snapshots=3)
    files = _manifest_files(tmp_path)
    files[1].unlink()
    with pytest.raises(CorruptSnapshotError, match="missing on disk"):
        analyze_archive(
            tmp_path, config=TINY, analyses="census", snapshot_files=files
        )


# -- bounded delta repair ----------------------------------------------------


def _bootstrap_then_append(pipeline, directory):
    n = len(list(pipeline.simulation.collection))
    pipeline.archive(directory, max_snapshots=n - 1)
    analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    assert (directory / KERNEL_STATE_FILENAME).exists()
    pipeline.archive(directory, max_snapshots=n, skip_existing=True)
    return directory


def _last_sidecar(pipeline, directory):
    labels = [s.label for s in pipeline.simulation.collection]
    return sidecar_path(directory, labels[-1])


@pytest.mark.parametrize("damage", ["missing", "corrupt"])
def test_repair_recomputes_broken_link_byte_identically(
    simulated, baseline, tmp_path, damage
):
    directory = _bootstrap_then_append(simulated, tmp_path)
    victim = _last_sidecar(simulated, directory)
    if damage == "missing":
        victim.unlink()
    else:
        bit_flip(victim, victim.stat().st_size // 2, bit=4)
    with pytest.warns(RuntimeWarning, match="recomputing"):
        pipeline, report = analyze_archive(
            directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert report.text == baseline
    # bounded: only the broken interval's two snapshots were loaded —
    # never an O(window) re-scan
    assert pipeline.context.collection.cache_info().misses <= 2
    # the repair advanced and re-journaled state: the next run is a clean
    # no-op replay (no warning, no loads)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline, report = analyze_archive(
            directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert report.text == baseline
    assert pipeline.context.collection.cache_info().misses == 0
