"""Delta-vs-full equivalence suite for ``analyze_archive(incremental=True)``.

Acceptance criterion: appending one snapshot to an already-analyzed archive
and re-running in incremental mode produces a report *byte-identical* to a
full re-analysis, while every kernel executes ``update`` (not ``map``) and
no snapshot loads — for any analysis selection — and every unusable-state
situation (corrupt state file, foreign fingerprint, a selection whose
kernels were not all journaled, SIGKILL mid-replay) falls back or reruns to
the same bytes, loudly.  A broken sidecar link (missing, corrupt or mislinked) is
recomputed from its two snapshots: same bytes, two snapshot loads.
"""

import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from repro.core.pipeline import (
    KERNEL_STATE_FILENAME,
    ReproPipeline,
    analyze_archive,
)
from repro.fs.clock import SECONDS_PER_DAY
from repro.query.parallel import SnapshotExecutor
from repro.scan.columnar import write_columnar
from repro.scan.delta import compute_delta, sidecar_path, write_delta
from repro.scan.snapshot import Snapshot
from repro.serve.service import ArchiveService
from repro.synth.driver import SimulationConfig
from repro.testing.faults import bit_flip
from repro.testing.oracle import figure_bodies

TINY = SimulationConfig(
    seed=47, scale=1.5e-6, weeks=6, min_project_files=4, stress_depths=False
)
#: a replay run of these must load zero snapshots (depth rides the shared
#: rows census; ages journals the last snapshot's file rows)
DELTA_ANALYSES = "census,access,growth,users,ages,depth"
#: the kernels these analyses build
DELTA_KERNELS = {"rows", "access", "growth", "active_ids", "ages"}
#: DELTA_ANALYSES plus ost, whose stripes kernel DELTA_ANALYSES never journals
MIXED_ANALYSES = "census,access,growth,users,ages,ost"
MIXED_KERNELS = DELTA_KERNELS | {"stripes"}
#: every kernel the registry builds (``analyses=None``)
ALL_KERNELS = DELTA_KERNELS | {"stripes", "ext_hist", "burstiness"}

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def simulated():
    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    return pipeline


def _fresh_archive(pipeline, directory, max_snapshots=None):
    pipeline.archive(directory, max_snapshots=max_snapshots)
    return directory


def _bootstrap_then_append(pipeline, directory):
    """Archive all-but-one snapshot, analyze incrementally, then append."""
    n = len(list(pipeline.simulation.collection))
    _fresh_archive(pipeline, directory, max_snapshots=n - 1)
    analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    assert (directory / KERNEL_STATE_FILENAME).exists()
    _fresh_archive(pipeline, directory)  # rewrites + appends snapshot N
    return directory


@pytest.fixture(scope="module")
def cold_report(simulated, tmp_path_factory):
    directory = _fresh_archive(simulated, tmp_path_factory.mktemp("base"))
    _, report = analyze_archive(directory, config=TINY, analyses=DELTA_ANALYSES)
    return report


@pytest.fixture(scope="module")
def baseline(cold_report):
    return cold_report.text


def test_bootstrap_run_matches_full_and_persists_state(
    simulated, baseline, tmp_path_factory
):
    directory = _fresh_archive(simulated, tmp_path_factory.mktemp("boot"))
    _, report = analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    assert report.text == baseline
    assert (directory / KERNEL_STATE_FILENAME).exists()


def test_append_snapshot_replays_deltas_byte_identically(
    simulated, baseline, tmp_path_factory
):
    directory = _bootstrap_then_append(
        simulated, tmp_path_factory.mktemp("append")
    )
    executor = SnapshotExecutor(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean replay must not warn
        pipeline, report = analyze_archive(
            directory, config=TINY, executor=executor,
            analyses=DELTA_ANALYSES, incremental=True,
        )
    assert report.text == baseline
    stats = executor.stats
    # every kernel advanced via update, one delta each
    assert stats.delta_kernels == len(DELTA_KERNELS)
    assert stats.delta_updates == len(DELTA_KERNELS)
    assert set(stats.kernel_update_seconds) == DELTA_KERNELS
    # and the O(delta) claim, structurally: zero snapshot loads
    assert pipeline.context.collection.cache_info().misses == 0
    assert stats.n_tasks == 0


def test_selection_without_journaled_state_runs_one_warned_full_pass(
    simulated, tmp_path_factory
):
    """A selection whose kernels were not all journaled maps every kernel
    once, warned — no kernel replays beside a mapped one — and journals
    them all, so the next run replays every kernel."""
    directory = tmp_path_factory.mktemp("mixed")
    n = len(list(simulated.simulation.collection))
    _fresh_archive(simulated, directory, max_snapshots=n - 1)
    analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    _fresh_archive(simulated, directory)
    full_dir = tmp_path_factory.mktemp("mixed_base")
    _fresh_archive(simulated, full_dir)
    _, expected = analyze_archive(
        full_dir, config=TINY, analyses=MIXED_ANALYSES
    )

    executor = SnapshotExecutor(1)
    with pytest.warns(RuntimeWarning, match="no journaled state for stripes"):
        pipeline, report = analyze_archive(
            directory, config=TINY, executor=executor,
            analyses=MIXED_ANALYSES, incremental=True,
        )
    assert report.text == expected.text
    assert executor.stats.delta_kernels == 0
    assert executor.stats.n_tasks == pipeline.context.n_snapshots

    executor = SnapshotExecutor(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline, report = analyze_archive(
            directory, config=TINY, executor=executor,
            analyses=MIXED_ANALYSES, incremental=True,
        )
    assert report.text == expected.text
    assert executor.stats.delta_kernels == len(MIXED_KERNELS)
    assert executor.stats.n_tasks == 0


def test_replay_matches_full_under_parallel_executor(
    simulated, tmp_path_factory
):
    directory = tmp_path_factory.mktemp("par")
    n = len(list(simulated.simulation.collection))
    _fresh_archive(simulated, directory, max_snapshots=n - 1)
    analyze_archive(
        directory, config=TINY, analyses=MIXED_ANALYSES, incremental=True,
        executor=SnapshotExecutor(2),
    )
    _fresh_archive(simulated, directory)
    full_dir = tmp_path_factory.mktemp("par_base")
    _fresh_archive(simulated, full_dir)
    _, expected = analyze_archive(
        full_dir, config=TINY, analyses=MIXED_ANALYSES,
        executor=SnapshotExecutor(2),
    )
    executor = SnapshotExecutor(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = analyze_archive(
            directory, config=TINY, executor=executor,
            analyses=MIXED_ANALYSES, incremental=True,
        )
    assert report.text == expected.text
    assert executor.stats.delta_kernels == len(MIXED_KERNELS)
    assert executor.stats.n_tasks == 0


@pytest.fixture(scope="module")
def cold_all_report(simulated, tmp_path_factory):
    directory = _fresh_archive(simulated, tmp_path_factory.mktemp("all"))
    _, report = analyze_archive(directory, config=TINY, analyses=None)
    return report


@pytest.mark.parametrize("processes", [1, 2])
def test_all_analyses_replay_with_zero_loads(
    simulated, cold_all_report, tmp_path_factory, processes
):
    """Every §4 kernel replays: an ``analyses=None`` append loads nothing,
    warns nothing, and matches a cold full analysis in the text and every
    figure body — serially and with a worker pool."""
    directory = tmp_path_factory.mktemp(f"all{processes}")
    n = len(list(simulated.simulation.collection))
    _fresh_archive(simulated, directory, max_snapshots=n - 1)
    analyze_archive(
        directory, config=TINY, analyses=None, incremental=True,
        executor=SnapshotExecutor(processes),
    )
    _fresh_archive(simulated, directory)
    executor = SnapshotExecutor(processes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline, report = analyze_archive(
            directory, config=TINY, executor=executor,
            analyses=None, incremental=True,
        )
    assert executor.stats.n_tasks == 0
    assert executor.stats.delta_kernels == len(ALL_KERNELS)
    assert set(executor.stats.kernel_update_seconds) == ALL_KERNELS
    assert pipeline.context.collection.cache_info().misses == 0
    assert report.text == cold_all_report.text
    assert figure_bodies(report) == figure_bodies(cold_all_report)


def test_burstiness_threshold_switch_between_incremental_runs(
    simulated, tmp_path_factory
):
    """No journaled state depends on ``burstiness_min_files``: a replay
    under a new threshold gives the full analysis's bytes at that one."""
    directory = tmp_path_factory.mktemp("threshold")
    n = len(list(simulated.simulation.collection))
    _fresh_archive(simulated, directory, max_snapshots=n - 1)
    analyze_archive(
        directory, config=TINY, analyses="burstiness", incremental=True,
        burstiness_min_files=10,
    )
    _fresh_archive(simulated, directory)
    full_dir = _fresh_archive(simulated, tmp_path_factory.mktemp("thr_base"))
    _, at_old = analyze_archive(
        full_dir, config=TINY, analyses="burstiness", burstiness_min_files=10
    )
    _, at_new = analyze_archive(
        full_dir, config=TINY, analyses="burstiness", burstiness_min_files=2
    )
    assert at_new.text != at_old.text  # the switch shows in the figure

    executor = SnapshotExecutor(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, report = analyze_archive(
            directory, config=TINY, executor=executor, analyses="burstiness",
            incremental=True, burstiness_min_files=2,
        )
    assert executor.stats.delta_kernels == 1
    assert executor.stats.n_tasks == 0
    assert report.text == at_new.text
    assert figure_bodies(report) == figure_bodies(at_new)


def test_reused_executor_still_journals_after_an_earlier_quarantine(
    simulated, tmp_path_factory, monkeypatch
):
    """Only this run's quarantines keep its kernel state out of the
    journal: one in an earlier run on the same executor does not."""
    import repro.analysis.growth as growth_mod

    real_map = growth_mod._map_growth
    victim = simulated.simulation.collection.labels[-1]

    def rigged(snapshot):
        if snapshot.label == victim:
            raise ValueError("rigged growth failure")
        return real_map(snapshot)

    executor = SnapshotExecutor(1)
    marred = _fresh_archive(simulated, tmp_path_factory.mktemp("marred"))
    monkeypatch.setattr(growth_mod, "_map_growth", rigged)
    with pytest.warns(RuntimeWarning, match="quarantined"):
        analyze_archive(
            marred, config=TINY, executor=executor, analyses="growth",
            on_error="skip",
        )
    assert executor.stats.quarantined_snapshots == 1
    monkeypatch.setattr(growth_mod, "_map_growth", real_map)

    healthy = _fresh_archive(simulated, tmp_path_factory.mktemp("healthy"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analyze_archive(
            healthy, config=TINY, executor=executor,
            analyses=DELTA_ANALYSES, incremental=True,
        )
    assert (healthy / KERNEL_STATE_FILENAME).exists()


def test_missing_sidecar_falls_back_loudly(
    simulated, baseline, tmp_path_factory
):
    directory = _bootstrap_then_append(
        simulated, tmp_path_factory.mktemp("nosidecar")
    )
    last = sorted(directory.glob("*.rpd"))[-1]
    last.unlink()
    executor = SnapshotExecutor(1)
    with pytest.warns(RuntimeWarning, match="missing delta sidecar"):
        pipeline, report = analyze_archive(
            directory, config=TINY, executor=executor,
            analyses=DELTA_ANALYSES, incremental=True,
        )
    assert report.text == baseline
    # bounded: the missing interval's two snapshots, then pure replay
    assert pipeline.context.collection.cache_info().misses == 2
    assert executor.stats.delta_kernels == len(DELTA_KERNELS)


#: the ways one sidecar link breaks, each with the reason its warning names
LINK_DAMAGE = {
    "missing": "missing delta sidecar",
    "corrupt": "is corrupt",
    "mislinked": "links .* expected",
}


@pytest.mark.parametrize("damage", sorted(LINK_DAMAGE))
@pytest.mark.parametrize("link", [0, 1, 2], ids=["first", "middle", "last"])
def test_broken_link_of_a_multi_link_append_is_recomputed(
    simulated, cold_report, tmp_path, link, damage
):
    """Three weeks appended past the journaled prefix, one link broken:
    the loader recomputes just that interval from its two snapshots and
    replays the other two sidecars — the same report and figure bodies as
    a cold full analysis, from exactly two snapshot loads."""
    labels = [s.label for s in simulated.simulation.collection]
    simulated.archive(tmp_path, max_snapshots=len(labels) - 3)
    analyze_archive(
        tmp_path, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    simulated.archive(tmp_path, skip_existing=True)
    appended = labels[-3:]
    victim = sidecar_path(tmp_path, appended[link])
    if damage == "missing":
        victim.unlink()
    elif damage == "corrupt":
        bit_flip(victim, victim.stat().st_size // 2, bit=4)
    else:  # another interval's sidecar copied over this one
        shutil.copyfile(sidecar_path(tmp_path, appended[(link + 1) % 3]), victim)

    executor = SnapshotExecutor(1)
    with pytest.warns(RuntimeWarning) as caught:
        pipeline, report = analyze_archive(
            tmp_path, config=TINY, executor=executor,
            analyses=DELTA_ANALYSES, incremental=True,
        )
    messages = [
        str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
    ]
    assert len(messages) == 1, messages
    assert victim.name in messages[0]
    assert re.search(LINK_DAMAGE[damage], messages[0]), messages[0]
    assert report.text == cold_report.text
    assert figure_bodies(report) == figure_bodies(cold_report)
    assert pipeline.context.collection.cache_info().misses == 2
    assert executor.stats.delta_kernels == len(DELTA_KERNELS)

    # the recomputed chain was journaled: the next run is silent and loads
    # nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline, report = analyze_archive(
            tmp_path, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert report.text == cold_report.text
    assert pipeline.context.collection.cache_info().misses == 0


def test_multi_link_append_reads_each_sidecar_once(
    simulated, cold_report, tmp_path, monkeypatch
):
    """The loader's validation of a sidecar is its read: each appended
    ``.rpd`` is opened once, not once to probe and once to intern."""
    import repro.scan.delta as delta_module

    labels = [s.label for s in simulated.simulation.collection]
    simulated.archive(tmp_path, max_snapshots=len(labels) - 3)
    analyze_archive(
        tmp_path, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    simulated.archive(tmp_path, skip_existing=True)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(delta_module, "open", counting_open, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline, report = analyze_archive(
            tmp_path, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert sorted(opened) == [f"{label}.rpd" for label in labels[-3:]]
    assert report.text == cold_report.text
    assert pipeline.context.collection.cache_info().misses == 0


def test_state_file_from_an_older_build_is_discarded_once(
    simulated, baseline, tmp_path_factory
):
    """A ``kernel_state.bin`` of the previous version (its path table was
    the flat one, which this build does not unpickle) is refused by its
    version before anything is unpickled: exactly one warning, the append
    matches a full analysis, and the re-journaled state replays."""
    import json

    directory = _bootstrap_then_append(
        simulated, tmp_path_factory.mktemp("older")
    )
    state = directory / KERNEL_STATE_FILENAME
    head, _, payload = state.read_bytes().partition(b"\n")
    meta = json.loads(head)
    assert meta["version"] == 2
    meta["version"] = 1
    state.write_bytes(json.dumps(meta).encode("utf-8") + b"\n" + payload)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, report = analyze_archive(
            directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1, [str(w.message) for w in runtime]
    assert "unreadable or corrupt" in str(runtime[0].message)
    assert report.text == baseline
    executor = SnapshotExecutor(1)
    _, report = analyze_archive(
        directory, config=TINY, executor=executor,
        analyses=DELTA_ANALYSES, incremental=True,
    )
    assert report.text == baseline
    assert executor.stats.delta_kernels == len(DELTA_KERNELS)


def test_corrupt_state_file_falls_back_and_reheals(
    simulated, baseline, tmp_path_factory
):
    directory = _bootstrap_then_append(
        simulated, tmp_path_factory.mktemp("corrupt")
    )
    state = directory / KERNEL_STATE_FILENAME
    data = bytearray(state.read_bytes())
    data[len(data) // 2] ^= 0xFF
    state.write_bytes(bytes(data))
    with pytest.warns(RuntimeWarning, match="unreadable or corrupt"):
        _, report = analyze_archive(
            directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert report.text == baseline
    # the fallback run re-journaled healthy state: the next run replays
    executor = SnapshotExecutor(1)
    _, report = analyze_archive(
        directory, config=TINY, executor=executor,
        analyses=DELTA_ANALYSES, incremental=True,
    )
    assert report.text == baseline
    assert executor.stats.delta_kernels == len(DELTA_KERNELS)


def test_rewritten_snapshots_under_same_labels_discard_state(
    simulated, tmp_path_factory
):
    """Equal labels do not imply equal bytes: the synthetic simulator is
    not prefix-stable across window lengths, so re-archiving a longer run
    into the same directory rewrites every snapshot under its old label.
    The journaled state must be discarded on the content-id mismatch —
    replaying deltas onto a mismatched base would be silently wrong."""
    directory = tmp_path_factory.mktemp("rewrite")
    _fresh_archive(simulated, directory)
    analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )

    longer = ReproPipeline(
        SimulationConfig(seed=47, scale=1.5e-6, weeks=7,
                         min_project_files=4, stress_depths=False)
    )
    longer.simulate()
    n = len(list(simulated.simulation.collection))
    longer.archive(directory, max_snapshots=n)  # same labels, new bytes

    _, expected = analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES
    )
    with pytest.warns(RuntimeWarning, match="rewritten"):
        _, report = analyze_archive(
            directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert report.text == expected.text
    # the fallback re-journaled against the new contents: clean replay next
    executor = SnapshotExecutor(1)
    _, report = analyze_archive(
        directory, config=TINY, executor=executor,
        analyses=DELTA_ANALYSES, incremental=True,
    )
    assert report.text == expected.text
    assert executor.stats.delta_kernels == len(DELTA_KERNELS)


def _rewrite_atimes(pipeline, directory, days=30):
    """Rewrite the last ``.rpq`` and its ``.rpd`` with every atime moved:
    the same label, timestamp and row count, different data."""
    snaps = list(pipeline.simulation.collection)
    prev, last = snaps[-2], snaps[-1]
    columns = last.numeric_columns()
    columns["atime"] = columns["atime"] + days * SECONDS_PER_DAY
    moved = Snapshot.from_columns(last.label, last.timestamp, last.paths, columns)
    write_columnar(moved, directory / f"{last.label}.rpq")
    write_delta(compute_delta(prev, moved), sidecar_path(directory, last.label))


def test_rewrite_under_the_same_header_fields_discards_state(
    simulated, baseline, tmp_path_factory
):
    """The content id covers every block's CRC: a snapshot rewritten with
    different data under the same label, timestamp and row count discards
    the journaled state, and the served ETag moves."""
    directory = _fresh_archive(simulated, tmp_path_factory.mktemp("same_hdr"))
    analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    service = ArchiveService(directory, config=TINY, analyses=DELTA_ANALYSES)
    service.warm()
    etag = service.etag

    _rewrite_atimes(simulated, directory)
    _, expected = analyze_archive(directory, config=TINY, analyses=DELTA_ANALYSES)
    assert expected.text != baseline  # the rewrite shows in the report
    with pytest.warns(RuntimeWarning, match="rewritten"):
        _, report = analyze_archive(
            directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert report.text == expected.text
    service.warm()
    assert service.etag != etag


def test_state_with_foreign_fingerprint_is_discarded(
    simulated, baseline, tmp_path_factory
):
    from repro.query.journal import KernelStateStore

    directory = _bootstrap_then_append(
        simulated, tmp_path_factory.mktemp("foreign")
    )
    # overwrite with a state journaled under a different delta layout
    store = KernelStateStore(
        directory / KERNEL_STATE_FILENAME,
        fingerprint={"config": {"seed": 999}, "deltas": {"version": -1}},
    )
    store.save({"rows": None}, ["w0"], None)
    with pytest.warns(RuntimeWarning, match="different archive/delta config"):
        _, report = analyze_archive(
            directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert report.text == baseline


def test_sigkill_mid_replay_leaves_state_reusable(
    simulated, baseline, tmp_path_factory, tmp_path
):
    """SIGKILL inside the first ``update`` call: the state file is only
    rewritten after a healthy run, so the rerun replays the same chain to
    the same bytes."""
    directory = _bootstrap_then_append(
        simulated, tmp_path_factory.mktemp("kill")
    )
    state = directory / KERNEL_STATE_FILENAME
    before = state.read_bytes()
    child = textwrap.dedent(
        f"""
        import repro.analysis.rows as rows_mod
        from repro.core.pipeline import analyze_archive
        from repro.synth.driver import SimulationConfig
        from repro.testing.faults import sigkill_after

        rows_mod._update_rows = sigkill_after(rows_mod._update_rows, 0)
        analyze_archive(
            {str(directory)!r},
            config=SimulationConfig(seed=47, scale=1.5e-6, weeks=6,
                                    min_project_files=4, stress_depths=False),
            analyses={DELTA_ANALYSES!r},
            incremental=True,
        )
        raise SystemExit("unreachable: the update hook should have killed us")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == -9, (proc.returncode, proc.stderr[-2000:])
    assert state.read_bytes() == before, "state mutated by a killed run"

    executor = SnapshotExecutor(1)
    _, report = analyze_archive(
        directory, config=TINY, executor=executor,
        analyses=DELTA_ANALYSES, incremental=True,
    )
    assert report.text == baseline
    assert executor.stats.delta_kernels == len(DELTA_KERNELS)


def _unlink_sidecars(directory):
    for sidecar in directory.glob("*.rpd"):
        sidecar.unlink()


def test_archive_without_deltas_recomputes_the_missing_link(
    simulated, baseline, tmp_path_factory
):
    """An archive without sidecars (older archives, deleted files) still
    bootstraps, and its appended link is recomputed, not re-scanned."""
    directory = tmp_path_factory.mktemp("nodeltas")
    n = len(list(simulated.simulation.collection))
    simulated.archive(directory, max_snapshots=n - 1)
    _unlink_sidecars(directory)
    analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    simulated.archive(directory)
    _unlink_sidecars(directory)
    executor = SnapshotExecutor(1)
    with pytest.warns(RuntimeWarning, match="missing delta sidecar"):
        pipeline, report = analyze_archive(
            directory, config=TINY, executor=executor,
            analyses=DELTA_ANALYSES, incremental=True,
        )
    assert report.text == baseline
    assert pipeline.context.collection.cache_info().misses == 2
    assert executor.stats.delta_kernels == len(DELTA_KERNELS)


def test_cli_incremental_flag(simulated, tmp_path_factory, capsys):
    from repro.core.cli import main

    directory = _fresh_archive(simulated, tmp_path_factory.mktemp("cli"))
    rc = main(
        ["--seed", "47", "--scale", "1.5e-6", "--weeks", "6",
         "--from-archive", str(directory), "--analyses", "growth",
         "--incremental"]
    )
    assert rc == 0
    assert "FIGURE 15" in capsys.readouterr().out
    assert (directory / KERNEL_STATE_FILENAME).exists()
