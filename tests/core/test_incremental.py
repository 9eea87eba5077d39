"""Delta-vs-full equivalence suite for ``analyze_archive(incremental=True)``.

Acceptance criterion: appending one snapshot to an already-analyzed archive
and re-running in incremental mode produces a report *byte-identical* to a
full re-analysis, while the converted kernels execute ``update`` (not
``map``) — and every unusable-state situation (missing sidecar, corrupt
state file, foreign fingerprint, SIGKILL mid-replay) falls back or reruns
to the same bytes, loudly.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.pipeline import (
    KERNEL_STATE_FILENAME,
    ReproPipeline,
    analyze_archive,
)
from repro.query.parallel import SnapshotExecutor
from repro.synth.driver import SimulationConfig

TINY = SimulationConfig(
    seed=47, scale=1.5e-6, weeks=6, min_project_files=4, stress_depths=False
)
#: every kernel these analyses build is delta-capable, so a pure replay run
#: must load zero snapshots (depth rides the shared delta-capable rows
#: census; ages journals the last snapshot's file rows)
DELTA_ANALYSES = "census,access,growth,users,ages,depth"
#: the converted kernels these analyses build
DELTA_KERNELS = {"rows", "access", "growth", "active_ids", "ages"}
#: ost (the stripes kernel) is not delta-capable: mixed replay + fallback
MIXED_ANALYSES = "census,access,growth,users,ages,ost"

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
def baseline(simulated, tmp_path_factory):
    directory = _fresh_archive(simulated, tmp_path_factory.mktemp("base"))
    _, report = analyze_archive(directory, config=TINY, analyses=DELTA_ANALYSES)
    return report.text


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
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean replay must not warn
        pipeline, report = analyze_archive(
            directory, config=TINY, executor=executor,
            analyses=DELTA_ANALYSES, incremental=True,
        )
    assert report.text == baseline
    stats = executor.stats
    # every converted kernel advanced via update, one delta each
    assert stats.delta_kernels == len(DELTA_KERNELS)
    assert stats.delta_updates == len(DELTA_KERNELS)
    assert set(stats.kernel_update_seconds) == DELTA_KERNELS
    # and the O(delta) claim, structurally: zero snapshot loads
    assert pipeline.context.collection.cache_info().misses == 0
    assert stats.n_tasks == 0


def test_mixed_selection_falls_back_only_for_unconverted_kernels(
    simulated, tmp_path_factory
):
    directory = tmp_path_factory.mktemp("mixed")
    n = len(list(simulated.simulation.collection))
    _fresh_archive(simulated, directory, max_snapshots=n - 1)
    analyze_archive(
        directory, config=TINY, analyses=MIXED_ANALYSES, incremental=True
    )
    _fresh_archive(simulated, directory)
    full_dir = tmp_path_factory.mktemp("mixed_base")
    _fresh_archive(simulated, full_dir)
    _, expected = analyze_archive(
        full_dir, config=TINY, analyses=MIXED_ANALYSES
    )

    executor = SnapshotExecutor(1)
    with pytest.warns(RuntimeWarning, match="stripes.*incremental protocol"):
        pipeline, report = analyze_archive(
            directory, config=TINY, executor=executor,
            analyses=MIXED_ANALYSES, incremental=True,
        )
    assert report.text == expected.text
    assert executor.stats.delta_kernels == len(DELTA_KERNELS)
    # stripes still maps every snapshot — the fallback is a full pass
    assert executor.stats.n_tasks == pipeline.context.n_snapshots


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
    with pytest.warns(RuntimeWarning, match="incremental"):
        _, report = analyze_archive(
            directory, config=TINY, executor=SnapshotExecutor(2),
            analyses=MIXED_ANALYSES, incremental=True,
        )
    assert report.text == expected.text


def test_missing_sidecar_falls_back_loudly(
    simulated, baseline, tmp_path_factory
):
    directory = _bootstrap_then_append(
        simulated, tmp_path_factory.mktemp("nosidecar")
    )
    last = sorted(directory.glob("*.rpd"))[-1]
    last.unlink()
    with pytest.warns(RuntimeWarning, match="missing delta sidecar"):
        _, report = analyze_archive(
            directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert report.text == baseline


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


def test_archive_without_deltas_bootstraps_but_cannot_replay(
    simulated, baseline, tmp_path_factory
):
    directory = tmp_path_factory.mktemp("nodeltas")
    n = len(list(simulated.simulation.collection))
    simulated.archive(directory, max_snapshots=n - 1, deltas=False)
    analyze_archive(
        directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    simulated.archive(directory, deltas=False)
    assert not list(directory.glob("*.rpd"))
    with pytest.warns(RuntimeWarning, match="missing delta sidecar"):
        _, report = analyze_archive(
            directory, config=TINY, analyses=DELTA_ANALYSES, incremental=True
        )
    assert report.text == baseline


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
