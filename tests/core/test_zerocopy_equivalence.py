"""Legacy-layout acceptance: an archive of ``RPQ2`` files — the layout
archives written before ``RPQ3`` hold — must analyze *byte-identically* to
the same window in ``RPQ3``, under a serial executor and a pooled one
(fork/spawn selected suite-wide via ``$REPRO_START_METHOD``, which is how
CI's container job runs this file under both start methods), and its
``RPQ2`` delta sidecars must still replay incrementally.
"""

import shutil
import warnings

import pytest

from repro.core.pipeline import ReproPipeline, analyze_archive
from repro.query.parallel import SnapshotExecutor
from repro.scan.columnar import MAGIC_V2, MAGIC_V3
from repro.synth.driver import SimulationConfig

from repro.testing.oracle import rewrite_as_rpq2

TINY = SimulationConfig(
    seed=47, scale=1.5e-6, weeks=6, min_project_files=4, stress_depths=False
)
#: every kernel these analyses build is delta-capable, so a pure replay
#: loads no snapshot
DELTA_ANALYSES = "census,access,growth,users,ages,depth"


def _legacy_copy(src, dest) -> None:
    """Copy an archive, rewriting every ``.rpq``/``.rpd`` into ``RPQ2``."""
    dest.mkdir(exist_ok=True)
    for path in sorted(src.iterdir()):
        if path.suffix in (".rpq", ".rpd"):
            rewrite_as_rpq2(path, dest / path.name)
        elif path.is_file():
            shutil.copy(path, dest / path.name)


@pytest.fixture(scope="module")
def simulated():
    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    return pipeline


@pytest.fixture(scope="module")
def archives(simulated, tmp_path_factory):
    """The same simulated window as ``RPQ2`` files and as ``RPQ3`` files."""
    v3 = tmp_path_factory.mktemp("v3")
    simulated.archive(v3)
    v2 = tmp_path_factory.mktemp("v2")
    _legacy_copy(v3, v2)
    for directory, magic in ((v2, MAGIC_V2), (v3, MAGIC_V3)):
        files = [*directory.glob("*.rpq"), *directory.glob("*.rpd")]
        assert {p.read_bytes()[:4] for p in files} == {magic}
    return v2, v3


@pytest.fixture(scope="module")
def baseline(archives):
    """Serial analysis of the v2 archive — the reference bytes."""
    v2, _ = archives
    _, report = analyze_archive(
        v2, config=TINY, executor=SnapshotExecutor(processes=1)
    )
    return report.text


@pytest.mark.parametrize("processes", [1, 2], ids=["serial", "pooled"])
def test_v3_report_byte_identical_to_v2(archives, baseline, processes):
    v2, v3 = archives
    for directory in (v2, v3):
        _, report = analyze_archive(
            directory, config=TINY,
            executor=SnapshotExecutor(processes=processes),
        )
        # every (layout, executor) cell must reproduce the serial v2 bytes
        assert report.text == baseline


def test_v2_sidecars_replay_incrementally(simulated, tmp_path):
    """A legacy archive analyzed, then appended to, advances its journaled
    state over ``RPQ2`` ``.rpd`` sidecars: the report equals a full
    analysis, with zero snapshot loads."""
    n = len(list(simulated.simulation.collection))
    fresh, legacy = tmp_path / "fresh", tmp_path / "legacy"
    simulated.archive(fresh, max_snapshots=n - 1)
    _legacy_copy(fresh, legacy)
    analyze_archive(
        legacy, config=TINY, analyses=DELTA_ANALYSES, incremental=True
    )
    simulated.archive(fresh)  # appends snapshot n
    _legacy_copy(fresh, legacy)
    executor = SnapshotExecutor(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clean replay must not warn
        pipeline, report = analyze_archive(
            legacy, config=TINY, executor=executor,
            analyses=DELTA_ANALYSES, incremental=True,
        )
    _, full = analyze_archive(fresh, config=TINY, analyses=DELTA_ANALYSES)
    assert report.text == full.text
    assert executor.stats.delta_updates > 0
    assert executor.stats.n_tasks == 0
    assert pipeline.context.collection.cache_info().misses == 0


def test_v3_fused_pass_decodes_each_block_once(archives):
    """The block counters prove laziness engaged: a fused pass decodes
    each needed column exactly once and reuses it resident thereafter."""
    _, v3 = archives
    executor = SnapshotExecutor(processes=1)
    analyze_archive(v3, config=TINY, executor=executor)
    stats = executor.stats
    assert stats.block_misses > 0
    assert stats.block_hits > 0
    n_snapshots = len(list(v3.glob("*.rpq")))
    # at most 9 numeric columns + the path block can ever decode per file
    assert stats.block_misses <= 10 * n_snapshots
