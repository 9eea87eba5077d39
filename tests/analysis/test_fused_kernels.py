"""Fused-kernel-pass equivalence and exactly-once-load guarantees.

The acceptance bar for the kernel refactor: a fused ``run_analyses`` must
produce results equal to the legacy per-analysis path for every §4
analysis — under serial, fork, and spawn — and a disk-backed fused
``analyze()`` must read each snapshot from disk exactly once.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.registry import (
    SPECS,
    AnalyzeOptions,
    resolve_specs,
    run_analyses,
)
from repro.core.pipeline import ReproPipeline, analyze_archive
from repro.query.parallel import SnapshotExecutor
from repro.scan.store import DiskSnapshotCollection
from repro.synth.driver import SimulationConfig

MIN_FILES = 3

#: serial plus every real start method this platform offers.
METHODS = ["serial"] + [
    m for m in ("fork", "spawn") if m in mp.get_all_start_methods()
]


@pytest.fixture(scope="module")
def legacy(sim_result):
    """Every §4 result via the public one-analysis-at-a-time functions."""
    from repro.analysis.access import access_patterns, file_ages
    from repro.analysis.burstiness import burstiness
    from repro.analysis.depth import directory_depths
    from repro.analysis.extensions import extension_trend, extensions_by_domain
    from repro.analysis.files import entries_by_domain, file_count_cdfs
    from repro.analysis.growth import growth_series
    from repro.analysis.languages import language_ranking, languages_by_domain
    from repro.analysis.ost import stripe_stats
    from repro.analysis.table1 import build_table1
    from repro.analysis.users import user_profile

    ctx = AnalysisContext(
        collection=sim_result.collection,
        population=sim_result.population,
        executor=SnapshotExecutor(processes=1),
    )
    return {
        "fig5": user_profile(ctx),
        "fig7": entries_by_domain(ctx),
        "fig8": file_count_cdfs(ctx),
        "fig8_depth": directory_depths(ctx),
        "table2": extensions_by_domain(ctx),
        "fig10": extension_trend(ctx),
        "fig11": language_ranking(ctx),
        "fig12": languages_by_domain(ctx),
        "fig13": access_patterns(ctx),
        "fig14": stripe_stats(ctx),
        "fig15": growth_series(ctx),
        "fig16": file_ages(ctx),
        "fig17": burstiness(ctx, min_files=MIN_FILES),
        "table1": build_table1(ctx, burstiness_min_files=MIN_FILES),
    }


def _fused_values(sim_result, method):
    if method == "serial":
        executor = SnapshotExecutor(processes=1)
    else:
        executor = SnapshotExecutor(processes=2, start_method=method)
    ctx = AnalysisContext(
        collection=sim_result.collection,
        population=sim_result.population,
        executor=executor,
    )
    opts = AnalyzeOptions(ctx=ctx, burstiness_min_files=MIN_FILES)
    return run_analyses(opts, resolve_specs(None))


def _assert_burstiness_equal(a, b):
    assert set(a.write_samples) == set(b.write_samples)
    assert set(a.read_samples) == set(b.read_samples)
    for code in a.write_samples:
        assert np.array_equal(a.write_samples[code], b.write_samples[code])
    for code in a.read_samples:
        assert np.array_equal(a.read_samples[code], b.read_samples[code])
    assert a.write_by_domain == b.write_by_domain
    assert a.read_by_domain == b.read_by_domain


@pytest.mark.parametrize("method", METHODS)
def test_fused_equals_legacy_every_analysis(sim_result, legacy, method):
    values = _fused_values(sim_result, method)

    assert values["fig5"] == legacy["fig5"]
    assert values["fig7"] == legacy["fig7"]

    cdfs, lcdfs = values["fig8"], legacy["fig8"]
    assert np.array_equal(cdfs.per_user.values, lcdfs.per_user.values)
    assert np.array_equal(cdfs.per_project.values, lcdfs.per_project.values)
    assert cdfs.median_user_files == lcdfs.median_user_files
    assert cdfs.median_project_files == lcdfs.median_project_files
    assert cdfs.top_domains_by_project_mean == lcdfs.top_domains_by_project_mean

    depth, ldepth = values["fig8_depth"], legacy["fig8_depth"]
    assert depth.by_domain == ldepth.by_domain
    assert depth.max_depth == ldepth.max_depth
    assert depth.max_depth_domain == ldepth.max_depth_domain
    assert np.array_equal(depth.all_dirs.values, ldepth.all_dirs.values)
    assert np.array_equal(
        depth.project_max_depth.values, ldepth.project_max_depth.values
    )

    assert values["table2"] == legacy["table2"]

    trend, ltrend = values["fig10"], legacy["fig10"]
    assert trend.labels == ltrend.labels
    assert trend.extensions == ltrend.extensions
    assert np.array_equal(trend.shares, ltrend.shares)
    assert np.array_equal(trend.no_extension, ltrend.no_extension)
    assert np.array_equal(trend.other, ltrend.other)

    assert values["fig11"] == legacy["fig11"]
    assert values["fig12"] == legacy["fig12"]
    assert values["fig13"].weeks == legacy["fig13"].weeks
    assert values["fig14"] == legacy["fig14"]

    growth, lgrowth = values["fig15"], legacy["fig15"]
    assert growth.labels == lgrowth.labels
    assert np.array_equal(growth.files, lgrowth.files)
    assert np.array_equal(growth.directories, lgrowth.directories)

    ages, lages = values["fig16"], legacy["fig16"]
    assert ages.labels == lages.labels
    assert np.array_equal(ages.mean_age_days, lages.mean_age_days)
    assert np.array_equal(ages.median_age_days, lages.median_age_days)

    _assert_burstiness_equal(values["fig17"], legacy["fig17"])
    assert values["table1"] == legacy["table1"]


def test_resolve_specs_expands_requirements():
    specs = resolve_specs("table1")
    names = [s.name for s in specs]
    assert "table1" in names
    for dep in SPECS["table1"].requires:
        assert dep in names
    # registry order preserved (a valid topological order)
    assert names == [s for s in SPECS if s in set(names)]
    assert [s.name for s in resolve_specs("growth")] == ["growth"]
    assert [s.name for s in resolve_specs(["growth", "ages"])] == [
        "growth", "ages",
    ]
    with pytest.raises(ValueError, match="unknown analyses"):
        resolve_specs("growht")


class TestDiskBackedFusion:
    """The headline win: one disk load per snapshot for a full analyze()."""

    @pytest.fixture(scope="class")
    def archived(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("fused_archive")
        pipeline = ReproPipeline(
            SimulationConfig(
                seed=91, scale=2e-6, weeks=8, min_project_files=5,
                stress_depths=False,
            )
        )
        pipeline.simulate()
        pipeline.archive(directory)
        return directory

    def test_fused_analyze_loads_each_snapshot_once(self, archived):
        pipeline, report = analyze_archive(
            archived,
            config=SimulationConfig(seed=91),
            burstiness_min_files=MIN_FILES,
        )
        collection = pipeline.context.collection
        assert isinstance(collection, DiskSnapshotCollection)
        info = collection.cache_info()
        assert info.misses == len(collection)
        # ...and the engine's stats agree (parent-visible loads)
        stats = pipeline.context.execution_stats
        assert stats.snapshot_loads == len(collection)
        assert report.table1 is not None and report.fig17 is not None
        assert "per-kernel" in stats.summary()
