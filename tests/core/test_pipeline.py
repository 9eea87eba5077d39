import pytest

from repro.core.pipeline import PaperReport, ReproPipeline, run_paper_report
from repro.synth.driver import SimulationConfig

TINY = SimulationConfig(
    seed=31, scale=1.5e-6, weeks=6, min_project_files=4, stress_depths=True
)


@pytest.fixture(scope="module")
def pipeline_and_report():
    return run_paper_report(TINY, burstiness_min_files=3)


def test_analyze_before_simulate_raises():
    pipeline = ReproPipeline(TINY)
    with pytest.raises(RuntimeError):
        pipeline.analyze()
    with pytest.raises(RuntimeError):
        pipeline.archive("/tmp/nowhere")


def test_pipeline_produces_report(pipeline_and_report):
    _, report = pipeline_and_report
    assert isinstance(report, PaperReport)
    assert len(report.table1) == 35
    assert "TABLE 1" in report.text
    assert "FIGURE 20" in report.text
    # every section header made it into the rendered text
    for artifact in ("TABLE 2", "TABLE 3", "FIGURE 13", "FIGURE 16", "FIGURE 18"):
        assert artifact in report.text


def test_pipeline_archive_round_trip(pipeline_and_report, tmp_path):
    pipeline, _ = pipeline_and_report
    stats = pipeline.archive(tmp_path, max_snapshots=2)
    assert stats.columnar_bytes > 0
    # the archive publishes columnar files only (PSV is an export format)
    assert list(tmp_path.glob("*.psv")) == []
    rpq_files = sorted(tmp_path.glob("*.rpq"))
    assert len(rpq_files) == 2
    from repro.core.accounts import ACCOUNTS_NAME
    from repro.core.manifest import load_manifest

    assert load_manifest(tmp_path)["accounts"]["file"] == ACCOUNTS_NAME
    assert (tmp_path / ACCOUNTS_NAME).exists()

    # the columnar file re-loads into the same rows
    from repro.scan.columnar import read_columnar
    from repro.scan.paths import PathTable

    snap = read_columnar(rpq_files[0], PathTable())
    assert len(snap) > 0


def test_cli_main_runs(tmp_path, capsys):
    from repro.core.cli import main

    rc = main(
        [
            "--scale", "1.5e-6",
            "--weeks", "5",
            "--burstiness-min-files", "3",
            "--archive-dir", str(tmp_path / "arch"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "TABLE 1" in out
    assert (tmp_path / "arch").exists()


def test_cli_parser_defaults():
    from repro.core.cli import build_parser

    args = build_parser().parse_args([])
    assert args.seed == 2015
    assert args.weeks == 72
    assert not args.parallel


def test_analyze_archive_matches_memory(tmp_path):
    from repro.core.pipeline import analyze_archive

    pipeline = ReproPipeline(TINY)
    pipeline.simulate()
    pipeline.archive(tmp_path)
    mem = pipeline.analyze()
    _, disk = analyze_archive(tmp_path, config=TINY, burstiness_min_files=3)
    mem_rows = {r.domain: (r.entries_k, r.depth_max) for r in mem.table1}
    disk_rows = {r.domain: (r.entries_k, r.depth_max) for r in disk.table1}
    assert mem_rows == disk_rows


def test_analyze_selected_subset(pipeline_and_report):
    pipeline, _ = pipeline_and_report
    report = pipeline.analyze(analyses="growth,ages")
    assert report.fig15 is not None and report.fig16 is not None
    assert report.table1 is None and report.fig17 is None
    assert "FIGURE 15" in report.text and "FIGURE 16" in report.text
    assert "TABLE 1" not in report.text


def test_analyze_unknown_analysis_raises(pipeline_and_report):
    pipeline, _ = pipeline_and_report
    with pytest.raises(ValueError, match="unknown analyses"):
        pipeline.analyze(analyses="growht")


def test_cli_analyses_selection(tmp_path, capsys):
    from repro.core.cli import main

    rc = main(
        ["--scale", "1.5e-6", "--weeks", "5", "--seed", "31",
         "--analyses", "growth", "--engine-stats"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "FIGURE 15" in captured.out
    assert "TABLE 1" not in captured.out
    assert "execution engine" in captured.err or "runs" in captured.err


def test_export_all_skips_uncomputed_sections(pipeline_and_report, tmp_path):
    from repro.analysis.export import export_all

    pipeline, full_report = pipeline_and_report
    partial = pipeline.analyze(analyses="growth")
    written = export_all(partial, tmp_path)
    names = {p.name for p in written}
    assert names == {"fig15_growth.csv"}
    full = export_all(full_report, tmp_path)
    assert len(full) == 9


def test_cli_from_archive(tmp_path, capsys):
    from repro.core.cli import main

    arch = tmp_path / "arch"
    rc = main(
        ["--scale", "1.5e-6", "--weeks", "5", "--seed", "31",
         "--burstiness-min-files", "3", "--archive-dir", str(arch)]
    )
    assert rc == 0
    capsys.readouterr()
    rc = main(
        ["--scale", "1.5e-6", "--weeks", "5", "--seed", "31",
         "--burstiness-min-files", "3", "--from-archive", str(arch)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "TABLE 1" in out
