"""Pipeline-stage benchmarks: LustreDU scan throughput and the PSV →
columnar conversion (the paper's Parquet stage, §3/Figure 4).  The
fused-kernel vs per-analysis-pass ablation is recorded in
``output/pipeline_fused_ablation.txt``."""

import io

from conftest import emit

from repro.scan.columnar import write_columnar
from repro.scan.lustredu import LustreDuScanner
from repro.scan.psv import write_psv


def test_scan_throughput(benchmark, sim_result, artifact_dir):
    """Full-namespace metadata scan (the nightly LustreDU walk)."""
    fs = sim_result.fs

    def scan_once():
        return LustreDuScanner().scan(fs, label="bench")

    snap = benchmark.pedantic(scan_once, rounds=3, iterations=1)
    assert len(snap) == fs.entry_count - 1
    emit(
        artifact_dir,
        "pipeline_scan",
        f"scanned {len(snap):,} live entries "
        f"({snap.n_files:,} files, {snap.n_dirs:,} dirs)",
    )


def test_psv_to_columnar_reduction(benchmark, sim_result, tmp_path, artifact_dir):
    """The paper's 119 GB PSV → 28 GB Parquet footprint argument."""
    snap = sim_result.collection[-1]

    def convert():
        return write_columnar(snap, tmp_path / "snap.rpq")

    stats = benchmark.pedantic(convert, rounds=3, iterations=1)
    buf = io.StringIO()
    psv_bytes = write_psv(snap, buf, ost_count=sim_result.config.ost_count)
    col_bytes = (tmp_path / "snap.rpq").stat().st_size
    reduction = psv_bytes / col_bytes
    # the paper saw ~4x; columnar must clearly beat the text format
    assert reduction > 2.0
    emit(
        artifact_dir,
        "pipeline_columnar",
        f"PSV {psv_bytes:,} B → columnar {col_bytes:,} B "
        f"({reduction:.1f}x reduction; paper: ~4.3x)\n"
        f"in-memory raw/stored ratio: {stats['ratio']:.1f}x",
    )
