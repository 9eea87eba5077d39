import numpy as np
import pytest

from repro.synth.driver import SimulationConfig, run_simulation
from repro.synth.joblog import JobKind, JobLog, sample_job_shape

COLUMNS = ["job_id", "kind", "uid", "gid", "nodes", "submit", "start", "end"]


def test_submit_and_read_back():
    log = JobLog()
    job = log.submit(JobKind.SIMULATION, uid=10, gid=20, nodes=64,
                     start_time=1000, runtime=3600, queue_wait=120)
    assert len(log) == 1
    assert job.kind is JobKind.SIMULATION
    assert job.runtime == 3600
    assert job.queue_wait == 120
    assert job.submit_time == 880
    assert job.node_seconds == 64 * 3600
    assert log[0] == job


def test_submit_validation():
    log = JobLog()
    with pytest.raises(ValueError):
        log.submit(JobKind.ANALYSIS, 1, 1, nodes=0, start_time=0, runtime=10)
    with pytest.raises(ValueError):
        log.submit(JobKind.ANALYSIS, 1, 1, nodes=1, start_time=0, runtime=0)


def test_to_table_roundtrip():
    log = JobLog()
    log.submit(JobKind.SIMULATION, 1, 2, 8, 100, 50)
    log.submit(JobKind.ANALYSIS, 3, 4, 1, 300, 20)
    table = log.to_table()
    assert list(table) == COLUMNS
    assert all(col.dtype == np.int64 and len(col) == 2 for col in table.values())
    assert table["gid"].tolist() == [2, 4]
    assert table["end"].tolist() == [150, 320]


def test_to_table_empty():
    table = JobLog().to_table()
    assert list(table) == COLUMNS
    assert all(col.dtype == np.int64 and len(col) == 0 for col in table.values())


def test_job_shapes_kind_ordering():
    rng = np.random.default_rng(9)
    sims = [sample_job_shape(JobKind.SIMULATION, rng, 500) for _ in range(200)]
    anas = [sample_job_shape(JobKind.ANALYSIS, rng) for _ in range(200)]
    stg = [sample_job_shape(JobKind.STAGING, rng) for _ in range(50)]
    assert np.mean([n for n, _, _ in sims]) > np.mean([n for n, _, _ in anas])
    assert np.mean([r for _, r, _ in sims]) > np.mean([r for _, r, _ in anas])
    assert all(n == 1 for n, _, _ in stg)
    # Titan's node ceiling respected
    assert max(n for n, _, _ in sims) <= 18_688


def test_driver_collects_job_log():
    cfg = SimulationConfig(seed=13, scale=1.5e-6, weeks=6, min_project_files=4,
                           stress_depths=False, collect_job_log=True)
    result = run_simulation(cfg)
    assert result.job_log is not None
    assert len(result.job_log) > 50
    table = result.job_log.to_table()
    kinds = set(table["kind"].tolist())
    assert JobKind.SIMULATION.value in kinds
    assert JobKind.ANALYSIS.value in kinds
    # every job belongs to a real project
    gids = set(table["gid"].tolist())
    assert gids <= set(result.population.projects)


def test_driver_off_by_default():
    cfg = SimulationConfig(seed=13, scale=1e-6, weeks=3, min_project_files=4,
                           stress_depths=False)
    result = run_simulation(cfg)
    assert result.job_log is None
