"""Absolute pins for the §7 job-log analyses.

The config is the one ``tests/test_examples.py`` runs
``examples/workflow_insights.py`` with (``--scale 1e-6 --weeks 8``, the
default seed).  Every field of the three results and the rendered text are
pinned, so a change to how the job log hands its columns to the analyses
must leave them exactly as they are.  Rates are ``1000 * files / ns`` of
pinned integers, a correctly rounded IEEE quotient, so they are compared
exactly; only Pearson's r, a numpy reduction, gets a relative tolerance.
"""

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.joblog import (
    compute_storage_footprint,
    job_file_correlation,
    render_joblog,
    workflow_chains,
)
from repro.synth.driver import SimulationConfig, run_simulation

FOOTPRINT = {
    "aph": (10988600, 22), "ard": (17962135, 83), "ast": (18147187, 93),
    "atm": (8327178, 23), "bif": (18454475, 218), "bio": (4460278, 56),
    "bip": (78032174, 540), "chm": (15164407, 78), "chp": (9379524, 341),
    "cli": (36694568, 220), "cmb": (34305056, 262), "cph": (17502854, 74),
    "csc": (91331399, 537), "env": (1649739, 21), "fus": (21504579, 130),
    "gen": (6581466, 21), "geo": (21056957, 285), "hep": (1801102, 17),
    "lgt": (4716497, 17), "lsc": (6057433, 27), "mat": (39861221, 250),
    "med": (4316991, 18), "mph": (4904173, 21), "nel": (4095396, 23),
    "nfi": (9890182, 52), "nfu": (2835841, 10), "nph": (37683702, 268),
    "nro": (795532, 9), "nti": (7854293, 32), "phy": (8553422, 48),
    "pss": (3108825, 5), "stf": (28170483, 566), "syb": (2377887, 10),
    "tur": (22934817, 290), "ven": (10968936, 54),
}

TEXT = (
    "job/file correlation over 2,074 (project, week) cells: pearson r = 0.57 "
    "(2,727 jobs, 4,460 new files)\n"
    "workflow chains: 234 of 235 analysis jobs follow a simulation of the "
    "same project within 14 days (100%)\n"
    "most output-bound domains (files per kilo-node-second): "
    "chp, stf, geo, env, tur"
)


@pytest.fixture(scope="module")
def insights():
    config = SimulationConfig(
        seed=2015, scale=1e-6, weeks=8, min_project_files=6,
        stress_depths=False, collect_job_log=True,
    )
    result = run_simulation(config)
    ctx = AnalysisContext(result.collection, result.population)
    return (
        job_file_correlation(ctx, result.job_log),
        workflow_chains(result.job_log, window_days=14),
        compute_storage_footprint(ctx, result.job_log),
    )


def test_job_file_correlation_pinned(insights):
    corr, _, _ = insights
    assert (corr.n_cells, corr.jobs_total, corr.files_total) == (2074, 2727, 4460)
    assert corr.pearson_r == pytest.approx(0.5745833450435484, rel=1e-12)


def test_workflow_chains_pinned(insights):
    _, chains, _ = insights
    assert (
        chains.n_simulation_jobs, chains.n_analysis_jobs, chains.n_chained,
        chains.window_days,
    ) == (2492, 235, 234, 14)


def test_compute_storage_footprint_pinned(insights):
    _, _, footprint = insights
    assert footprint.by_domain == {
        code: (ns, files, 1000.0 * files / ns)
        for code, (ns, files) in FOOTPRINT.items()
    }


def test_render_joblog_pinned(insights):
    assert render_joblog(*insights) == TEXT
