"""Combined job-log + file-metadata analysis (§7's future work, realized).

The paper closes by predicting that "combining multiple system logs (e.g.,
job logs) and publication data will allow more interesting insights".
With the scheduler log the simulation can emit
(``SimulationConfig(collect_job_log=True)``), three such insights become
measurable:

* **job/file-production correlation** — per (project, week), do more
  compute jobs mean more files?  (They should: sessions produce both.)
* **workflow chains** — the §3 motif "a simulation run followed by data
  analyses or visualization tasks": analysis jobs of a project arriving
  within a follow-up window of a simulation job;
* **compute-vs-storage footprint** — node-seconds vs files produced per
  domain, separating compute-bound from output-bound communities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.fs.clock import SECONDS_PER_DAY
from repro.synth.joblog import JobKind, JobLog


@dataclass
class JobFileCorrelation:
    """Per-(project, week) job counts vs new-file counts."""

    n_cells: int
    pearson_r: float
    jobs_total: int
    files_total: int

    @property
    def correlated(self) -> bool:
        return self.pearson_r > 0.3


def job_file_correlation(ctx: AnalysisContext, job_log: JobLog) -> JobFileCorrelation:
    """Correlate weekly job activity with weekly file production per project."""
    jobs = job_log.to_table()
    n_jobs = len(job_log)
    if len(ctx.collection) < 2 or n_jobs == 0:
        return JobFileCorrelation(0, float("nan"), n_jobs, 0)

    week_len = 7 * SECONDS_PER_DAY
    origin = ctx.collection[0].timestamp - week_len

    # jobs per (gid, week)
    week_of_job = ((jobs["start"] - origin) // week_len).astype(np.int64)
    job_cells: dict[tuple[int, int], int] = {}
    for gid, week in zip(jobs["gid"], week_of_job):
        key = (int(gid), int(week))
        job_cells[key] = job_cells.get(key, 0) + 1

    # new files per (gid, week) from snapshot diffs
    file_cells: dict[tuple[int, int], int] = {}
    files_total = 0
    for week_idx, (prev, cur) in enumerate(ctx.collection.pairs()):
        prev_files = prev.select(prev.is_file)
        cur_files = cur.select(cur.is_file)
        new_ids = cur_files.only_ids(prev_files)
        rows = cur_files.rows_for(new_ids)
        gids, counts = np.unique(cur_files.gid[rows], return_counts=True)
        for gid, count in zip(gids, counts):
            file_cells[(int(gid), week_idx + 1)] = int(count)
            files_total += int(count)

    keys = sorted(set(job_cells) | set(file_cells))
    if len(keys) < 3:
        return JobFileCorrelation(len(keys), float("nan"), n_jobs, files_total)
    x = np.array([job_cells.get(k, 0) for k in keys], dtype=np.float64)
    y = np.array([file_cells.get(k, 0) for k in keys], dtype=np.float64)
    if x.std() == 0 or y.std() == 0:
        r = float("nan")
    else:
        r = float(np.corrcoef(x, y)[0, 1])
    return JobFileCorrelation(
        n_cells=len(keys), pearson_r=r, jobs_total=n_jobs,
        files_total=files_total,
    )


@dataclass
class WorkflowChains:
    """Simulation → analysis follow-ups (the paper's workflow motif)."""

    n_simulation_jobs: int
    n_analysis_jobs: int
    n_chained: int  # analysis jobs within the window of a prior simulation
    window_days: float

    @property
    def chain_fraction(self) -> float:
        """Share of analysis jobs that follow a simulation of the same
        project within the window."""
        if self.n_analysis_jobs == 0:
            return 0.0
        return self.n_chained / self.n_analysis_jobs


def workflow_chains(job_log: JobLog, window_days: float = 14.0) -> WorkflowChains:
    """Count analysis jobs chained to a prior simulation job of the same gid."""
    jobs = job_log.to_table()
    sim_kind = JobKind.SIMULATION.value
    ana_kind = JobKind.ANALYSIS.value
    window = int(window_days * SECONDS_PER_DAY)

    sims_by_gid: dict[int, np.ndarray] = {}
    is_sim = jobs["kind"] == sim_kind
    sim_gids, sim_ends = jobs["gid"][is_sim], jobs["end"][is_sim]
    for gid in np.unique(sim_gids):
        sims_by_gid[int(gid)] = np.sort(sim_ends[sim_gids == gid])

    is_analysis = jobs["kind"] == ana_kind
    chained = 0
    for gid, start in zip(jobs["gid"][is_analysis], jobs["start"][is_analysis]):
        ends = sims_by_gid.get(int(gid))
        if ends is None:
            continue
        idx = int(np.searchsorted(ends, start, side="right")) - 1
        if idx >= 0 and start - ends[idx] <= window:
            chained += 1
    return WorkflowChains(
        n_simulation_jobs=int(is_sim.sum()),
        n_analysis_jobs=int(is_analysis.sum()),
        n_chained=chained,
        window_days=window_days,
    )


@dataclass
class ComputeStorageFootprint:
    """node-seconds vs files produced per domain."""

    #: domain → (node_seconds, files, files per kilo-node-second)
    by_domain: dict[str, tuple[int, int, float]]

    def output_bound(self, k: int = 5) -> list[str]:
        """Domains producing the most files per unit of compute."""
        ranked = sorted(
            self.by_domain.items(), key=lambda kv: kv[1][2], reverse=True
        )
        return [code for code, _ in ranked[:k]]


def compute_storage_footprint(
    ctx: AnalysisContext, job_log: JobLog
) -> ComputeStorageFootprint:
    jobs = job_log.to_table()
    node_seconds: dict[str, int] = {}
    if len(job_log):
        runtime = (jobs["end"] - jobs["start"]) * jobs["nodes"]
        dom = ctx.domain_ids_of_gids(jobs["gid"].astype(np.int64))
        for code in ctx.domain_codes:
            mask = dom == ctx.domain_index[code]
            if mask.any():
                node_seconds[code] = int(runtime[mask].sum())

    # unique files per domain over the whole window
    from repro.analysis.files import entries_by_domain

    counts = entries_by_domain(ctx)
    out: dict[str, tuple[int, int, float]] = {}
    for code, ns in node_seconds.items():
        files = counts.files.get(code, 0)
        rate = 1000.0 * files / ns if ns else 0.0
        out[code] = (ns, files, rate)
    return ComputeStorageFootprint(by_domain=out)


def render_joblog(
    correlation: JobFileCorrelation,
    chains: WorkflowChains,
    footprint: ComputeStorageFootprint,
) -> str:
    lines = [
        f"job/file correlation over {correlation.n_cells:,} (project, week) "
        f"cells: pearson r = {correlation.pearson_r:.2f} "
        f"({correlation.jobs_total:,} jobs, {correlation.files_total:,} new files)",
        f"workflow chains: {chains.n_chained:,} of {chains.n_analysis_jobs:,} "
        f"analysis jobs follow a simulation of the same project within "
        f"{chains.window_days:.0f} days ({chains.chain_fraction:.0%})",
        "most output-bound domains (files per kilo-node-second): "
        + ", ".join(footprint.output_bound(5)),
    ]
    return "\n".join(lines)
