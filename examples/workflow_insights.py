#!/usr/bin/env python
"""Workflow insights — realizing the paper's §7 future work.

"We anticipate that combining multiple system logs (e.g., job logs) and
publication data will allow more interesting insights for understanding
user behavior in large scale HPC systems."

This example runs the simulation with the batch-scheduler log enabled and
joins it against the file-system snapshots:

1. job activity vs file production per project-week (correlation);
2. simulation → analysis workflow chains (§3's motivating workflow motif);
3. compute-vs-storage footprints per science domain;
4. the purge list cross-checked against job activity: projects about to
   lose files *while actively computing* — the operational alert a center
   could actually ship.

Usage::

    python examples/workflow_insights.py [--weeks 24]
"""

import argparse

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.analysis.joblog import (
    compute_storage_footprint,
    job_file_correlation,
    render_joblog,
    workflow_chains,
)
from repro.scan.purgelist import generate_purge_list
from repro.synth.driver import SimulationConfig, run_simulation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weeks", type=int, default=24)
    parser.add_argument("--scale", type=float, default=4e-6)
    parser.add_argument("--seed", type=int, default=2015)
    args = parser.parse_args()

    config = SimulationConfig(
        seed=args.seed,
        scale=args.scale,
        weeks=args.weeks,
        min_project_files=6,
        stress_depths=False,
        collect_job_log=True,
    )
    print(f"simulating {args.weeks} weeks with the scheduler log enabled ...")
    result = run_simulation(config)
    ctx = AnalysisContext(result.collection, result.population)
    job_log = result.job_log

    print(f"\ncollected {len(job_log):,} job records alongside "
          f"{len(result.collection)} snapshots\n")

    corr = job_file_correlation(ctx, job_log)
    chains = workflow_chains(job_log, window_days=14)
    footprint = compute_storage_footprint(ctx, job_log)
    print(render_joblog(corr, chains, footprint))

    # -- operational alert: purge candidates in actively-computing projects
    snapshot = result.collection[-1]
    plist = generate_purge_list(snapshot, window_days=config.purge_window_days)
    by_project = plist.by_project(snapshot)

    jobs = job_log.to_table()
    recent = jobs["start"] > snapshot.timestamp - 14 * 86_400
    active_gids = {int(g) for g in np.unique(jobs["gid"][recent])}

    alerts = sorted(
        ((gid, n) for gid, n in by_project.items() if gid in active_gids),
        key=lambda kv: kv[1],
        reverse=True,
    )
    print(f"\npurge alerts — active projects about to lose files "
          f"({len(plist):,} candidates total):")
    if not alerts:
        print("  (none this week)")
    for gid, n in alerts[:10]:
        project = result.population.projects[gid]
        print(f"  {project.name} ({project.domain}): {n:,} files on the "
              "purge list despite recent compute activity")


if __name__ == "__main__":
    main()
