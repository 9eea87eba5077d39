"""repro — reproduction of "Scientific User Behavior and Data-Sharing
Trends in a Petascale File System" (Lim, Sim, Gunasekaran, Vazhkudai,
SC'17, DOI 10.1145/3126908.3126924).

The package builds, from scratch, everything the study needs:

* :mod:`repro.fs` — a Lustre-like parallel file system simulator (POSIX
  timestamps, OST striping, purge policy, quotas, optional changelog and
  HPSS archive tier);
* :mod:`repro.synth` — a synthetic OLCF: 35 science domains, 1,362 users,
  380 projects, per-project workload models calibrated to the paper's
  published per-domain statistics, plus a batch-scheduler job log and a
  portable workload-trace format;
* :mod:`repro.scan` — the LustreDU metadata scanner, PSV snapshot codec,
  columnar snapshot store, and purge-list generation;
* :mod:`repro.query`, :mod:`repro.stats`, :mod:`repro.graph` — the
  fused kernel pass (the SparkSQL stand-in) and its parallel execution
  engine, statistics, and graph algorithms the analyses are built on;
* :mod:`repro.analysis` — one module per paper artifact (Tables 1–3,
  Figures 5–20) plus the Observations scorecard and CSV exporters;
* :mod:`repro.core` — the end-to-end pipeline and the ``repro-pipeline``
  CLI.

Quickstart::

    from repro.core.pipeline import run_paper_report
    from repro.synth.driver import SimulationConfig

    pipeline, report = run_paper_report(SimulationConfig(scale=1e-5))
    print(report.text)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
