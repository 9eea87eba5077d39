"""Simulation driver: the 500-day observation window.

Steps the whole synthetic center week by week over the paper's measurement
window (January 2015 → August 2016, 72 weekly snapshots):

1. every project behavior runs one week of activity;
2. the clock advances to the end of the week;
3. LustreDU scans the full namespace (unless the week is one of the
   configured "missing weeks" — the paper lost a few snapshots to system
   maintenance);
4. the purge engine sweeps files unaccessed for 90 days (OLCF purges
   nightly off the LustreDU list; weekly granularity here, which is exactly
   the snapshot resolution the analyses see);
5. behaviors reconcile their live-file tracking against the purge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.runcontrol import RunController, RunInterrupted
from repro.fs.clock import SimClock
from repro.fs.filesystem import FileSystem
from repro.fs.purge import PurgePolicy, PurgeReport
from repro.scan.lustredu import LustreDuScanner
from repro.scan.snapshot import SnapshotCollection
from repro.synth.behavior import build_behaviors
from repro.fs.hpss import HpssArchive
from repro.synth.joblog import JobLog
from repro.synth.population import Population, generate_population


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulated center.

    ``scale`` multiplies the paper-scale per-domain entry counts (Table 1);
    the default of 2.5e-5 yields ≈100 K cumulative entries — large enough
    for every distribution to have shape, small enough for a laptop.  The
    population (users, projects, domains) is always generated at full scale,
    so the §4.3 network results reproduce 1:1.
    """

    seed: int = 2015
    scale: float = 2.5e-5
    weeks: int = 72
    n_users: int = 1362
    purge_window_days: int = 90
    ost_count: int = 2016
    default_stripe: int = 4
    max_stripe: int = 1008
    growth: float = 8.0
    backlog_fraction: float = 0.08
    backlog_age_days: int = 500
    keepalive_fraction: float = 0.85
    missing_weeks: tuple[int, ...] = ()
    stress_depths: bool = True
    min_project_files: int = 30
    #: also collect a batch-scheduler job log (the §7 future-work input)
    collect_job_log: bool = False
    #: also model the HPSS archival tier (§2.1): archive-before-purge
    #: sweeps, recalls back to scratch, ingest/recall accounting
    enable_hpss: bool = False

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.weeks < 2:
            raise ValueError("need at least 2 weeks for any diff analysis")
        if not 0.0 <= self.backlog_fraction < 1.0:
            raise ValueError("backlog_fraction must be in [0, 1)")


@dataclass
class WeekStats:
    week: int
    label: str
    created: int
    updated: int
    read: int
    deleted: int
    kept_alive: int
    purged: int
    live_entries: int


@dataclass
class SimState:
    """Live simulation state shared by the driver and the shard workers."""

    config: SimulationConfig
    population: Population
    fs: FileSystem = field(repr=False)
    clock: SimClock = field(repr=False)
    behaviors: list = field(repr=False)
    scanner: LustreDuScanner = field(repr=False)
    purge: PurgePolicy = field(repr=False)
    job_log: JobLog | None = field(repr=False, default=None)
    hpss: HpssArchive | None = field(repr=False, default=None)


@dataclass
class WeekOutcome:
    """One stepped week: the scan (if any) plus bookkeeping."""

    week: int
    label: str
    snapshot: object | None
    purge_report: PurgeReport
    stats: WeekStats


def build_sim_state(
    config: SimulationConfig,
    *,
    population: Population | None = None,
    project_gids: set[int] | None = None,
    rng: np.random.Generator | None = None,
) -> SimState:
    """Build population, file system, behaviors, and backlog for one run.

    ``project_gids`` restricts the behaviors (and therefore the namespace)
    to a subset of projects — the shard worker path.  The population is
    always generated in full so uids/gids and memberships are globally
    consistent across shards; only the *simulated* projects differ.
    ``rng`` overrides the behavior-seeding stream (shards use
    ``SeedSequence``-derived substreams so draws never depend on which
    worker runs which shard).
    """
    cfg = config
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if population is None:
        population = generate_population(seed=cfg.seed, n_users=cfg.n_users)
    sim_population = population
    if project_gids is not None:
        sim_population = Population(
            users=population.users,
            projects={
                g: p for g, p in population.projects.items() if g in project_gids
            },
            seed=population.seed,
        )

    clock = SimClock()
    fs = FileSystem(
        clock=clock,
        ost_count=cfg.ost_count,
        default_stripe=cfg.default_stripe,
        max_stripe=cfg.max_stripe,
    )
    behaviors = build_behaviors(
        sim_population,
        n_weeks=cfg.weeks,
        scale=cfg.scale,
        rng=rng,
        growth=cfg.growth,
        keepalive_fraction=cfg.keepalive_fraction,
        min_project_files=cfg.min_project_files,
        stress_depths=cfg.stress_depths,
    )
    job_log = JobLog() if cfg.collect_job_log else None
    hpss = HpssArchive() if cfg.enable_hpss else None
    for behavior in behaviors:
        behavior.job_log = job_log
        behavior.archive = hpss
        behavior.setup(fs)

    # -- backlog: the file system was not empty in January 2015 ------------
    if cfg.backlog_fraction > 0:
        for behavior in behaviors:
            backlog = int(
                behavior.total_files
                * cfg.backlog_fraction
                / (1.0 - cfg.backlog_fraction)
            )
            behavior.seed_backlog(fs, clock.now, backlog, cfg.backlog_age_days)

    return SimState(
        config=cfg,
        population=population,
        fs=fs,
        clock=clock,
        behaviors=behaviors,
        scanner=LustreDuScanner(),
        purge=PurgePolicy(window_days=cfg.purge_window_days),
        job_log=job_log,
        hpss=hpss,
    )


def step_weeks(
    state: SimState,
    controller: RunController | None = None,
    verbose: bool = False,
):
    """Yield one :class:`WeekOutcome` per simulated week.

    The cancellation point is the week boundary: a deadline expiry or
    signal raises :class:`RunInterrupted` before the next week starts,
    with the completed weeks' :class:`WeekStats` as ``partial``.
    """
    cfg = state.config
    fs, clock = state.fs, state.clock
    completed: list[WeekStats] = []
    for week in range(cfg.weeks):
        if controller is not None:
            reason = controller.should_stop()
            if reason is not None:
                raise RunInterrupted(
                    f"simulation interrupted ({reason}) after "
                    f"{week}/{cfg.weeks} weeks",
                    reason=reason,
                    partial=completed,
                    resume_hint=(
                        "the simulation is deterministic from the seed; "
                        "re-run the same command (raise --max-seconds to "
                        "let it finish)"
                    ),
                )
        week_start = clock.now
        totals = {"created": 0, "updated": 0, "read": 0, "deleted": 0,
                  "kept_alive": 0}
        for behavior in state.behaviors:
            stats = behavior.step_week(fs, week, week_start)
            for key in totals:
                totals[key] += stats[key]
        clock.advance_days(7)

        label = clock.datestamp()
        snapshot = None
        if week not in cfg.missing_weeks:
            snapshot = state.scanner.scan(fs, label=label)

        report = state.purge.sweep(fs)
        if report.purged:
            for behavior in state.behaviors:
                behavior.reconcile(fs)

        stats = WeekStats(
            week=week,
            label=label,
            purged=report.purged,
            live_entries=fs.entry_count,
            **totals,
        )
        completed.append(stats)
        if verbose:  # pragma: no cover - progress printing
            print(
                f"week {week:3d} {label}: live={fs.entry_count:>9,d} "
                f"new={totals['created']:>7,d} purged={report.purged:>7,d}"
            )
        yield WeekOutcome(
            week=week,
            label=label,
            snapshot=snapshot,
            purge_report=report,
            stats=stats,
        )


def scan_labels(config: SimulationConfig) -> list[str]:
    """The datestamp labels a run of ``config`` will scan, in order.

    Pure clock arithmetic — lets the shard supervisor and merge know the
    expected part set without simulating anything.
    """
    clock = SimClock()
    labels: list[str] = []
    for week in range(config.weeks):
        clock.advance_days(7)
        if week not in config.missing_weeks:
            labels.append(clock.datestamp())
    return labels


@dataclass
class SimulationResult:
    """Everything the analyses and benches need from one run."""

    config: SimulationConfig
    population: Population
    fs: FileSystem = field(repr=False)
    scanner: LustreDuScanner = field(repr=False)
    collection: SnapshotCollection = field(repr=False)
    purge_reports: list[PurgeReport] = field(repr=False)
    week_stats: list[WeekStats] = field(repr=False)
    job_log: JobLog | None = field(repr=False, default=None)
    hpss: HpssArchive | None = field(repr=False, default=None)

    @property
    def n_snapshots(self) -> int:
        return len(self.collection)


class SimulationDriver:
    """Builds the population, seeds the backlog, and runs the window."""

    def __init__(self, config: SimulationConfig | None = None) -> None:
        self.config = config if config is not None else SimulationConfig()

    def run(
        self,
        verbose: bool = False,
        controller: RunController | None = None,
    ) -> SimulationResult:
        """Run the full window; ``controller`` makes it interruptible.

        The cancellation point is the week boundary: a deadline expiry or
        signal raises :class:`RunInterrupted` before the next week starts,
        with the completed weeks' :class:`WeekStats` as ``partial``.  The
        simulation is deterministic from the seed, so the resume story is
        simply re-running (there is nothing durable to checkpoint here —
        the expensive, resumable stages are archive/analyze).
        """
        state = build_sim_state(self.config)
        collection = SnapshotCollection(state.scanner.paths)
        purge_reports: list[PurgeReport] = []
        week_stats: list[WeekStats] = []
        for outcome in step_weeks(state, controller=controller, verbose=verbose):
            if outcome.snapshot is not None:
                collection.append(outcome.snapshot)
            purge_reports.append(outcome.purge_report)
            week_stats.append(outcome.stats)

        return SimulationResult(
            config=state.config,
            population=state.population,
            fs=state.fs,
            scanner=state.scanner,
            collection=collection,
            purge_reports=purge_reports,
            week_stats=week_stats,
            job_log=state.job_log,
            hpss=state.hpss,
        )


def run_simulation(
    config: SimulationConfig | None = None,
    verbose: bool = False,
    controller: RunController | None = None,
) -> SimulationResult:
    """One-call convenience wrapper used by examples and benches."""
    return SimulationDriver(config).run(verbose=verbose, controller=controller)
