"""Sharded synthesis: partition the center, stream per-shard scan parts.

The paper's center is one namespace scanned weekly; the ROADMAP north star
is millions of users, which no single in-memory :class:`FileSystem` can
hold.  This module splits the simulation by *project*: a stable CRC hash
assigns every project gid to one of N shards, each shard simulates only its
projects' namespaces on its own clock/file system, and every weekly scan is
written straight to a per-shard ``.rpq`` part, with the shard scanner's path
ids beside its rows (:func:`~repro.scan.merge.write_shard_part`) — the full
tree is never materialized in one process.

Determinism is the load-bearing property:

* the supervisor generates the population once, in full, and hands the
  same object to every worker (inherited under fork, pickled once per
  launch under spawn), so uids/gids/memberships are globally consistent;
* each shard's behaviors are seeded from a
  ``SeedSequence(config.seed, spawn_key=(shard,))`` substream, so its
  draws depend only on the shard index — never on which worker ran it,
  in what order, or how many times it died and was restarted;
* a restarted worker re-simulates from week 0 (the sim is cheap and
  deterministic) but skips re-writing weeks already recorded in its
  :class:`~repro.query.journal.KernelJournal` checkpoint, whose appends
  are fsynced — a SIGKILL loses at most the in-flight week, which the
  next attempt rewrites byte-identically (a journal written for another
  part layout, :data:`~repro.scan.merge.PART_FORMAT`, is discarded, so
  the shard is re-simulated).

The merged archive (see :mod:`repro.scan.merge`) is therefore byte-identical
for a fixed shard count regardless of worker count, scheduling order, or
crash history.  After the shard phase the supervisor writes that same
population as the archive's ``accounts.json`` member
(:mod:`repro.core.accounts`), which the merged manifest lists.
"""

from __future__ import annotations

import os
import signal
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.accounts import write_accounts
from repro.core.manifest import config_fingerprint
from repro.core.runcontrol import RunController
from repro.query.journal import KernelJournal
from repro.scan.merge import (
    PART_FORMAT,
    PARTS_DIRNAME,
    merge_shard_parts,
    shard_dir,
    shard_part_path,
    write_shard_part,
)
from repro.scan.store import ArchiveHealthReport, SnapshotFault
from repro.synth.driver import (
    SimulationConfig,
    build_sim_state,
    scan_labels,
    step_weeks,
)
from repro.synth.population import Population, generate_population

#: Journal file carrying one record per completed weekly scan.
SHARD_JOURNAL_NAME = "weeks.journal"

#: Kernel name under which shard scan checkpoints are journaled.
SHARD_KERNEL = "shard-scan"


@dataclass(frozen=True)
class ShardFault:
    """Deterministic fault spec for one shard worker (tests and chaos).

    ``stall_week``/``stall_seconds`` inject a straggler: the worker sleeps
    before processing that week's scan, starving its checkpoint heartbeat.
    ``kill_after_weeks`` makes the worker SIGKILL itself after writing that
    many *new* weekly parts — a deterministic stand-in for a crashed
    worker.  Faults only fire while ``attempt <= max_attempt``, so a
    restarted worker recovers cleanly.
    """

    shard: int
    stall_week: int | None = None
    stall_seconds: float = 0.0
    kill_after_weeks: int | None = None
    max_attempt: int = 1

    def active(self, attempt: int) -> bool:
        return attempt <= self.max_attempt


@dataclass(frozen=True)
class ShardPlan:
    """Stable partition of the project namespace into ``n_shards`` shards."""

    config: SimulationConfig
    n_shards: int

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")

    def shard_of_gid(self, gid: int) -> int:
        """Stable project → shard assignment (CRC of the gid)."""
        return zlib.crc32(b"shard:%d" % gid) % self.n_shards

    def project_gids(self, population: Population, shard: int) -> set[int]:
        return {
            gid for gid in population.projects if self.shard_of_gid(gid) == shard
        }

    def shard_rng(self, shard: int) -> np.random.Generator:
        """The shard's deterministic RNG substream."""
        seq = np.random.SeedSequence(self.config.seed, spawn_key=(shard,))
        return np.random.default_rng(seq)

    def fingerprint(self, shard: int) -> dict:
        """Journal identity: config fingerprint, the shard coordinates and
        the part layout (a journal of parts an older build wrote is
        discarded, so its shard is re-simulated)."""
        return {
            **config_fingerprint(self.config),
            "scale": self.config.scale,
            "weeks": self.config.weeks,
            "n_shards": self.n_shards,
            "shard": shard,
            "part_format": PART_FORMAT,
        }

    def labels(self) -> list[str]:
        return scan_labels(self.config)


def _shard_journal(plan: ShardPlan, shard: int, parts_root: Path) -> KernelJournal:
    labels = plan.labels()
    return KernelJournal(
        shard_dir(parts_root, shard) / SHARD_JOURNAL_NAME,
        kernels=[SHARD_KERNEL],
        labels=labels,
        fingerprint=plan.fingerprint(shard),
    )


def shard_complete(plan: ShardPlan, shard: int, parts_root: str | Path) -> bool:
    """True when every expected part is journaled and present on disk."""
    parts_root = Path(parts_root)
    if not (shard_dir(parts_root, shard) / SHARD_JOURNAL_NAME).exists():
        return False
    labels = plan.labels()
    done = _shard_journal(plan, shard, parts_root).load()
    if len(done) < len(labels):
        return False
    return all(
        shard_part_path(parts_root, shard, label).exists() for label in labels
    )


def simulate_shard(
    plan: ShardPlan,
    population: Population,
    shard: int,
    parts_root: str | Path,
    *,
    attempt: int = 1,
    fault: ShardFault | None = None,
    controller: RunController | None = None,
) -> list[dict]:
    """Simulate one shard's full window, streaming scans to ``.rpq`` parts.

    ``population`` is the run's full population, generated once by the
    caller from ``plan.config``; the shard simulates only its projects.
    Crash-safe and idempotent: each written part is recorded (fsynced) in
    the shard's journal, and a re-run re-simulates deterministically but
    only writes the weeks the journal does not already cover.  Returns one
    ``{"label", "file", "rows", "stored_bytes"}`` record per scan week.
    """
    if not 0 <= shard < plan.n_shards:
        raise ValueError(f"shard {shard} outside plan of {plan.n_shards}")
    parts_root = Path(parts_root)
    out = shard_dir(parts_root, shard)
    out.mkdir(parents=True, exist_ok=True)
    labels = plan.labels()
    journal = _shard_journal(plan, shard, parts_root)
    done = journal.load()
    if fault is not None and not fault.active(attempt):
        fault = None

    # fast path: a fully journaled shard (e.g. the merge crashed after the
    # worker finished) needs no re-simulation at all
    if len(done) == len(labels) and all(
        shard_part_path(parts_root, shard, label).exists() for label in labels
    ):
        return [done[i] for i in range(len(labels))]

    state = build_sim_state(
        plan.config,
        population=population,
        project_gids=plan.project_gids(population, shard),
        rng=plan.shard_rng(shard),
    )

    records: dict[int, dict] = {}
    written = 0
    scan_index = 0
    try:
        for outcome in step_weeks(state, controller=controller):
            if (
                fault is not None
                and fault.stall_week is not None
                and outcome.week == fault.stall_week
            ):
                time.sleep(fault.stall_seconds)
            if outcome.snapshot is None:
                continue
            path = shard_part_path(parts_root, shard, outcome.label)
            record = done.get(scan_index)
            if record is None or not path.exists():
                stats = write_shard_part(outcome.snapshot, path)
                record = {
                    "label": outcome.label,
                    "file": path.name,
                    "rows": len(outcome.snapshot),
                    "stored_bytes": stats["stored_bytes"],
                }
                journal.append(scan_index, record)
                written += 1
                if (
                    fault is not None
                    and fault.kill_after_weeks is not None
                    and written >= fault.kill_after_weeks
                ):  # pragma: no cover - the process dies here
                    os.kill(os.getpid(), signal.SIGKILL)
            records[scan_index] = record
            scan_index += 1
    finally:
        journal.close()
    return [records[i] for i in range(len(labels))]


def shard_worker_entry(
    plan: ShardPlan,
    population: Population,
    shard: int,
    parts_root: str,
    attempt: int,
    fault: ShardFault | None,
) -> None:
    """Picklable worker target for the spawn-capable supervisor."""
    simulate_shard(plan, population, shard, parts_root, attempt=attempt, fault=fault)


@dataclass
class ShardRunResult:
    """A completed sharded run: the merged archive plus its health story."""

    directory: Path
    plan: ShardPlan
    stats: object  # SupervisorStats (query layer; avoid a static import cycle)
    health: ArchiveHealthReport
    records: list[dict] = field(repr=False)

    @property
    def degraded(self) -> bool:
        return self.health.degraded


def run_sharded(
    config: SimulationConfig,
    n_shards: int,
    out_dir: str | Path,
    *,
    workers: int = 0,
    supervisor: object | None = None,
    controller: RunController | None = None,
    faults: list[ShardFault] | None = None,
    on_error: str = "raise",
    on_supervisor=None,
) -> ShardRunResult:
    """Simulate ``config`` over ``n_shards`` shards and merge the archive.

    ``workers=0`` runs every shard inline (no subprocesses) — the baseline
    the byte-identity guarantees are stated against.  ``supervisor`` takes
    a full :class:`~repro.query.supervisor.SupervisorConfig` (then
    ``workers`` is ignored).  ``on_error`` is the shard failure policy:
    ``"raise"`` fails fast on the first quarantined shard or corrupt part;
    ``"skip"``/``"quarantine"`` fold them into the returned
    :class:`ArchiveHealthReport` and merge what survived.
    ``on_supervisor`` is a test hook called with the live supervisor
    before the run starts (the chaos harness uses it to aim SIGKILLs).

    The population is generated once, here: every shard simulates
    against it, and after the shard phase it is written as the merged
    archive's ``accounts.json`` member and dropped before the merge, which
    lists the member in the manifest it commits.
    """
    from repro.query.supervisor import ShardSupervisor, SupervisorConfig

    out_dir = Path(out_dir)
    parts_root = out_dir / PARTS_DIRNAME
    plan = ShardPlan(config=config, n_shards=n_shards)
    if supervisor is None:
        supervisor = SupervisorConfig(workers=workers)
    population = generate_population(seed=config.seed, n_users=config.n_users)
    sup = ShardSupervisor(
        plan,
        population,
        parts_root,
        config=supervisor,
        controller=controller,
        faults=faults,
        on_error=on_error,
    )
    if on_supervisor is not None:
        on_supervisor(sup)
    stats = sup.run()
    quarantines = sup.quarantines
    out_dir.mkdir(parents=True, exist_ok=True)
    accounts = write_accounts(out_dir, population)
    del sup, population  # the merge needs only the member's record

    health = ArchiveHealthReport()
    for q in quarantines:
        health.faults.append(
            SnapshotFault(
                path=str(shard_dir(parts_root, q.shard)),
                reason=(
                    f"shard {q.shard} quarantined after "
                    f"{q.attempts} attempts: {q.reason}"
                ),
                offset=None,
                action="quarantined",
            )
        )
    quarantined = set(stats.quarantined)
    merged_shards = [s for s in range(n_shards) if s not in quarantined]
    records = merge_shard_parts(
        parts_root,
        out_dir,
        config,
        plan.labels(),
        merged_shards,
        on_error=on_error,
        report=health,
        sharding_meta={
            "n_shards": n_shards,
            "quarantined": sorted(quarantined),
            "restarts": stats.restarts,
        },
        accounts=accounts,
    )
    return ShardRunResult(
        directory=out_dir,
        plan=plan,
        stats=stats,
        health=health,
        records=records,
    )
