"""Per-project workload behavior models.

Each science project gets a :class:`ProjectBehavior` that drives the file
system one simulated week at a time, reproducing the behaviors the paper
measures:

* **bursty write sessions** (§4.2.4) — the week's new files are created in
  a few clustered sessions whose spread is inverted from the domain's
  Table 1 write-``c_v``;
* **read campaigns and keep-alive sweeps** — analysis jobs re-read old
  outputs in tight bursts (the ~100×-lower read ``c_v`` of Figure 17(b)),
  and a subset of projects runs the cron-style "touch to dodge the purge"
  scripts the paper explicitly mentions (§4.2.3), which is what pushes the
  mean file age past the 90-day purge window (Figure 16);
* **updates and deletions** — checkpoint rewrites (the ~10% "updated" band
  of Figure 13) and user cleanup (part of the "deleted" band; the purge
  engine supplies the rest);
* **directory-tree growth** — geometric depth increments calibrated to the
  domain's Table 1 median/max depth, with many files per leaf directory
  (§4.1.2) except in the directory-heavy domains (atm, hep);
* **stripe tuning** (§4.2.1) — domains with non-default Table 1 OST counts
  `lfs setstripe` their data directories, including the published per-domain
  maxima;
* **stress trees** — the depth-2,030 Staff metadata stress test and the
  depth-432 General project from §4.1.2.
"""

from __future__ import annotations

import functools
from bisect import bisect_right

import numpy as np

from repro.fs.clock import SECONDS_PER_DAY
from repro.fs.filesystem import FileSystem
from repro.fs.inode import S_IFMT, S_IFREG
from repro.synth.calibration import (
    DEFAULT_READ_CV,
    DEFAULT_WRITE_CV,
    USER_DIR_DEPTH,
    depth_geometric_p,
    project_budget_shares,
    sessions_per_week,
    spread_from_cv,
    weekly_weights,
)
from repro.synth.domains import DomainSpec
from repro.fs.hpss import ArchivePolicy, HpssArchive
from repro.synth.joblog import JobKind, JobLog, sample_job_shape
from repro.synth.naming import ExtensionSampler, normalized_cdf
from repro.synth.population import ProjectRecord

WEEK_SECONDS = 7 * SECONDS_PER_DAY

#: Weekly fraction of a project's live files rewritten in place (Figure 13's
#: "updated" band sits around 10%).
UPDATE_RATE = 0.08
#: Weekly fraction of live files read during a campaign week.
READ_FRACTION = 0.06
#: Fraction of stale files each keep-alive sweep actually touches (the
#: scripts stagger; untouched files get caught on a later sweep, still
#: comfortably inside the 90-day purge window).
KEEPALIVE_SAMPLE = 0.7
#: Probability that a given week contains a read campaign at all.
READ_CAMPAIGN_PROB = 0.35
#: Weekly fraction of *old* live files the users themselves delete.
DELETE_RATE = 0.018
#: Fraction of each week's new files that are transient — staging and
#: intermediate outputs cleaned up the following week.  File lifetimes in
#: the paper are strongly bimodal: Figure 13 shows 13%/22% weekly
#: delete/create churn while Figure 16 shows the surviving bulk aging far
#: past the purge window; transient churn supplies the former without
#: culling the durable stock that supplies the latter.
TRANSIENT_FRACTION = 0.50
#: Keep-alive sweeps touch files whose atime is older than this (just
#: inside the 90-day purge window, so protected files are touched roughly
#: every 9 weeks and a missed sample has several more sweeps before purge — the paper's "readonly" band stays thin).
KEEPALIVE_AFTER_DAYS = 50
#: Probability that a new working directory carries a tuned stripe count
#: (only in domains whose Table 1 row deviates from the default of 4).
STRIPE_TUNE_PROB = 0.3
#: Weekly probability that a project recalls archived data from HPSS for a
#: fresh analysis round (only when the HPSS model is enabled).
RECALL_PROB = 0.08


@functools.cache
def _domain_knobs(spec: DomainSpec) -> tuple[float, float, float]:
    """A domain's write spread, read spread and depth parameter, computed
    once per domain rather than once per project."""
    return (
        spread_from_cv(spec.write_cv, DEFAULT_WRITE_CV),
        spread_from_cv(spec.read_cv, DEFAULT_READ_CV),
        depth_geometric_p(spec.depth_median),
    )


class ProjectBehavior:
    """Weekly workload driver for one project allocation."""

    def __init__(
        self,
        project: ProjectRecord,
        spec: DomainSpec,
        rng: np.random.Generator,
        total_files: int,
        n_weeks: int,
        growth: float = 3.0,
        keepalive: bool = False,
        stress_depth: int | None = None,
        atlas: int = 1,
    ) -> None:
        self.project = project
        self.spec = spec
        self.rng = rng
        self.total_files = int(total_files)
        self.n_weeks = int(n_weeks)
        self.keepalive = keepalive
        self.stress_depth = stress_depth
        self.atlas = atlas

        self.write_spread, self.read_spread, self.depth_p = _domain_knobs(spec)
        self.sampler = ExtensionSampler(spec, rng)

        start = int(rng.integers(0, max(n_weeks // 6, 1)))
        end = int(rng.integers(min(5 * n_weeks // 6, n_weeks - 1), n_weeks))
        self.weights = weekly_weights(
            n_weeks, start, end, growth, spec.campaign_week
        )
        self._budget_carry = 0.0

        members = project.members if project.members else [0]
        shares = rng.dirichlet(np.full(len(members), 0.5))
        self.member_uids = np.array(members, dtype=np.int64)
        # bisect_right over the CDF as floats picks what searchsorted(...,
        # side="right") picks, without a NumPy call per session
        self._member_cdf: list[float] = normalized_cdf(shares).tolist()
        # members who have not yet produced a file here; early sessions
        # rotate through them so every affiliated user becomes "active"
        # in the §4.1.1 sense (the paper counts 1,362 users by snapshot UID)
        self._unwritten: list[int] = [int(u) for u in members]

        # live-file tracking (kept reconciled with purge/deletes)
        self._inos: np.ndarray = np.empty(0, dtype=np.int64)
        # last week's transient outputs, one slice per session, cleaned up
        # at the next step
        self._transient: list[np.ndarray] = []
        # directory pool: every working dir, plus the first one made at
        # each component depth (the anchor new chains grow from)
        self._dir_inos: list[int] = []
        self._first_dir_at_depth: dict[int, int] = {}
        self._dir_ordinal = 0
        self._tuned_dirs = 0
        self.root_ino: int | None = None
        self._user_dirs: dict[int, int] = {}
        # optional scheduler log (the paper's job-log future work);
        # set by the driver when job collection is enabled
        self.job_log: JobLog | None = None
        # optional archival tier (§2.1: scratch data moves to HPSS);
        # set by the driver when the HPSS model is enabled
        self.archive: HpssArchive | None = None
        self.archive_policy = ArchivePolicy()
        self._restored_dir: int | None = None
        self._recall_counter = 0
        # feedback control for the domain's directory share (§4.1.2):
        # directories are created only while the running dir count trails
        # files * df/(1-df), so the entry mix converges on dir_fraction
        # regardless of session sizes or scale
        self._files_made = 0
        self._dirs_made = 0

    # -- setup ------------------------------------------------------------

    @property
    def root_path(self) -> str:
        return f"/lustre/atlas{self.atlas}/{self.spec.code}/{self.project.name}"

    def setup(self, fs: FileSystem) -> None:
        """Create the project root and any stress tree.

        Per-member user directories are created lazily on each member's
        first write session — inactive members never materialize one, which
        keeps the structural directory overhead proportional to actual
        activity (important at reduced simulation scale).
        """
        owner = int(self.member_uids[0])
        self.root_ino = fs.makedirs(self.root_path, uid=owner, gid=self.project.gid)
        if self.stress_depth:
            self._build_stress_chain(fs)

    def _ensure_user_dir(self, fs: FileSystem, uid: int) -> int:
        ino = self._user_dirs.get(uid)
        if ino is None:
            ino = fs.mkdir(self.root_ino, f"u{uid}", uid, self.project.gid)
            self._user_dirs[uid] = ino
        return ino

    def _build_stress_chain(self, fs: FileSystem) -> None:
        """The §4.1.2 pathological chain (depth 2,030 stf / 432 gen)."""
        uid = int(self.member_uids[0])
        cur = self._ensure_user_dir(fs, uid)
        depth = USER_DIR_DEPTH
        while depth < self.stress_depth:
            cur = fs.mkdir(cur, f"d{depth:04d}", uid, self.project.gid)
            depth += 1
        # leave a marker file at the bottom, like the real stress test
        fs.create(cur, "probe.dat", uid, self.project.gid)
        self._add_dir(cur, depth)

    def _add_dir(self, ino: int, depth: int) -> None:
        self._dir_inos.append(ino)
        self._first_dir_at_depth.setdefault(depth, ino)

    # -- directory growth ----------------------------------------------------

    def _new_directory(self, fs: FileSystem, uid: int, timestamp: int) -> int:
        """Create a working directory at a depth drawn from the domain model."""
        extra = int(self.rng.geometric(self.depth_p))
        target = min(USER_DIR_DEPTH + extra, self.spec.depth_max)
        user_dir = self._ensure_user_dir(fs, uid)
        # chain from the first working dir at the deepest depth shallower
        # than the target (fewest intermediate directories); fall back to
        # the user dir
        depth = max(
            (d for d in self._first_dir_at_depth if d < target), default=None
        )
        if depth is not None:
            cur = self._first_dir_at_depth[depth]
        else:
            cur = user_dir
            depth = USER_DIR_DEPTH
        while depth < target:
            self._dir_ordinal += 1
            name = self.sampler.sample_dir_name(self._dir_ordinal)
            cur = fs.mkdir(cur, name, uid, self.project.gid, timestamp=timestamp)
            depth += 1
            self._add_dir(cur, depth)
            self._dirs_made += 1
        self._maybe_tune_stripe(fs, cur)
        return cur

    def _maybe_tune_stripe(self, fs: FileSystem, dir_ino: int) -> None:
        if not self.spec.tunes_stripes:
            return
        self._tuned_dirs += 1
        if self._tuned_dirs == 1:
            fs.setstripe(dir_ino, self.spec.max_ost)  # the Table 1 maximum
        elif self._tuned_dirs == 2 and self.spec.min_ost != 4:
            fs.setstripe(dir_ino, self.spec.min_ost)
        elif self.rng.random() < STRIPE_TUNE_PROB:
            lo = np.log(max(self.spec.min_ost, 1))
            hi = np.log(max(self.spec.max_ost, 2))
            stripe = int(round(np.exp(self.rng.uniform(lo, hi))))
            fs.setstripe(dir_ino, max(1, min(stripe, self.spec.max_ost)))

    def _pick_directory(
        self, fs: FileSystem, uid: int, timestamp: int, upcoming_files: int = 0
    ) -> int:
        """Reuse a working directory, or grow new ones while the project's
        directory share trails its domain's ``dir_fraction`` target."""
        df = self.spec.dir_fraction
        # Directories are never deleted while files churn, so the directory
        # share of the *live* namespace runs ~3x the share of cumulative
        # creations; the discount compensates (and leaves room for the
        # structural project/user directories).  Directory-heavy domains
        # (atm at 90%, hep at 67%) keep their full odds -- their signature
        # is precisely an overwhelming directory share.
        discount = 1.0 if df > 0.5 else 0.22
        target_dirs = (
            (self._files_made + upcoming_files)
            * discount
            * df
            / max(1.0 - df, 0.02)
        )
        self._files_made += upcoming_files
        if self._dirs_made < target_dirs or not self._dir_inos:
            result = self._new_directory(fs, uid, timestamp)
            # directory-heavy domains (atm at 9 dirs per file) need several
            # chains per session to keep pace with the target
            guard = 0
            while self._dirs_made < target_dirs and guard < 100:
                self._new_directory(fs, uid, timestamp)
                guard += 1
            return result
        idx = int(self.rng.integers(len(self._dir_inos)))
        return self._dir_inos[idx]

    # -- event generation ------------------------------------------------------

    def _session_offsets(self, count: int, spread: float) -> np.ndarray:
        """Event offsets within the week, clustered per the domain's c_v.

        Events fall uniformly inside a band of width ``spread·WEEK`` anchored
        at the end of the week — the closed-form layout behind
        :func:`repro.synth.calibration.spread_from_cv`.
        """
        width = spread * WEEK_SECONDS
        lo = WEEK_SECONDS - width
        return lo + self.rng.random(count) * width

    def _event_offset(self, spread: float) -> float:
        """One event's offset: ``_session_offsets(1, spread)[0]``, drawn as
        one ``rng.random()`` (the same stream value as ``random(1)[0]``)."""
        width = spread * WEEK_SECONDS
        return WEEK_SECONDS - width + self.rng.random() * width

    def weekly_budget(self, week: int) -> int:
        raw = self.total_files * self.weights[week] + self._budget_carry
        budget = int(raw)
        self._budget_carry = raw - budget
        return budget

    def _track(self, *batches: np.ndarray) -> None:
        self._inos = np.concatenate([self._inos, *batches])

    def _sample_live(self, fraction: float, window: str = "any") -> np.ndarray:
        """Sample live files: ``window`` is 'old', 'new', or 'any'.

        Tracked order is creation order, so the oldest/newest third are
        array prefixes/suffixes.  Updates target *new* files (checkpoint
        rewrites touch the active campaign, leaving old outputs' ages to
        grow, per Figure 16); cleanup deletes target *old* files.
        """
        n = self._inos.size
        if n == 0 or fraction <= 0:
            return np.empty(0, dtype=np.int64)
        # stochastic rounding: a 30-file project at 2%/week must lose a file
        # every ~2 years, not one per week (min-1 rounding starves small
        # projects faster than they produce)
        raw = n * fraction
        count = int(raw) + int(self.rng.random() < (raw - int(raw)))
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if window == "old":
            horizon = max(count, n // 3)
            idx = self.rng.choice(horizon, size=min(count, horizon), replace=False)
        elif window == "new":
            horizon = max(count, n // 3)
            lo = n - horizon
            idx = lo + self.rng.choice(horizon, size=min(count, horizon), replace=False)
        else:
            idx = self.rng.choice(n, size=count, replace=False)
        return self._inos[idx]

    # -- the weekly step ------------------------------------------------------

    def step_week(self, fs: FileSystem, week: int, week_start: int) -> dict[str, int]:
        """Run one week of project activity; returns event counters."""
        stats = {"created": 0, "updated": 0, "read": 0, "deleted": 0, "kept_alive": 0}
        budget = self.weekly_budget(week)

        self._cleanup_transient(fs, week_start, stats)
        if budget > 0:
            self._write_sessions(fs, week_start, budget, stats)

        if self._inos.size:
            self._updates(fs, week_start, stats)
            if self.rng.random() < READ_CAMPAIGN_PROB:
                self._read_campaign(fs, week_start, stats)
            if self.keepalive:
                self._keepalive_sweep(fs, week_start, stats)
            if self.archive is not None:
                self._archive_sweep(fs, week_start, stats)
            self._user_deletes(fs, week_start, stats)
        if self.archive is not None and self.rng.random() < RECALL_PROB:
            self._recall_from_archive(fs, week_start, stats)
        return stats

    def _write_sessions(
        self, fs: FileSystem, week_start: int, budget: int, stats: dict[str, int]
    ) -> None:
        n_sessions = sessions_per_week(self.spec.write_cv, budget)
        n_sessions = min(n_sessions, budget)
        split = self.rng.multinomial(budget, np.full(n_sessions, 1.0 / n_sessions))
        session_offsets = sorted(
            self._session_offsets(n_sessions, self.write_spread).tolist()
        )
        week_end = week_start + WEEK_SECONDS - 1
        created: list[np.ndarray] = []
        for count, offset in zip(split.tolist(), session_offsets):
            if count == 0:
                continue
            if self._unwritten:
                uid = self._unwritten.pop()
            else:
                uid = int(self.member_uids[bisect_right(self._member_cdf, self.rng.random())])
            base_ts = week_start + int(offset)
            target = self._pick_directory(fs, uid, base_ts, upcoming_files=count)
            names = self.sampler.sample_names(count)
            # files stream out over the session (seconds apart, ≤ ~2h)
            gaps = self.rng.exponential(4.0, size=count)
            np.minimum(gaps, 60.0, out=gaps)
            stamps = gaps.cumsum().astype(np.int64)
            stamps += base_ts
            # sessions never spill past the snapshot at the end of the week
            np.minimum(stamps, week_end, out=stamps)
            inos = fs.create_many(target, names, uid, self.project.gid, stamps)
            created.append(inos)
            if self.job_log is not None:
                nodes, runtime, wait = sample_job_shape(
                    JobKind.SIMULATION, self.rng, files_in_session=count
                )
                self.job_log.submit(
                    JobKind.SIMULATION, uid, self.project.gid, nodes,
                    start_time=base_ts, runtime=runtime, queue_wait=wait,
                )
            # flag a slice as next week's transient cleanup victims
            n_transient = int(count * TRANSIENT_FRACTION)
            if n_transient:
                self._transient.append(inos[:n_transient])
            stats["created"] += count
        # no step of a session reads the tracked files: track the week's
        # creations at once
        self._track(*created)

    def _cleanup_transient(
        self, fs: FileSystem, week_start: int, stats: dict[str, int]
    ) -> None:
        """Delete last week's staging/intermediate outputs."""
        if not self._transient:
            return
        victims = self._owned_files(fs, np.concatenate(self._transient))
        self._transient = []
        if victims.size:
            self._delete(fs, victims, week_start, stats)

    def _updates(self, fs: FileSystem, week_start: int, stats: dict[str, int]) -> None:
        victims = self._sample_live(UPDATE_RATE, window="new")
        if victims.size == 0:
            return
        offsets = self._session_offsets(victims.size, self.write_spread)
        fs.write_many(victims, week_start + offsets.astype(np.int64))
        stats["updated"] += int(victims.size)

    def _read_campaign(self, fs: FileSystem, week_start: int, stats: dict[str, int]) -> None:
        victims = self._sample_live(READ_FRACTION, window="old")
        if victims.size == 0:
            return
        offsets = self._session_offsets(victims.size, self.read_spread)
        fs.read_many(victims, week_start + offsets.astype(np.int64))
        stats["read"] += int(victims.size)
        if self.job_log is not None:
            uid = int(self.member_uids[int(self.rng.integers(self.member_uids.size))])
            nodes, runtime, wait = sample_job_shape(JobKind.ANALYSIS, self.rng)
            self.job_log.submit(
                JobKind.ANALYSIS, uid, self.project.gid, nodes,
                start_time=week_start + int(offsets.min()), runtime=runtime,
                queue_wait=wait,
            )

    def _keepalive_sweep(self, fs: FileSystem, week_start: int, stats: dict[str, int]) -> None:
        """Cron-style touch of aging files, in a sub-minute burst."""
        if self._inos.size == 0:
            return
        cutoff = week_start - KEEPALIVE_AFTER_DAYS * SECONDS_PER_DAY
        stale = self._inos[fs.inodes.atime[self._inos] < cutoff]
        if stale.size == 0:
            return
        if stale.size > 1:
            keep_n = max(1, int(stale.size * KEEPALIVE_SAMPLE))
            stale = stale[self.rng.choice(stale.size, size=keep_n, replace=False)]
        # fixed cron slot late on the last day of the week — near the read
        # campaigns' end-of-week anchor, so a week mixing both keeps the
        # sub-1e-2 read c_v the calibration targets (two separated clusters
        # would inflate the pooled spread)
        base = week_start + WEEK_SECONDS - 3 * 3600
        # the touch script streams over the file list for up to ~2 hours —
        # tight enough for a read c_v orders of magnitude under the write
        # c_v, loose enough to keep it in the paper's 0.001-0.01 band
        stamps = base + self.rng.integers(0, 7200, size=stale.size)
        fs.read_many(stale, stamps)
        stats["kept_alive"] += int(stale.size)

    def _user_deletes(self, fs: FileSystem, week_start: int, stats: dict[str, int]) -> None:
        victims = self._sample_live(DELETE_RATE, window="any")
        if victims.size:
            self._delete(fs, victims, week_start, stats)

    def _delete(
        self, fs: FileSystem, victims: np.ndarray, week_start: int,
        stats: dict[str, int],
    ) -> None:
        """Unlink tracked files in one batch, at one time inside the week."""
        ts = week_start + int(self._event_offset(self.write_spread))
        held = fs.inodes.allocated[self._inos]
        fs.unlink_inodes(victims, timestamp=ts)
        # the unlink frees exactly the victims, which were all allocated:
        # an entry allocated before it and free after it equals a victim,
        # and every other entry stays
        self._inos = self._inos[held <= fs.inodes.allocated[self._inos]]
        stats["deleted"] += victims.size

    # -- archival tier (§2.1) ----------------------------------------------------

    def _archive_sweep(self, fs: FileSystem, week_start: int, stats: dict[str, int]) -> None:
        """Move aging output to HPSS before the purge can take it.

        Users are "required to move the data to HPSS for long-term needs"
        (§2.1); the policy's ``archive_before_purge`` fraction models how
        diligently this project actually does so.
        """
        cutoff = week_start - self.archive_policy.min_age_days * SECONDS_PER_DAY
        stale = self._inos[fs.inodes.atime[self._inos] < cutoff]
        if stale.size == 0:
            return
        take = int(stale.size * self.archive_policy.archive_before_purge)
        if take == 0:
            return
        picks = stale[self.rng.choice(stale.size, size=take, replace=False)]
        names: list[str] = []
        mtimes: list[int] = []
        uid = int(self.member_uids[0])
        for ino in picks:
            ino = int(ino)
            name = fs.namespace.name_of(ino)
            if name is None:
                continue
            # full scratch path as the archive key: unique per file
            names.append(fs.namespace.path(ino))
            mtimes.append(int(fs.inodes.mtime[ino]))
        if names:
            ts = week_start + int(self._event_offset(self.write_spread))
            self.archive.ingest(self.project.gid, uid, names, mtimes, ts)
            stats["archived"] = stats.get("archived", 0) + len(names)

    def _recall_from_archive(self, fs: FileSystem, week_start: int, stats: dict[str, int]) -> None:
        """Pull archived data back to scratch for a new analysis round.

        Recalled files land in a per-project ``restored`` directory with
        their original mtimes (the data is old) and fresh atimes — which is
        one of the mechanisms behind Figure 16's old-but-accessed files.
        """
        holdings = self.archive.holdings(self.project.gid)
        if holdings == 0:
            return
        want = min(holdings, max(1, int(self.rng.integers(1, 25))))
        bucket = self.archive._holdings[self.project.gid]
        all_names = list(bucket)
        picks = [all_names[int(i)] for i in
                 self.rng.choice(len(all_names), size=want, replace=False)]
        ts = week_start + int(self._event_offset(self.read_spread))
        found = self.archive.recall(self.project.gid, picks, timestamp=ts)
        if not found:
            return
        uid = int(self.member_uids[0])
        if self._restored_dir is None or not fs.inodes.is_allocated(self._restored_dir):
            user_dir = self._ensure_user_dir(fs, uid)
            self._restored_dir = fs.mkdir(
                user_dir, "restored", uid, self.project.gid, timestamp=ts
            )
        names, mtimes = [], []
        for rec in found:
            self._recall_counter += 1
            names.append(f"r{self._recall_counter:06d}_{rec.name.rsplit('/', 1)[-1]}")
            mtimes.append(rec.scratch_mtime)
        inos = fs.create_many(
            self._restored_dir, names, uid, self.project.gid,
            np.asarray(mtimes, dtype=np.int64),
        )
        # the data is old (original mtimes) but hot (being analyzed now)
        fs.read_many(inos, ts)
        self._track(inos)
        stats["recalled"] = stats.get("recalled", 0) + len(names)

    # -- backlog & reconciliation -----------------------------------------------

    def seed_backlog(
        self, fs: FileSystem, now: int, backlog_files: int, age_days: int
    ) -> int:
        """Pre-populate with files created before the observation window.

        Spider II was years old in January 2015; without a backlog, every
        file would be young at the first snapshot and Figure 16's ages and
        Figure 15's starting level would be wrong.  Backdated mtimes spread
        over ``age_days``; atimes land within the purge window so the
        backlog survives the first sweeps.
        """
        if backlog_files <= 0:
            return 0
        uid = int(self.member_uids[0])
        remaining = backlog_files
        while remaining > 0:
            chunk = int(min(remaining, max(50, backlog_files // 4)))
            target = self._pick_directory(fs, uid, now, upcoming_files=chunk)
            names = self.sampler.sample_names(chunk)
            mtimes = now - (
                self.rng.uniform(0, age_days * SECONDS_PER_DAY, size=chunk)
            ).astype(np.int64)
            inos = fs.create_many(target, names, uid, self.project.gid, mtimes)
            # last access: somewhere in the final 80 days (purge-safe);
            # routed through the read API so traces/changelogs capture it
            atimes = now - (
                self.rng.uniform(0, 80 * SECONDS_PER_DAY, size=chunk)
            ).astype(np.int64)
            fs.read_many(inos, np.maximum(atimes, mtimes))
            self._track(inos)
            remaining -= chunk
        return backlog_files

    def reconcile(self, fs: FileSystem) -> None:
        """Drop purged/deleted files from the live-tracking array."""
        self._inos = self._owned_files(fs, self._inos)

    def _owned_files(self, fs: FileSystem, inos: np.ndarray) -> np.ndarray:
        """The ``inos`` that are still regular files of this project: purge
        may have taken some, and a freed inode number may have been
        recycled, even into a directory of this very project."""
        return inos[
            fs.inodes.allocated[inos]
            & (fs.inodes.gid[inos] == self.project.gid)
            & ((fs.inodes.mode[inos] & np.uint32(S_IFMT)) == np.uint32(S_IFREG))
        ]

    @property
    def live_tracked(self) -> int:
        return int(self._inos.size)


def build_behaviors(
    population,
    n_weeks: int,
    scale: float,
    rng: np.random.Generator,
    growth: float = 3.0,
    keepalive_fraction: float = 0.45,
    min_project_files: int = 30,
    stress_depths: bool = True,
) -> list[ProjectBehavior]:
    """Instantiate one behavior per project with domain-calibrated budgets."""
    from repro.synth.domains import DOMAINS

    behaviors: list[ProjectBehavior] = []
    by_domain: dict[str, list] = {}
    for project in population.projects.values():
        by_domain.setdefault(project.domain, []).append(project)
    for code in sorted(by_domain):
        spec = DOMAINS[code]
        projects = sorted(by_domain[code], key=lambda p: p.gid)
        shares = project_budget_shares(len(projects), rng)
        # biggest project first so the stress tree lands on a heavyweight
        order = np.argsort(shares)[::-1]
        domain_files = spec.entries * scale * (1.0 - spec.dir_fraction)
        for rank, idx in enumerate(order):
            project = projects[int(idx)]
            budget = max(int(round(domain_files * shares[idx])), min_project_files)
            stress = spec.stress_depth if (stress_depths and rank == 0) else None
            if stress:
                # keep the stress tree from dominating the project's depth
                # statistics at reduced scale: the chain is a point anomaly
                # in the paper's data, not the bulk of the domain
                budget = max(budget, 4 * stress)
            behaviors.append(
                ProjectBehavior(
                    project=project,
                    spec=spec,
                    rng=np.random.default_rng(rng.integers(2**63)),
                    total_files=budget,
                    n_weeks=n_weeks,
                    growth=growth,
                    keepalive=bool(rng.random() < keepalive_fraction),
                    stress_depth=stress,
                    atlas=1 + (project.gid % 2),
                )
            )
    return behaviors
