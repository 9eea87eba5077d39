"""Shard supervisor: drives sharded synthesis workers to completion.

One :class:`ShardSupervisor` owns the failure model of a sharded run
(:mod:`repro.synth.sharding`) end to end:

* **workers** run on the engine's start-method policy (``fork``/``spawn``/
  ``forkserver`` via ``REPRO_START_METHOD`` or config; ``serial`` and
  ``workers=0`` run shards inline) as daemon processes, at most
  ``workers`` at a time;
* **checkpoints** — each worker journals every written week (fsynced), so
  the supervisor restarts a dead worker and the new attempt re-simulates
  deterministically, skipping the weeks already on disk;
* **crash restarts** — a nonzero exit (SIGKILL included) re-queues the
  shard with exponential backoff, up to ``max_attempts`` per shard;
* **straggler detection** — the journal file is the progress heartbeat: a
  shard whose journal stops growing for ``stall_timeout_seconds`` gets a
  ``RuntimeWarning``; each attempt also runs under a
  ``RunController.child`` deadline (``shard_max_seconds``) whose expiry
  kills the worker and counts as a failed attempt (→ restart, then
  quarantine);
* **quarantine** — a shard that exhausts its attempts is quarantined:
  under ``on_error="raise"`` the run fails fast with a typed
  :class:`ShardFailedError`; under ``skip``/``quarantine`` the shard is
  recorded (the caller folds it into the ``ArchiveHealthReport``) and the
  rest of the run proceeds;
* **global stop** — the parent :class:`RunController`'s deadline/signal
  cancels every outstanding worker and raises ``RunInterrupted`` with a
  resume hint (per-shard journals make a re-run cheap).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass, field

from pathlib import Path

from repro.core.runcontrol import RunController, RunInterrupted
from repro.query.engine import START_METHOD_ENV, SERIAL
from repro.synth.sharding import (
    SHARD_JOURNAL_NAME,
    ShardFault,
    ShardPlan,
    shard_complete,
    shard_worker_entry,
    simulate_shard,
)
from repro.scan.merge import shard_dir


class ShardFailedError(RuntimeError):
    """A shard exhausted its attempt budget (typed quarantine failure)."""

    def __init__(self, shard: int, attempts: int, reason: str) -> None:
        self.shard = shard
        self.attempts = attempts
        self.reason = reason
        super().__init__(
            f"shard {shard} failed after {attempts} attempts: {reason}"
        )


@dataclass(frozen=True)
class ShardQuarantine:
    """One persistently failing shard and why it was given up on."""

    shard: int
    attempts: int
    reason: str


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-model knobs of one sharded run."""

    #: concurrent worker processes; 0 = run every shard inline
    workers: int = 0
    #: multiprocessing start method (None → REPRO_START_METHOD → fork)
    start_method: str | None = None
    #: attempt ceiling per shard before quarantine
    max_attempts: int = 3
    #: restart backoff: ``backoff_seconds * 2**(attempt-1)``, capped
    backoff_seconds: float = 0.25
    backoff_max_seconds: float = 5.0
    #: heartbeat watchdog: warn when a shard's journal stalls this long
    stall_timeout_seconds: float = 30.0
    #: per-attempt deadline (via ``RunController.child``); None = no limit
    shard_max_seconds: float | None = None
    poll_seconds: float = 0.05


@dataclass
class SupervisorStats:
    """What the run cost and what happened to every shard."""

    n_shards: int = 0
    completed: int = 0
    restarts: int = 0
    stall_warnings: int = 0
    quarantined: list[int] = field(default_factory=list)
    attempts: dict[int, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def summary(self) -> str:
        extra = ""
        if self.quarantined:
            extra = f", quarantined {sorted(self.quarantined)}"
        return (
            f"{self.completed}/{self.n_shards} shards completed in "
            f"{self.wall_seconds:.1f}s ({self.restarts} restarts, "
            f"{self.stall_warnings} stall warnings{extra})"
        )


class _ShardTask:
    """Internal per-shard bookkeeping (attempts, process, heartbeat)."""

    def __init__(self, shard: int, journal_path: Path) -> None:
        self.shard = shard
        self.journal_path = journal_path
        self.attempts = 0
        self.proc: mp.process.BaseProcess | None = None
        self.deadline: RunController | None = None
        self.last_size = -1
        self.last_progress = 0.0
        self.stall_warned = False
        self.ready_at = 0.0


class ShardSupervisor:
    """Runs every shard of a :class:`ShardPlan` to done-or-quarantined."""

    def __init__(
        self,
        plan: ShardPlan,
        parts_root: str | Path,
        config: SupervisorConfig | None = None,
        controller: RunController | None = None,
        faults: list[ShardFault] | None = None,
        on_error: str = "raise",
    ) -> None:
        if on_error not in ("raise", "skip", "quarantine"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        self.plan = plan
        self.parts_root = Path(parts_root)
        self.config = config or SupervisorConfig()
        self.controller = controller or RunController()
        self.faults = {f.shard: f for f in (faults or [])}
        self.on_error = on_error
        self.stats = SupervisorStats(n_shards=plan.n_shards)
        self.quarantines: list[ShardQuarantine] = []
        self._running: dict[int, _ShardTask] = {}

    # -- observation (the fault injectors use these) ------------------------

    def worker_pids(self) -> dict[int, int]:
        """Live ``{shard: pid}`` — the SIGKILL injector's target list."""
        return {
            shard: task.proc.pid
            for shard, task in self._running.items()
            if task.proc is not None
            and task.proc.pid is not None
            and task.proc.is_alive()
        }

    # -- policy -------------------------------------------------------------

    def _resolve_start_method(self) -> str:
        method = (
            self.config.start_method
            or os.environ.get(START_METHOD_ENV)
            or ""
        ).strip().lower()
        if not method:
            return "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        if method == SERIAL:
            return SERIAL
        if method not in mp.get_all_start_methods():
            raise ValueError(
                f"start method {method!r} not available here "
                f"(have {mp.get_all_start_methods()})"
            )
        return method

    # -- entry point --------------------------------------------------------

    def run(self) -> SupervisorStats:
        t0 = time.monotonic()
        try:
            method = self._resolve_start_method()
            if self.config.workers <= 0 or method == SERIAL:
                self._run_inline()
            else:
                self._run_processes(method)
        finally:
            self.stats.wall_seconds = time.monotonic() - t0
        return self.stats

    # -- inline mode --------------------------------------------------------

    def _run_inline(self) -> None:
        for shard in range(self.plan.n_shards):
            while True:
                self.stats.attempts[shard] = self.stats.attempts.get(shard, 0) + 1
                attempt = self.stats.attempts[shard]
                try:
                    simulate_shard(
                        self.plan,
                        shard,
                        self.parts_root,
                        attempt=attempt,
                        fault=self.faults.get(shard),
                        controller=self.controller,
                    )
                except RunInterrupted as exc:
                    raise self._interrupted(exc.reason) from exc
                except Exception as exc:  # noqa: BLE001 - the failure model
                    if attempt >= self.config.max_attempts:
                        self._quarantine(shard, attempt, repr(exc))
                        break
                    self.stats.restarts += 1
                    time.sleep(self._backoff(attempt))
                    continue
                self.stats.completed += 1
                break

    # -- process mode -------------------------------------------------------

    def _run_processes(self, method: str) -> None:
        ctx = mp.get_context(method)
        pending: deque[_ShardTask] = deque(
            _ShardTask(
                shard, shard_dir(self.parts_root, shard) / SHARD_JOURNAL_NAME
            )
            for shard in range(self.plan.n_shards)
        )
        waiting: list[_ShardTask] = []
        try:
            while pending or waiting or self._running:
                reason = self.controller.should_stop()
                if reason is not None:
                    raise self._interrupted(reason)
                now = time.monotonic()
                for task in [t for t in waiting if t.ready_at <= now]:
                    waiting.remove(task)
                    pending.append(task)
                while pending and len(self._running) < self.config.workers:
                    self._launch(ctx, pending.popleft())
                time.sleep(self.config.poll_seconds)
                now = time.monotonic()
                for shard, task in list(self._running.items()):
                    proc = task.proc
                    if proc.is_alive():
                        failure = self._check_progress(task, now)
                        if failure is None:
                            continue
                        proc.kill()
                        proc.join()
                    else:
                        proc.join()
                        if proc.exitcode == 0 and shard_complete(
                            self.plan, shard, self.parts_root
                        ):
                            del self._running[shard]
                            self.stats.completed += 1
                            continue
                        failure = f"worker died (exit code {proc.exitcode})"
                    del self._running[shard]
                    if task.attempts >= self.config.max_attempts:
                        self._quarantine(shard, task.attempts, failure)
                    else:
                        self.stats.restarts += 1
                        task.ready_at = now + self._backoff(task.attempts)
                        waiting.append(task)
        finally:
            self._terminate_all()

    def _launch(self, ctx, task: _ShardTask) -> None:
        task.attempts += 1
        self.stats.attempts[task.shard] = task.attempts
        fault = self.faults.get(task.shard)
        task.proc = ctx.Process(
            target=shard_worker_entry,
            args=(
                self.plan,
                task.shard,
                str(self.parts_root),
                task.attempts,
                fault,
            ),
            daemon=True,
            name=f"repro-shard-{task.shard:04d}",
        )
        task.deadline = (
            self.controller.child(self.config.shard_max_seconds)
            if self.config.shard_max_seconds is not None
            else None
        )
        task.proc.start()
        task.last_size = self._journal_size(task)
        task.last_progress = time.monotonic()
        task.stall_warned = False
        self._running[task.shard] = task

    @staticmethod
    def _journal_size(task: _ShardTask) -> int:
        try:
            return task.journal_path.stat().st_size
        except OSError:
            return 0

    def _check_progress(self, task: _ShardTask, now: float) -> str | None:
        """Heartbeat + deadline; returns a failure reason to kill on."""
        size = self._journal_size(task)
        if size != task.last_size:
            task.last_size = size
            task.last_progress = now
            task.stall_warned = False
        elif (
            now - task.last_progress > self.config.stall_timeout_seconds
            and not task.stall_warned
        ):
            task.stall_warned = True
            self.stats.stall_warnings += 1
            warnings.warn(
                f"shard {task.shard} has made no checkpoint progress for "
                f"{now - task.last_progress:.1f}s (straggler?) — deadline "
                "will restart it",
                RuntimeWarning,
                stacklevel=2,
            )
        if task.deadline is not None and task.deadline.should_stop() is not None:
            return (
                "shard deadline expired "
                f"(--shard-max-seconds {self.config.shard_max_seconds:g})"
            )
        return None

    def _interrupted(self, reason: str) -> RunInterrupted:
        """The error a stopped run raises, whether shards run inline or in
        worker processes: progress so far plus the per-shard resume hint."""
        return RunInterrupted(
            f"sharded simulation interrupted ({reason}): "
            f"{self.stats.completed}/{self.plan.n_shards} shards completed",
            reason=reason,
            partial=self.stats,
            resume_hint=(
                "re-run the same command: per-shard journals "
                "resume each shard from its completed weeks"
            ),
        )

    def _backoff(self, attempt: int) -> float:
        return min(
            self.config.backoff_seconds * 2 ** (attempt - 1),
            self.config.backoff_max_seconds,
        )

    def _quarantine(self, shard: int, attempts: int, reason: str) -> None:
        quarantine = ShardQuarantine(shard=shard, attempts=attempts, reason=reason)
        self.quarantines.append(quarantine)
        self.stats.quarantined.append(shard)
        if self.on_error == "raise":
            raise ShardFailedError(shard, attempts, reason)
        warnings.warn(
            f"shard {shard} quarantined after {attempts} attempts: {reason}",
            RuntimeWarning,
            stacklevel=2,
        )

    def _terminate_all(self) -> None:
        for task in self._running.values():
            if task.proc is not None and task.proc.is_alive():
                task.proc.kill()
        for task in self._running.values():
            if task.proc is not None:
                task.proc.join()
        self._running.clear()
