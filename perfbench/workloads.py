"""The four workloads: what each sets up, times, and checks.

Every workload drives the program from outside, through public functions
and the ``repro serve`` verb.  ``setup`` builds the inputs (it is timed, and
repeated, by the runner); ``run`` times the workload and returns a
:class:`Timed` whose ``check`` verifies the outputs afterwards, outside the
timed part.  Inputs derive from the workload seed only.
"""

from __future__ import annotations

import gc
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench.loadgen import HttpSender, Request, run_open_loop
from perfbench.stats import percentile

#: reproduce: the paper population at a small namespace scale
REPRO = {"scale": 1e-6, "weeks": 6}
#: serve-mixed: a small archive whose slices still overflow the store cache
SERVE = {"scale": 1.5e-6, "weeks": 6, "min_project_files": 4, "stress_depths": False}
SERVE_ANALYSES = "census,access,growth,ages,users"
#: serve-mixed request counts per run (p99 needs 1,000 figures, p90 100 slices)
SERVE_FIGURES, SERVE_SLICES = 1100, 110
#: publish-week: weeks archived before the timed part, then weeks appended
PUBLISH = {"scale": 1.5e-6, "min_project_files": 4, "stress_depths": False}
PUBLISH_INITIAL, PUBLISH_APPENDS = 4, 24
DELTA_ANALYSES = "census,access,growth,ages,users"
#: shard-merge: 20k users, namespace scaled with the population
SHARD = {"n_users": 20_000, "scale": 3e-5, "weeks": 3, "min_project_files": 4,
         "stress_depths": False}
SHARDS, SHARD_WORKERS = 4, 2


@dataclass
class Context:
    root: Path
    workdir: Path
    seed: int
    seconds: float
    tracer: object | None = None

    def fresh(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    @property
    def span_dir(self) -> Path:
        path = self.workdir / "spans"
        path.mkdir(exist_ok=True)
        return path


def no_problems() -> list[str]:
    return []


@dataclass
class Timed:
    """One timed part: its wall clock, operation counts and readings."""

    wall_s: float
    window: tuple[float, float]
    attempted: int
    failed: int
    archive: Path
    #: workload-specific end-to-end metrics: name -> (value, unit)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: per-layer readings taken from the program's own stats objects
    readings: dict[str, float] = field(default_factory=dict)
    #: per-operation latencies (ms) whose median is reported as ``<name>_p50_ms``
    samples: dict[str, list[float]] = field(default_factory=dict)
    check: Callable[[], list[str]] = no_problems
    #: wall clock of every unit, kept for the run's history record
    unit_walls: list[float] = field(default_factory=list)


def repeat_units(ctx: Context, repeat: bool, unit: Callable[[int], Timed]) -> Timed:
    """Run ``unit(i)`` until ``ctx.seconds`` have passed (once unless ``repeat``).

    Each unit is one complete timed part on fresh inputs from the same seed.
    ``wall_s`` is the mean wall clock per unit (the whole measured time over
    the unit count), which averages the host's speed swings over the run;
    every extra metric is its median across units.  Operation counts add up;
    only the last unit's outputs are kept and checked.
    """
    units: list[Timed] = []
    started = time.perf_counter()
    while True:
        if units:
            shutil.rmtree(units[-1].archive, ignore_errors=True)
            units[-1].check = no_problems
            gc.collect()  # the previous unit's data must not share this one's peak
        units.append(unit(len(units)))
        if not repeat or time.perf_counter() - started >= ctx.seconds:
            break
    last = units[-1]
    extra = {
        name: (statistics.median(u.extra[name][0] for u in units), unit_name)
        for name, (_, unit_name) in last.extra.items()
    }
    for name in last.samples:
        pooled = [x for u in units for x in u.samples[name]]
        extra[f"{name}_p50_ms"] = (percentile(pooled, 50), "ms")
    extra["units"] = (len(units), "count")
    return Timed(
        wall_s=statistics.mean(u.wall_s for u in units),
        window=(units[0].window[0], last.window[1]),
        attempted=sum(u.attempted for u in units),
        failed=sum(u.failed for u in units),
        archive=last.archive,
        extra=extra,
        readings=last.readings,
        check=last.check,
        unit_walls=[u.wall_s for u in units],
    )


def bytes_per_row(archive: Path) -> float:
    """``.rpq`` plus ``.rpd`` bytes on disk over the manifest's total rows."""
    from repro.core.manifest import load_manifest

    rows = sum(rec["rows"] for rec in load_manifest(archive)["snapshots"])
    size = sum(p.stat().st_size for p in archive.iterdir() if p.suffix in (".rpq", ".rpd"))
    return size / rows


def _cache_readings(collections) -> dict[str, float]:
    hits = misses = 0
    for collection in collections:
        info = collection.cache_info()
        hits, misses = hits + info.hits, misses + info.misses
    return {"scan.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0}


# -- reproduce -------------------------------------------------------------------


class Reproduce:
    """Config to report: simulate, archive, then a cold analysis of the archive."""

    name = "reproduce"

    def setup(self, ctx: Context) -> None:
        return None

    def teardown(self, state) -> None:
        pass

    def run(self, state, ctx: Context, tag: str, repeat: bool = True) -> Timed:
        return repeat_units(ctx, repeat, lambda i: self._cycle(ctx, f"{tag}-{i}"))

    def _cycle(self, ctx: Context, tag: str) -> Timed:
        from repro.core.pipeline import ReproPipeline, analyze_archive
        from repro.query.parallel import SnapshotExecutor
        from repro.synth.driver import SimulationConfig

        config = SimulationConfig(seed=ctx.seed, **REPRO)
        archive = ctx.fresh(f"reproduce-{tag}")
        pipeline = ReproPipeline(config, executor=SnapshotExecutor(1))
        t0 = time.perf_counter()
        pipeline.simulate()
        t1 = time.perf_counter()
        pipeline.archive(archive)
        t2 = time.perf_counter()
        served, report = analyze_archive(
            archive, config=config, executor=SnapshotExecutor(1)
        )
        t3 = time.perf_counter()

        def check() -> list[str]:
            if pipeline.analyze().text != report.text:
                return ["from-archive report differs from the in-memory report"]
            return []

        return Timed(
            wall_s=t3 - t0,
            window=(t0, t3),
            attempted=1,
            failed=0,
            archive=archive,
            extra={
                "synth_s": (t1 - t0, "s"),
                "archive_s": (t2 - t1, "s"),
                "report_s": (t3 - t2, "s"),
            },
            readings=_cache_readings([served.context.collection]),
            check=check,
        )


# -- serve-mixed -----------------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    log: object

    def get(self, path: str) -> bytes:
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read()

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


def start_server(ctx: Context, archive: Path, config, timeout: float = 120.0) -> Server:
    """``repro serve`` in its own process; traced runs use the wrapping entry."""
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "repro.core.cli", "serve"]
    else:
        spans = ctx.span_dir / f"server-{time.monotonic_ns()}.jsonl"
        cmd = [sys.executable, str(ctx.root / "perfbench" / "serve_entry.py"), str(spans)]
    cmd += [
        str(archive), "--port", "0", "--seed", str(config.seed),
        "--scale", repr(config.scale), "--weeks", str(config.weeks),
        "--analyses", SERVE_ANALYSES,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ctx.root / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    log = open(ctx.workdir / "server.log", "a", encoding="utf-8")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=log, text=True, env=env, cwd=ctx.root
    )
    server = Server(proc, 0, log)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            if "PORT=" in line:
                server.port = int(line.rsplit("PORT=", 1)[1].rstrip(")\n "))
                return server
        elif proc.poll() is not None:
            break
    server.stop(timeout=10)
    tail = (ctx.workdir / "server.log").read_text(encoding="utf-8")[-2000:]
    raise RuntimeError(f"repro serve did not come up; its stderr ends:\n{tail}")


def slice_keys(rng: np.random.Generator, population) -> list[tuple[str, str]]:
    """Eight slice keys drawn from the population: domains, users, projects."""
    domains = sorted({p.domain for p in population.projects.values()})
    users = sorted(population.users)
    projects = sorted(population.projects)
    keys = [("domain", str(d)) for d in rng.choice(domains, 3, replace=False)]
    keys += [("user", str(u)) for u in rng.choice(users, 3, replace=False)]
    keys += [("project", str(g)) for g in rng.choice(projects, 2, replace=False)]
    return keys


def serve_schedule(rng, seconds: float, figures: list[str], keys) -> list[Request]:
    """Poisson arrivals (uniform order statistics for a fixed count)."""
    requests = [
        Request(float(due), "figure", f"/v1/figures/{figures[i]}")
        for due, i in zip(
            rng.uniform(0, seconds, SERVE_FIGURES),
            rng.integers(0, len(figures), SERVE_FIGURES),
        )
    ]
    requests += [
        Request(float(due), "slice", "/v1/slice/{}/{}".format(*keys[i]))
        for due, i in zip(
            rng.uniform(0, seconds, SERVE_SLICES),
            rng.integers(0, len(keys), SERVE_SLICES),
        )
    ]
    return sorted(requests, key=lambda r: r.due)


@dataclass
class ServeState:
    config: object
    archive: Path
    population: object
    server: Server


class ServeMixed:
    """Open-loop dashboard traffic: cached figures mixed with engine slices."""

    name = "serve-mixed"

    def setup(self, ctx: Context) -> ServeState:
        from repro.core.pipeline import ReproPipeline
        from repro.synth.driver import SimulationConfig

        config = SimulationConfig(seed=ctx.seed, **SERVE)
        archive = ctx.fresh("serve-archive")
        pipeline = ReproPipeline(config)
        pipeline.simulate()
        pipeline.archive(archive)
        server = start_server(ctx, archive, config)
        return ServeState(config, archive, pipeline.simulation.population, server)

    def teardown(self, state: ServeState) -> None:
        state.server.stop()

    def run(self, state: ServeState, ctx: Context, tag: str, repeat: bool = True) -> Timed:
        rng = np.random.default_rng([ctx.seed, 1])
        figures = json.loads(state.server.get("/v1/figures"))["figures"]
        keys = slice_keys(rng, state.population)
        schedule = serve_schedule(rng, ctx.seconds, figures, keys)
        port = state.server.port
        start, outcomes = run_open_loop(
            schedule, lambda: HttpSender("127.0.0.1", port), connections=2
        )
        end = max(o.done for o in outcomes)
        stats = json.loads(state.server.get("/v1/stats"))
        exit_code = state.server.stop()

        failed = [o for o in outcomes if o.error or o.status not in (200, 304)]
        fig = [o.latency * 1e3 for o in outcomes if o.request.kind == "figure"]
        sli = [o.latency * 1e3 for o in outcomes if o.request.kind == "slice"]
        server = stats["server"]
        cache = stats["archive"]["cache"]
        lookups = cache["hits"] + cache["misses"]
        extra = {
            "figure_p50_ms": (percentile(fig, 50), "ms"),
            "figure_p99_ms": (percentile(fig, 99), "ms"),
            "slice_p50_ms": (percentile(sli, 50), "ms"),
            "slice_p90_ms": (percentile(sli, 90), "ms"),
            "figure_samples": (len(fig), "count"),
            "slice_samples": (len(sli), "count"),
        }
        readings = {
            "scan.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "serve.shed": server["shed_queue"] + server["shed_memory"] + server["shed_tenant"],
            "serve.degraded": server["degraded"],
            "serve.stale": server["stale_served"],
            "load.late_ms": percentile([o.late for o in outcomes], 99) * 1e3,
            "load.conn_wait_ms": percentile([o.conn_wait for o in outcomes], 99) * 1e3,
            "slice_p50_ms": extra["slice_p50_ms"][0],
        }

        def check() -> list[str]:
            from repro.serve.service import ArchiveService
            from repro.synth.driver import SimulationConfig

            cfg = state.config
            service = ArchiveService(
                state.archive,
                config=SimulationConfig(seed=cfg.seed, scale=cfg.scale, weeks=cfg.weeks),
                analyses=SERVE_ANALYSES,
            )
            service.warm()
            problems = []
            if exit_code != 0:
                problems.append(f"repro serve exited {exit_code} after SIGTERM")
            wrong = sum(
                1 for o in outcomes
                if o.request.kind == "figure" and o.status == 200
                and o.body != service.figure(o.request.path.rsplit("/", 1)[1])
            )
            if wrong:
                problems.append(f"{wrong} figure bodies differ from the warmed service")
            first: dict[str, bytes] = {}
            for o in outcomes:
                if o.request.kind == "slice" and o.status == 200:
                    first.setdefault(o.request.path, o.body)
            for dim, key in keys:
                body = first.get(f"/v1/slice/{dim}/{key}")
                if body is None:
                    continue
                payload = json.loads(body)
                rows, degraded = service.slice(dim, key)
                if "degraded" in payload or payload["rows"] != rows or degraded:
                    problems.append(f"slice {dim}/{key} differs from ArchiveService.slice")
            return problems

        return Timed(
            wall_s=end - start,
            window=(start, end),
            attempted=len(outcomes),
            failed=len(failed),
            archive=state.archive,
            extra=extra,
            readings=readings,
            check=check,
        )


# -- publish-week ----------------------------------------------------------------


@dataclass
class PublishState:
    config: object
    archive: Path
    pipeline: object


class PublishWeek:
    """Live operator: append one week, then refresh the report incrementally."""

    name = "publish-week"

    def setup(self, ctx: Context) -> PublishState:
        from repro.core.pipeline import ReproPipeline, analyze_archive
        from repro.synth.driver import SimulationConfig

        config = SimulationConfig(
            seed=ctx.seed, weeks=PUBLISH_INITIAL + PUBLISH_APPENDS, **PUBLISH
        )
        archive = ctx.fresh("publish-archive")
        pipeline = ReproPipeline(config)
        pipeline.simulate()
        pipeline.archive(archive, max_snapshots=PUBLISH_INITIAL)
        analyze_archive(archive, config=config, analyses=DELTA_ANALYSES, incremental=True)
        return PublishState(config, archive, pipeline)

    def teardown(self, state: PublishState) -> None:
        pass

    def run(self, state: PublishState, ctx: Context, tag: str, repeat: bool = True) -> Timed:
        return repeat_units(ctx, repeat, lambda i: self._appends(state, ctx, f"{tag}-{i}"))

    def _appends(self, state: PublishState, ctx: Context, tag: str) -> Timed:
        """Append every remaining week to a copy of the set-up archive."""
        from repro.core.pipeline import analyze_archive

        archive = ctx.workdir / f"publish-{tag}"
        shutil.copytree(state.archive, archive)
        latencies: list[float] = []
        collections = []
        failed = 0
        report = None
        t0 = time.perf_counter()
        for week in range(PUBLISH_INITIAL + 1, PUBLISH_INITIAL + PUBLISH_APPENDS + 1):
            started = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    state.pipeline.archive(archive, max_snapshots=week, skip_existing=True)
                    served, report = analyze_archive(
                        archive, config=state.config,
                        analyses=DELTA_ANALYSES, incremental=True,
                    )
                except Exception as exc:  # noqa: BLE001 - a failed append is counted
                    print(f"# append of week {week} raised {exc!r}", file=sys.stderr)
                    served = None
            latencies.append((time.perf_counter() - started) * 1e3)
            if served is None or any(issubclass(w.category, RuntimeWarning) for w in caught):
                failed += 1
            else:
                collections.append(served.context.collection)
        t1 = time.perf_counter()

        def check() -> list[str]:
            _, full = analyze_archive(archive, config=state.config, analyses=DELTA_ANALYSES)
            if report is None or full.text != report.text:
                return ["incremental report differs from a full analysis of the window"]
            return []

        return Timed(
            wall_s=t1 - t0,
            window=(t0, t1),
            attempted=PUBLISH_APPENDS,
            failed=failed,
            archive=archive,
            readings=_cache_readings(collections),
            samples={"append": latencies},
            check=check,
        )


# -- shard-merge -----------------------------------------------------------------


class ShardMerge:
    """Large population: supervised shard workers, then the streaming merge."""

    name = "shard-merge"

    def setup(self, ctx: Context) -> None:
        return None

    def teardown(self, state) -> None:
        pass

    def run(self, state, ctx: Context, tag: str, repeat: bool = True) -> Timed:
        return repeat_units(ctx, repeat, lambda i: self._sharded(ctx, f"{tag}-{i}"))

    def _sharded(self, ctx: Context, tag: str) -> Timed:
        from repro.synth.driver import SimulationConfig
        from repro.synth.sharding import run_sharded

        config = SimulationConfig(seed=ctx.seed, **SHARD)
        out = ctx.fresh(f"shard-{tag}")
        if ctx.tracer is not None:
            ctx.tracer.worker_dir = ctx.span_dir
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # quarantines are counted
            t0 = time.perf_counter()
            result = run_sharded(
                config, SHARDS, out, workers=SHARD_WORKERS, on_error="quarantine"
            )
            t1 = time.perf_counter()
        synth = result.stats.wall_seconds

        def check() -> list[str]:
            from repro.core.manifest import load_manifest
            from repro.scan.columnar import read_columnar
            from repro.scan.delta import read_delta, sidecar_path
            from repro.scan.errors import CorruptSnapshotError
            from repro.scan.paths import PathTable

            problems = []
            records = load_manifest(out)["snapshots"]
            read_back = 0
            for i, rec in enumerate(records):
                try:
                    read_back += len(read_columnar(out / rec["file"], PathTable()))
                    if i:
                        read_delta(sidecar_path(out, rec["label"]), PathTable())
                except CorruptSnapshotError as exc:
                    problems.append(f"merged {rec['file']} fails its CRC check: {exc}")
            if read_back != sum(rec["rows"] for rec in records):
                problems.append("merged rows do not sum to the manifest's totals")
            return problems

        return Timed(
            wall_s=t1 - t0,
            window=(t0, t1),
            attempted=SHARDS,
            failed=len(result.stats.quarantined),
            archive=out,
            extra={"synth_s": (synth, "s"), "merge_s": (t1 - t0 - synth, "s")},
            readings={"query.shard_restarts": result.stats.restarts},
            check=check,
        )


WORKLOADS = {w.name: w for w in (Reproduce, ServeMixed, PublishWeek, ShardMerge)}
