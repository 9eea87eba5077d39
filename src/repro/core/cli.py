"""``repro-pipeline`` / ``repro`` command-line entry point.

Runs the full reproduction at a chosen scale and prints the paper-style
report; optionally archives PSV/columnar snapshot files.  The ``ingest``
verb (``repro ingest TRACE... --out DIR``) instead imports foreign
LustreDU/PSV trace dumps into an analyzable archive through the hardened
:mod:`repro.ingest` path.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.pipeline import ReproPipeline
from repro.core.runcontrol import RunController, RunInterrupted
from repro.query.parallel import SnapshotExecutor
from repro.synth.driver import SimulationConfig

#: Exit codes for interrupted runs: 130 = stopped by signal (128+SIGINT,
#: shell convention), 124 = deadline expired (same as timeout(1)).
EXIT_SIGNAL = 130
EXIT_DEADLINE = 124


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pipeline",
        description=(
            "Reproduce 'Scientific User Behavior and Data-Sharing Trends in "
            "a Petascale File System' (SC'17) on a synthetic OLCF."
        ),
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--scale",
        type=float,
        default=2.5e-5,
        help="fraction of the paper's per-domain entry counts to simulate",
    )
    parser.add_argument("--weeks", type=int, default=72)
    parser.add_argument(
        "--purge-window", type=int, default=90, help="purge window in days"
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="use a process pool for per-snapshot analyses",
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver", "serial"),
        default=None,
        help="process start method for --parallel (default: platform "
        "default; REPRO_START_METHOD overrides both)",
    )
    parser.add_argument(
        "--archive-dir",
        default=None,
        help="also write PSV + columnar snapshot files here",
    )
    parser.add_argument(
        "--from-archive",
        default=None,
        help="skip simulation: analyze archived .rpq snapshots out-of-core "
        "(the config fingerprint is validated against the archive's "
        "manifest.json)",
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "skip", "quarantine"),
        default="raise",
        help="degradation policy for corrupt .rpq files under "
        "--from-archive: raise a typed error (default), skip them, or "
        "move them to the archive's quarantine/ subdirectory; non-raise "
        "policies deep-verify every file and analyze the surviving window",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal completed snapshots here during --from-archive "
        "analysis; a killed run re-invoked with the same path resumes at "
        "the first unprocessed snapshot (deleted after a successful run)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="with --from-archive: journal per-kernel reduced state in the "
        "archive and advance it through the .rpd delta sidecars on the "
        "next run, so appending one snapshot costs O(delta) instead of a "
        "full re-scan (falls back to full maps, with a warning, whenever "
        "the state or sidecar chain is unusable)",
    )
    parser.add_argument(
        "--no-deltas",
        action="store_true",
        help="with --archive-dir: skip writing the per-interval .rpd delta "
        "sidecars next to the .rpq snapshots",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget for the whole run; on expiry the pipeline "
        "stops gracefully at the next boundary (week / snapshot / dispatch "
        "wave), flushes any --checkpoint journal, prints the resume hint, "
        f"and exits {EXIT_DEADLINE}",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="byte ceiling for the run's working set (accepts 512M / 2G / "
        "plain bytes); half caps the snapshot cache (byte-denominated "
        "eviction), the rest caps in-flight dispatch waves",
    )
    parser.add_argument(
        "--max-task-failures",
        type=int,
        default=None,
        metavar="N",
        help="per-snapshot circuit breaker: a snapshot whose analysis task "
        "fails N times across retries is quarantined into the archive "
        "health report instead of failing the run (requires a non-raise "
        "--on-error policy; defaults to retries+1 under skip/quarantine)",
    )
    parser.add_argument(
        "--grace-seconds",
        type=float,
        default=5.0,
        metavar="S",
        help="how long in-flight workers may drain after a stop is "
        "requested before the pool is terminated (default: 5)",
    )
    parser.add_argument(
        "--allow-config-mismatch",
        action="store_true",
        help="downgrade an archive-manifest config mismatch (seed, "
        "n_users, purge window) from a hard error to a warning",
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        help="write plotting-ready CSVs for every figure series here",
    )
    parser.add_argument(
        "--analyses",
        default="all",
        help="comma-separated analysis names to run (default: all); "
        "requirements are pulled in automatically.  Available: "
        "users, participation, census, cdfs, depth, extensions, "
        "ext_trend, languages, access, ost, growth, ages, burstiness, "
        "network, collaboration, table1",
    )
    parser.add_argument(
        "--engine-stats",
        action="store_true",
        help="print the execution engine's lifetime stats (per-kernel "
        "timings, snapshot loads) to stderr after the report",
    )
    parser.add_argument(
        "--burstiness-min-files",
        type=int,
        default=10,
        help="per-(project,week) qualification threshold (paper: 100 at full scale)",
    )
    parser.add_argument(
        "--scorecard",
        action="store_true",
        help="append the 12-observation reproduction scorecard to the report",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


def build_ingest_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro ingest",
        description=(
            "Ingest foreign LustreDU/PSV trace dumps (plain or gzip, any "
            "size, untrusted content) into a validated .rpq archive "
            "directory that analyze/--from-archive consumes unchanged."
        ),
    )
    parser.add_argument(
        "sources",
        nargs="+",
        metavar="TRACE",
        help="trace files (.psv/.psv.gz/.txt/.txt.gz) or one directory "
        "containing them; one snapshot is produced per file, labeled and "
        "date-stamped from its name (YYYYMMDD prefix) when possible",
    )
    parser.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="archive directory to produce (.rpq files + manifest.json "
        "+ .bad quarantine sidecars)",
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "skip", "quarantine"),
        default="quarantine",
        help="per-record degradation policy: raise stops at the first bad "
        "record, skip drops-and-counts, quarantine (default) also writes "
        "each bad line with a machine-readable reason to a .bad sidecar "
        "next to the snapshot; source files are never modified or moved",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal completed source files here; a killed ingest "
        "re-invoked with the same path skips them and converges on "
        "byte-identical outputs (deleted after a successful run)",
    )
    parser.add_argument(
        "--no-deltas",
        action="store_true",
        help="skip the post-pass that chains .rpd delta sidecars between "
        "consecutive snapshots (sidecars enable incremental analysis of "
        "the produced archive; written only when 2+ snapshots ingest)",
    )
    parser.add_argument(
        "--chunk-records",
        type=int,
        default=None,
        metavar="N",
        help="records per streaming chunk (default 65536; shrunk "
        "automatically under --memory-budget)",
    )
    parser.add_argument(
        "--max-bad-records",
        type=int,
        default=None,
        metavar="N",
        help="abort a source file (file-level fault) after N bad records",
    )
    parser.add_argument(
        "--max-bad-ratio",
        type=float,
        default=None,
        metavar="R",
        help="abort a source file when more than fraction R of its "
        "records are bad (checked once a full chunk has been seen)",
    )
    parser.add_argument(
        "--ost-count",
        type=int,
        default=None,
        metavar="N",
        help="OST count of the source file system; enables the stripe-"
        "index range check (indices must fall in [0, N))",
    )
    parser.add_argument(
        "--allow-relative",
        action="store_true",
        help="accept relative paths (default: a namespace dump is rooted, "
        "non-absolute paths are rejected)",
    )
    parser.add_argument(
        "--keep-duplicate-paths",
        action="store_true",
        help="accept records whose path repeats an earlier record's "
        "(default: duplicates are rejected — they break the analyses' "
        "unique-path set algebra)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget; on expiry the ingest stops gracefully "
        "between chunks, prints the resume hint, and exits "
        f"{EXIT_DEADLINE}",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="byte ceiling for resident ingest state (accepts 512M / 2G "
        "/ plain bytes); the record chunk size is shrunk to fit, so a "
        "multi-GB dump ingests in far less memory than its size",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="after ingesting, run the paper analyses over the produced "
        "archive (the ingest health report is folded into the archive "
        "health report)",
    )
    parser.add_argument(
        "--analyses",
        default="all",
        help="analyses to run with --analyze (comma-separated; default all)",
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--purge-window", type=int, default=90, help="purge window in days"
    )
    parser.add_argument(
        "--allow-config-mismatch",
        action="store_true",
        help="with --analyze: downgrade a manifest config mismatch to a "
        "warning",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve an analyzed archive over HTTP: per-figure aggregates "
            "(/v1/figures) and per-user/-project/-domain slices "
            "(/v1/slice/<dim>/<key>) with deadlines, load shedding, "
            "circuit breaking, and graceful SIGTERM drain."
        ),
    )
    parser.add_argument(
        "archive", metavar="DIR", help=".rpq archive directory to serve"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="engine-backed requests executing concurrently",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        metavar="N",
        help="admitted-but-waiting requests beyond the workers; past "
        "this, requests shed with 429 + Retry-After",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="per-request wall-clock budget; at expiry the engine stops "
        "at the next snapshot boundary and the response carries the "
        "covered prefix plus a typed degraded marker",
    )
    parser.add_argument(
        "--grace-seconds",
        type=float,
        default=5.0,
        metavar="S",
        help="SIGTERM drain budget: stop accepting, let in-flight "
        "requests finish for S seconds, then cancel them and exit 0 "
        "(a second signal hard-aborts immediately)",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="byte ceiling for admission (512M / 2G / bytes): requests "
        "whose projected working set exceeds it shed with 429",
    )
    parser.add_argument(
        "--tenant-limit",
        type=int,
        default=64,
        metavar="N",
        help="per-tenant (X-Tenant header) slice requests per "
        "--tenant-window; 0 disables rate limiting",
    )
    parser.add_argument(
        "--tenant-window", type=float, default=1.0, metavar="S",
        help="rate-limit window seconds",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive archive faults that trip the circuit breaker "
        "(figures then serve stale; slices 503 until a probe recovers)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=2.0, metavar="S",
        help="seconds the breaker stays open before a half-open probe",
    )
    parser.add_argument(
        "--analyses", default="all",
        help="analyses to warm (comma-separated; default all)",
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument("--scale", type=float, default=2.5e-5)
    parser.add_argument("--weeks", type=int, default=72)
    parser.add_argument(
        "--purge-window", type=int, default=90, help="purge window in days"
    )
    parser.add_argument(
        "--allow-config-mismatch",
        action="store_true",
        help="downgrade a manifest config mismatch to a warning",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="track a growing archive: a background follower polls the "
        "manifest generation, replays new .rpd deltas through journaled "
        "kernel state (O(delta) re-warm, zero snapshot loads for "
        "converted kernels), and atomically swaps aggregates + ETag "
        "while requests keep serving last-good",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=2.0, metavar="S",
        help="seconds between the follower's manifest-generation polls "
        "(with --follow)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="warm via journaled kernel state + .rpd delta replay even "
        "without --follow (implied by --follow)",
    )
    return parser


def build_synth_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro synth",
        description=(
            "Sharded synthesis: partition the simulated center into N "
            "project shards, run them on supervised workers (crash "
            "restarts, straggler deadlines, quarantine), and merge the "
            "per-shard weekly scans into one analyzable .rpq archive. "
            "The merged archive is byte-identical for a fixed --shards "
            "regardless of --workers, scheduling order, or worker crashes."
        ),
    )
    parser.add_argument(
        "--out", required=True, metavar="DIR",
        help="merged archive directory (per-shard parts land in DIR/parts)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="shard count — part of the archive's identity: the same "
        "--shards always reproduces the same bytes (default: 4)",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="W",
        help="concurrent worker processes (0 = run shards inline, the "
        "reference execution every worker count reproduces exactly)",
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver", "serial"),
        default=None,
        help="worker start method (default: platform default; "
        "REPRO_START_METHOD overrides; serial forces inline)",
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--scale", type=float, default=2.5e-5,
        help="fraction of the paper's per-domain entry counts to simulate",
    )
    parser.add_argument("--weeks", type=int, default=72)
    parser.add_argument("--users", type=int, default=1362, metavar="N",
                        help="population size (the hot loop is vectorized; "
                        "millions are fine)")
    parser.add_argument(
        "--purge-window", type=int, default=90, help="purge window in days"
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="per-shard attempt ceiling before quarantine (default: 3)",
    )
    parser.add_argument(
        "--stall-timeout", type=float, default=30.0, metavar="S",
        help="straggler watchdog: warn when a shard's checkpoint journal "
        "stops growing for S seconds (default: 30)",
    )
    parser.add_argument(
        "--shard-max-seconds", type=float, default=None, metavar="S",
        help="per-attempt deadline (a RunController.child of the run "
        "budget); expiry kills the worker and costs one attempt",
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "skip", "quarantine"),
        default="raise",
        help="shard failure policy: raise fails fast on the first "
        "quarantined shard or corrupt part (default); skip/quarantine "
        "fold them into the archive health report and merge the rest",
    )
    parser.add_argument(
        "--no-deltas", action="store_true",
        help="skip writing the per-interval .rpd delta sidecars",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="wall-clock budget for the whole run; on expiry outstanding "
        "workers are cancelled, the resume hint printed, and the exit "
        f"code is {EXIT_DEADLINE} (re-running resumes from the per-shard "
        "journals)",
    )
    parser.add_argument(
        "--grace-seconds", type=float, default=5.0, metavar="S",
        help="drain budget after a stop is requested (default: 5)",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: the only place signal handlers are installed.

    Library callers construct a :class:`RunController` and pass it down
    explicitly; the CLI owns the process, so it routes SIGINT/SIGTERM into
    the controller's token and converts a graceful
    :class:`RunInterrupted` stop into conventional exit codes
    (130 signal, 124 deadline — like ``timeout(1)``).

    ``repro ingest ...`` dispatches to the trace-ingestion verb,
    ``repro serve ...`` to the archive HTTP server, ``repro synth ...`` to
    the sharded-simulation supervisor; anything else is the classic
    simulate/analyze pipeline.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["ingest"]:
        return ingest_main(argv[1:])
    if argv[:1] == ["serve"]:
        return serve_main(argv[1:])
    if argv[:1] == ["synth"]:
        return synth_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        controller = RunController(
            max_seconds=args.max_seconds,
            memory_budget=args.memory_budget,
            grace_seconds=args.grace_seconds,
        )
    except ValueError as exc:
        parser.error(str(exc))
    with controller.install_signal_handlers():
        try:
            return _run(args, controller)
        except RunInterrupted as err:
            print(f"# interrupted: {err}", file=sys.stderr)
            return EXIT_SIGNAL if "SIG" in err.reason else EXIT_DEADLINE


def ingest_main(argv: list[str]) -> int:
    """The ``repro ingest`` verb (same signal/exit-code conventions)."""
    parser = build_ingest_parser()
    args = parser.parse_args(argv)
    try:
        controller = RunController(
            max_seconds=args.max_seconds,
            memory_budget=args.memory_budget,
        )
    except ValueError as exc:
        parser.error(str(exc))
    with controller.install_signal_handlers():
        try:
            return _run_ingest(args, controller)
        except RunInterrupted as err:
            print(f"# interrupted: {err}", file=sys.stderr)
            return EXIT_SIGNAL if "SIG" in err.reason else EXIT_DEADLINE


def synth_main(argv: list[str]) -> int:
    """The ``repro synth`` verb (same signal/exit-code conventions)."""
    parser = build_synth_parser()
    args = parser.parse_args(argv)
    try:
        controller = RunController(
            max_seconds=args.max_seconds, grace_seconds=args.grace_seconds
        )
    except ValueError as exc:
        parser.error(str(exc))
    with controller.install_signal_handlers():
        try:
            return _run_synth(args, controller)
        except RunInterrupted as err:
            print(f"# interrupted: {err}", file=sys.stderr)
            if err.resume_hint:
                print(f"# resume: {err.resume_hint}", file=sys.stderr)
            return EXIT_SIGNAL if "SIG" in err.reason else EXIT_DEADLINE


def _run_synth(args: argparse.Namespace, controller: RunController) -> int:
    from repro.query.supervisor import ShardFailedError, SupervisorConfig
    from repro.synth.sharding import run_sharded

    config = SimulationConfig(
        seed=args.seed,
        scale=args.scale,
        weeks=args.weeks,
        n_users=args.users,
        purge_window_days=args.purge_window,
    )
    supervisor = SupervisorConfig(
        workers=args.workers,
        start_method=args.start_method,
        max_attempts=args.max_attempts,
        stall_timeout_seconds=args.stall_timeout,
        shard_max_seconds=args.shard_max_seconds,
    )
    t0 = time.time()
    try:
        result = run_sharded(
            config,
            args.shards,
            args.out,
            supervisor=supervisor,
            controller=controller,
            on_error=args.on_error,
            deltas=not args.no_deltas,
        )
    except ShardFailedError as err:
        print(f"# shard failure: {err}", file=sys.stderr)
        print(
            "# re-run to retry (journaled weeks are kept), or use "
            "--on-error skip to merge the surviving shards",
            file=sys.stderr,
        )
        return 1
    rows = sum(rec["rows"] for rec in result.records)
    print(
        f"# {result.stats.summary()}",
        file=sys.stderr,
    )
    print(
        f"# merged {len(result.records)} weekly snapshots "
        f"({rows:,} rows) into {result.directory} ({time.time() - t0:.1f}s)",
        file=sys.stderr,
    )
    if result.health.degraded:
        print("# ARCHIVE DEGRADED:", file=sys.stderr)
        for line in result.health.summary().splitlines():
            print(f"#   {line}", file=sys.stderr)
    if args.verbose:
        for rec in result.records:
            print(
                f"#   {rec['label']}: {rec['rows']:>9,d} rows "
                f"({rec['stored_bytes']:,} B)",
                file=sys.stderr,
            )
    return 0


def serve_main(argv: list[str]) -> int:
    """The ``repro serve`` verb.

    Signal contract (matches the batch CLI's): the first SIGTERM/SIGINT
    starts a graceful drain — stop accepting, let in-flight requests
    finish (or cancel them) within ``--grace-seconds`` — and exits 0; a
    second signal hard-aborts with exit 130.  Signal handlers live here
    and only here; the server/library never touches signal disposition.
    """
    import asyncio
    import signal as signal_mod

    from repro.core.runcontrol import MemoryBudget
    from repro.serve import (
        AnalysisServer,
        ArchiveService,
        CircuitBreaker,
        ServerConfig,
    )

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    try:
        budget = (
            MemoryBudget(args.memory_budget)
            if args.memory_budget is not None
            else None
        )
        controller = RunController(
            memory_budget=budget, grace_seconds=args.grace_seconds
        )
        server_config = ServerConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
            request_timeout_s=args.request_timeout,
            grace_seconds=args.grace_seconds,
            memory_budget=budget,
            tenant_limit=args.tenant_limit if args.tenant_limit > 0 else None,
            tenant_window_s=args.tenant_window,
        )
    except ValueError as exc:
        parser.error(str(exc))
    config = SimulationConfig(
        seed=args.seed,
        scale=args.scale,
        weeks=args.weeks,
        purge_window_days=args.purge_window,
    )
    service = ArchiveService(
        args.archive,
        config=config,
        analyses=args.analyses,
        controller=controller,
        breaker=CircuitBreaker(
            threshold=args.breaker_threshold,
            cooldown_s=args.breaker_cooldown,
        ),
        allow_config_mismatch=args.allow_config_mismatch,
        incremental=args.follow or args.incremental,
    )
    t0 = time.time()
    service.warm()
    print(
        f"# warmed {len(service.collection)} snapshots, "
        f"{len(service.figure_names())} figures ({time.time() - t0:.1f}s)",
        file=sys.stderr,
    )
    follower = None
    if args.follow:
        from repro.serve import ArchiveFollower

        follower = ArchiveFollower(
            service, poll_interval_s=args.poll_interval
        )
        follower.start()
        print(
            f"# following generation {service.generation} "
            f"(poll every {args.poll_interval:g}s)",
            file=sys.stderr,
        )
    server = AnalysisServer(service, server_config, controller=controller)
    try:
        return asyncio.run(_serve_forever(server, signal_mod))
    finally:
        if follower is not None:
            follower.stop()


async def _serve_forever(server, signal_mod) -> int:
    """Run the accept loop until a signal drains (0) or hard-aborts (130)."""
    import asyncio

    loop = asyncio.get_running_loop()
    finished = loop.create_future()
    signal_count = 0

    def note(message: str) -> None:
        # shutdown progress is best-effort: when the operator's terminal
        # pipeline died with the signal (^C to a `| tee` group), stderr is
        # a broken pipe and print raises — that must never stop the drain
        try:
            print(message, file=sys.stderr)
        except OSError:
            pass

    def on_signal(name: str) -> None:
        nonlocal signal_count
        signal_count += 1
        if signal_count == 1:

            async def _drain() -> None:
                await server.drain(f"received {name}")
                if not finished.done():
                    finished.set_result(0)

            loop.create_task(_drain())
            note(
                f"# received {name}: draining (grace "
                f"{server.config.grace_seconds:g}s)"
            )
        elif not finished.done():
            finished.set_result(EXIT_SIGNAL)
            note(f"# second {name}: hard abort")

    for signum in (signal_mod.SIGTERM, signal_mod.SIGINT):
        loop.add_signal_handler(
            signum, on_signal, signal_mod.Signals(signum).name
        )
    await server.start()
    # flush=True and a parseable PORT line: acceptance tests (and reverse
    # proxies) read the bound ephemeral port from here
    print(
        f"# serving on http://{server.config.host}:{server.port} "
        f"(PORT={server.port})",
        flush=True,
    )
    code = await finished
    note("# drained; bye")
    return int(code)


def _run_ingest(args: argparse.Namespace, controller: RunController) -> int:
    from repro.ingest import IngestConfig, ValidationLimits, ingest_trace

    limits = ValidationLimits(
        require_absolute=not args.allow_relative,
        ost_count=args.ost_count,
        reject_duplicate_paths=not args.keep_duplicate_paths,
    )
    kwargs = {"on_error": args.on_error, "limits": limits}
    if args.chunk_records is not None:
        kwargs["chunk_records"] = args.chunk_records
    ingest_config = IngestConfig(
        max_bad_records=args.max_bad_records,
        max_bad_ratio=args.max_bad_ratio,
        **kwargs,
    )
    manifest_config = SimulationConfig(
        seed=args.seed, purge_window_days=args.purge_window
    )
    sources = args.sources[0] if len(args.sources) == 1 else args.sources
    t0 = time.time()
    result = ingest_trace(
        sources,
        args.out,
        ingest_config,
        checkpoint=args.checkpoint,
        controller=controller,
        manifest_config=manifest_config,
        deltas=not args.no_deltas,
    )
    report = result.report
    print(
        f"# ingested {report.rows:,}/{report.records:,} records from "
        f"{len(report.files)} trace file(s) into {len(result.outputs)} "
        f"snapshot(s) ({time.time() - t0:.1f}s)",
        file=sys.stderr,
    )
    if report.degraded:
        print("# INGEST DEGRADED:", file=sys.stderr)
        for line in report.summary().splitlines():
            print(f"#   {line}", file=sys.stderr)
    if args.analyze:
        from repro.core.pipeline import analyze_archive

        pipeline, paper = analyze_archive(
            result.out_dir,
            config=manifest_config,
            analyses=args.analyses,
            allow_config_mismatch=args.allow_config_mismatch,
            controller=controller,
            ingest_report=report,
        )
        print(paper.text)
        health = pipeline.context.collection.health_report()
        if health.degraded:
            print("# ARCHIVE DEGRADED:", file=sys.stderr)
            for line in health.summary().splitlines():
                print(f"#   {line}", file=sys.stderr)
    return 0


def _run(args: argparse.Namespace, controller: RunController) -> int:
    config = SimulationConfig(
        seed=args.seed,
        scale=args.scale,
        weeks=args.weeks,
        purge_window_days=args.purge_window,
    )
    executor = SnapshotExecutor(
        processes=None if args.parallel else 1,
        start_method=args.start_method,
    )
    t0 = time.time()
    if args.from_archive:
        from repro.core.pipeline import analyze_archive

        pipeline, report = analyze_archive(
            args.from_archive,
            config=config,
            executor=executor,
            burstiness_min_files=args.burstiness_min_files,
            analyses=args.analyses,
            on_error=args.on_error,
            checkpoint=args.checkpoint,
            allow_config_mismatch=args.allow_config_mismatch,
            controller=controller,
            max_task_failures=args.max_task_failures,
            incremental=args.incremental,
        )
        print(
            f"# analyzed {pipeline.simulation.n_snapshots} archived "
            f"snapshots out-of-core ({time.time() - t0:.1f}s)",
            file=sys.stderr,
        )
        health = pipeline.context.collection.health_report()
        if health.degraded:
            print("# ARCHIVE DEGRADED:", file=sys.stderr)
            for line in health.summary().splitlines():
                print(f"#   {line}", file=sys.stderr)
    else:
        pipeline = ReproPipeline(
            config=config,
            executor=executor,
            burstiness_min_files=args.burstiness_min_files,
            controller=controller,
        )
        sim = pipeline.simulate(verbose=args.verbose)
        print(
            f"# simulated {sim.n_snapshots} snapshots, "
            f"{len(sim.collection.paths):,} unique paths "
            f"({time.time() - t0:.1f}s)",
            file=sys.stderr,
        )
        if args.archive_dir:
            stats = pipeline.archive(
                args.archive_dir, deltas=not args.no_deltas
            )
            print(
                f"# archive: PSV {stats.psv_bytes:,} B → columnar "
                f"{stats.columnar_bytes:,} B ({stats.reduction:.1f}x reduction)",
                file=sys.stderr,
            )
        report = pipeline.analyze(analyses=args.analyses)
    if args.export_dir:
        from repro.analysis.export import export_all

        written = export_all(report, args.export_dir)
        print(f"# exported {len(written)} CSV series to {args.export_dir}",
              file=sys.stderr)
    print(report.text)
    if args.engine_stats:
        from repro.analysis.report import render_execution_stats

        print("\n== EXECUTION ENGINE ==", file=sys.stderr)
        print(
            render_execution_stats(pipeline.context.execution_stats),
            file=sys.stderr,
        )
    if args.scorecard:
        from repro.analysis.observations import (
            check_observations,
            render_observations,
        )

        print("\n== OBSERVATIONS SCORECARD ==")
        print(render_observations(check_observations(report)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
