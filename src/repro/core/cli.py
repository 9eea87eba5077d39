"""``repro-pipeline`` / ``repro`` command-line entry point.

Runs the full reproduction at a chosen scale and prints the paper-style
report; optionally archives the columnar snapshot files.  The ``ingest``
verb (``repro ingest TRACE... --out DIR``) instead imports foreign
LustreDU/PSV trace dumps into an analyzable archive through the hardened
:mod:`repro.ingest` path.
"""

from __future__ import annotations

import argparse
import os
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


#: Run-control flags: one type, default, metavar and choices per flag.  Each
#: verb passes its own help, because each verb means something different by
#: them (see :func:`_add_run_flags`).
_RUN_FLAGS = {
    "start_method": {
        "choices": ("fork", "spawn", "forkserver", "serial"),
        "default": None,
    },
    "max_seconds": {"type": float, "default": None, "metavar": "S"},
    "memory_budget": {"default": None, "metavar": "BYTES"},
    "grace_seconds": {"type": float, "default": 5.0, "metavar": "S"},
}


def _add_run_flags(parser: argparse.ArgumentParser, **helps: str) -> None:
    """Add the run-control flags named by ``helps`` (dest → help text)."""
    for dest, text in helps.items():
        parser.add_argument(
            "--" + dest.replace("_", "-"), help=text, **_RUN_FLAGS[dest]
        )


def _simulation_flags(window: bool = True) -> argparse.ArgumentParser:
    """Parent parser for the ``SimulationConfig`` flags a verb takes.

    ``repro``, ``repro serve`` and ``repro synth`` take all four; ``repro
    ingest`` simulates no window (``window=False``) and records only
    ``--seed`` and ``--purge-window`` in its manifest.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=2015)
    if window:
        parent.add_argument(
            "--scale",
            type=float,
            default=2.5e-5,
            help="fraction of the paper's per-domain entry counts to simulate",
        )
        parent.add_argument("--weeks", type=int, default=72)
    parent.add_argument(
        "--purge-window", type=int, default=90, help="purge window in days"
    )
    return parent


def _analysis_flags() -> argparse.ArgumentParser:
    """Parent parser for the verbs that analyze an archive: ``repro``,
    ``repro ingest`` (with ``--analyze``) and ``repro serve``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--analyses",
        default="all",
        help="comma-separated analysis names to run (default: all; "
        "repro ingest runs them with --analyze, repro serve warms them); "
        "requirements are pulled in automatically.  Available: "
        "users, participation, census, cdfs, depth, extensions, "
        "ext_trend, languages, access, ost, growth, ages, burstiness, "
        "network, collaboration, table1",
    )
    parent.add_argument(
        "--allow-config-mismatch",
        action="store_true",
        help="downgrade an archive-manifest config mismatch (seed, purge "
        "window; n_users only for an archive without an accounts member) "
        "from a hard error to a warning",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pipeline",
        description=(
            "Reproduce 'Scientific User Behavior and Data-Sharing Trends in "
            "a Petascale File System' (SC'17) on a synthetic OLCF."
        ),
        parents=[_simulation_flags(), _analysis_flags()],
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="use a process pool for per-snapshot analyses",
    )
    _add_run_flags(
        parser,
        start_method="process start method for --parallel (default: "
        "platform default; REPRO_START_METHOD overrides both)",
        max_seconds="wall-clock budget for the whole run; on expiry the "
        "pipeline stops gracefully at the next boundary (week / snapshot / "
        "dispatch wave), flushes any --checkpoint journal, prints the "
        f"resume hint, and exits {EXIT_DEADLINE}",
        memory_budget="byte ceiling for the run's working set (accepts "
        "512M / 2G / plain bytes); half caps the snapshot cache "
        "(byte-denominated eviction), the rest caps in-flight dispatch waves",
        grace_seconds="how long in-flight workers may drain after a stop is "
        "requested before the pool is terminated (default: 5)",
    )
    parser.add_argument(
        "--archive-dir",
        default=None,
        help="also publish the window here as an archive (.rpq snapshots, "
        ".rpd delta sidecars, accounts.json, manifest.json)",
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
        help="failure policy under --from-archive: raise a typed error "
        "(default) on a corrupt .rpq file or a failed analysis task, skip "
        "them, or also move them to the archive's quarantine/ "
        "subdirectory; non-raise policies deep-verify every file and "
        "analyze the surviving window",
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
        "full re-scan (a missing or broken sidecar is recomputed from its "
        "two snapshots; unusable state falls back to full maps; both warn)",
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        help="write plotting-ready CSVs for every figure series here",
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
        parents=[_simulation_flags(window=False), _analysis_flags()],
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
    _add_run_flags(
        parser,
        max_seconds="wall-clock budget; on expiry the ingest stops "
        "gracefully between chunks, prints the resume hint, and exits "
        f"{EXIT_DEADLINE}",
        memory_budget="byte ceiling for resident ingest state (accepts "
        "512M / 2G / plain bytes); the record chunk size is shrunk to fit, "
        "so a multi-GB dump ingests in far less memory than its size",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="after ingesting, run the paper analyses over the produced "
        "archive (the ingest health report is folded into the archive "
        "health report)",
    )
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
        parents=[_simulation_flags(), _analysis_flags()],
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
    _add_run_flags(
        parser,
        grace_seconds="SIGTERM drain budget: stop accepting, let in-flight "
        "requests finish for S seconds, then cancel them and exit 0 "
        "(a second signal hard-aborts immediately)",
        memory_budget="byte ceiling for admission (512M / 2G / bytes): "
        "requests whose projected working set exceeds it shed with 429",
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
        "--follow",
        action="store_true",
        help="track a growing archive: a background follower polls the "
        "manifest generation, replays new .rpd deltas through journaled "
        "kernel state (O(delta) re-warm, zero snapshot loads for any "
        "--analyses selection), and atomically swaps aggregates + ETag "
        "while requests keep serving last-good",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=2.0, metavar="S",
        help="seconds between the follower's manifest-generation polls "
        "(with --follow)",
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
        parents=[_simulation_flags()],
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
    parser.add_argument("--users", type=int, default=1362, metavar="N",
                        help="population size (the hot loop is vectorized; "
                        "millions are fine)")
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
    _add_run_flags(
        parser,
        start_method="worker start method (default: platform default; "
        "REPRO_START_METHOD overrides; serial forces inline)",
        max_seconds="wall-clock budget for the whole run; on expiry "
        "outstanding workers are cancelled, the resume hint printed, and "
        f"the exit code is {EXIT_DEADLINE} (re-running resumes from the "
        "per-shard journals)",
        grace_seconds="drain budget after a stop is requested (default: 5)",
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
        code = serve_main(argv[1:])
        # serve's signal handlers must outlive every Python statement: the
        # interpreter's own shutdown puts the default dispositions back
        # before it tears the modules down, and a second signal landing
        # then would kill the process instead of exiting 130
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    if argv[:1] == ["synth"]:
        return synth_main(argv[1:])
    parser = build_parser()
    return _run_controlled(parser, _run, parser.parse_args(argv))


def ingest_main(argv: list[str]) -> int:
    """The ``repro ingest`` verb (same signal/exit-code conventions)."""
    parser = build_ingest_parser()
    return _run_controlled(parser, _run_ingest, parser.parse_args(argv))


def synth_main(argv: list[str]) -> int:
    """The ``repro synth`` verb (same signal/exit-code conventions)."""
    parser = build_synth_parser()
    return _run_controlled(parser, _run_synth, parser.parse_args(argv))


def _run_controlled(parser, run, args) -> int:
    """Run ``run(args, controller)`` under a :class:`RunController` built
    from the verb's run-control flags, with SIGINT/SIGTERM routed into it.

    A graceful stop prints ``# interrupted: <message>`` and, when the
    interrupted layer left one, ``# resume: <hint>`` once, then maps to the
    conventional exit code (130 signal, 124 deadline).
    """
    limits = {
        name: value
        for name, value in vars(args).items()
        if name in ("max_seconds", "memory_budget", "grace_seconds")
    }
    try:
        controller = RunController(**limits)
    except ValueError as exc:
        parser.error(str(exc))
    with controller.install_signal_handlers():
        try:
            return run(args, controller)
        except RunInterrupted as err:
            print(f"# interrupted: {err.args[0]}", file=sys.stderr)
            if err.resume_hint:
                print(f"# resume: {err.resume_hint}", file=sys.stderr)
            return EXIT_SIGNAL if "SIG" in err.reason else EXIT_DEADLINE


def _simulation_config(args: argparse.Namespace, **fields) -> SimulationConfig:
    """The :class:`SimulationConfig` of the simulation flags the verb
    declares (see :func:`_simulation_flags`), plus ``fields``."""
    window = {k: v for k, v in vars(args).items() if k in ("scale", "weeks")}
    return SimulationConfig(
        seed=args.seed, purge_window_days=args.purge_window, **window, **fields
    )


def _print_degraded(title: str, report) -> None:
    """Print a degraded health report to stderr, one ``#``-prefixed line
    each; a healthy report prints nothing."""
    if report.degraded:
        print(f"# {title} DEGRADED:", file=sys.stderr)
        for line in report.summary().splitlines():
            print(f"#   {line}", file=sys.stderr)


def _run_synth(args: argparse.Namespace, controller: RunController) -> int:
    from repro.query.supervisor import ShardFailedError, SupervisorConfig
    from repro.synth.sharding import run_sharded

    config = _simulation_config(args, n_users=args.users)
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
    _print_degraded("ARCHIVE", result.health)
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
    service = ArchiveService(
        args.archive,
        config=_simulation_config(args),
        analyses=args.analyses,
        controller=controller,
        breaker=CircuitBreaker(
            threshold=args.breaker_threshold,
            cooldown_s=args.breaker_cooldown,
        ),
        allow_config_mismatch=args.allow_config_mismatch,
        incremental=args.follow,
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


class _ServeSignals:
    """The serve verb's SIGTERM/SIGINT handler, the process's own.

    Installed with ``signal.signal`` rather than the loop's
    ``add_signal_handler``, it outlives the loop: a closing asyncio loop
    puts back the default disposition of the signals it handled, so on an
    idle server, whose drain finishes at once, a second signal landing
    after the loop has closed would kill the process instead of exiting
    130.
    The first signal calls ``on_first`` in the loop; any later one, in the
    loop or after it, exits 130 at once, as does a first one that finds the
    loop closed (the server failed to start).  :func:`main` ends a serve
    process with ``os._exit``, so the handler is still installed when the
    process exits.
    """

    def __init__(self, loop, on_first, signal_mod) -> None:
        import socket

        self.loop = loop
        self.on_first = on_first
        self.signal_mod = signal_mod
        self.count = 0
        # the C-level handler writes each signal's number to ``notify``:
        # that wakes the selector even when another thread took the
        # signal, so this handler runs promptly in the main thread
        self.wake, self.notify = socket.socketpair()
        self.wake.setblocking(False)
        self.notify.setblocking(False)
        loop.add_reader(self.wake.fileno(), self.wake.recv, 512)
        signal_mod.set_wakeup_fd(self.notify.fileno(), warn_on_full_buffer=False)
        for signum in (signal_mod.SIGTERM, signal_mod.SIGINT):
            signal_mod.signal(signum, self)

    def __call__(self, signum: int, frame) -> None:
        self.count += 1
        name = self.signal_mod.Signals(signum).name
        if self.count == 1 and not self.loop.is_closed():
            self.loop.call_soon_threadsafe(self.on_first, name)
            return
        # one unbuffered write: the handler may interrupt a buffered one
        try:
            os.write(2, f"# second {name}: hard abort\n".encode())
        except OSError:
            pass
        os._exit(EXIT_SIGNAL)


async def _serve_forever(server, signal_mod) -> int:
    """Run the accept loop until a signal drains (0) or hard-aborts (130)."""
    import asyncio

    loop = asyncio.get_running_loop()
    finished = loop.create_future()

    def note(message: str) -> None:
        # shutdown progress is best-effort: when the operator's terminal
        # pipeline died with the signal (^C to a `| tee` group), stderr is
        # a broken pipe and print raises — that must never stop the drain
        try:
            print(message, file=sys.stderr)
        except OSError:
            pass

    def drain(name: str) -> None:
        async def _drain() -> None:
            await server.drain(f"received {name}")
            if not finished.done():
                finished.set_result(0)

        loop.create_task(_drain())
        note(
            f"# received {name}: draining (grace "
            f"{server.config.grace_seconds:g}s)"
        )

    _ServeSignals(loop, drain, signal_mod)
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
    manifest_config = _simulation_config(args)
    sources = args.sources[0] if len(args.sources) == 1 else args.sources
    t0 = time.time()
    result = ingest_trace(
        sources,
        args.out,
        ingest_config,
        checkpoint=args.checkpoint,
        controller=controller,
        manifest_config=manifest_config,
    )
    report = result.report
    print(
        f"# ingested {report.rows:,}/{report.records:,} records from "
        f"{len(report.files)} trace file(s) into {len(result.outputs)} "
        f"snapshot(s) ({time.time() - t0:.1f}s)",
        file=sys.stderr,
    )
    _print_degraded("INGEST", report)
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
        _print_degraded("ARCHIVE", pipeline.context.collection.health_report())
    return 0


def _run(args: argparse.Namespace, controller: RunController) -> int:
    config = _simulation_config(args)
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
            incremental=args.incremental,
        )
        print(
            f"# analyzed {pipeline.simulation.n_snapshots} archived "
            f"snapshots out-of-core ({time.time() - t0:.1f}s)",
            file=sys.stderr,
        )
        _print_degraded("ARCHIVE", pipeline.context.collection.health_report())
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
            stats = pipeline.archive(args.archive_dir)
            print(
                f"# archive: columnar {stats.columnar_bytes:,} B",
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
