"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` makes
a separate traced run that breaks the timed part down by layer;
``--workload all`` runs the four workloads in turn.  Every
metric is printed as ``name value unit``; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Each
result, with its provenance, is also appended to
``.perfbench_out/history.jsonl`` and a traced run's spans are written to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("reproduce", "serve-mixed", "publish-week", "shard-merge")

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: the end-to-end metrics every workload reports
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("bytes_per_row", "B")]


def peak_rss_mb() -> float:
    """Highest peak RSS of this process or any child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def import_program() -> None:
    """Interpreter start plus importing the program, in a fresh process."""
    subprocess.run(
        [sys.executable, "-c", "import repro.core.pipeline, repro.serve, repro.synth.sharding"],
        env=program_env(), cwd=ROOT, check=True,
    )


def provenance(args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_rev": rev or "unknown",
        "src_sha256": digest.hexdigest()[:16],
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def measure(workload, ctx) -> tuple[dict, object, list[str]]:
    """Untraced: set up ``SETUP_REPEATS`` times, time the last set-up's run."""
    from perfbench.workloads import bytes_per_row

    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        started = time.perf_counter()
        import_program()
        state = workload.setup(ctx)
        setups.append(time.perf_counter() - started)
    try:
        timed = workload.run(state, ctx, "run")
        peak = peak_rss_mb()
        problems = timed.check()
    finally:
        workload.teardown(state)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (timed.wall_s, "s"),
        "peak_rss_mb": (peak, "MB"),
        "bytes_per_row": (bytes_per_row(timed.archive), "B"),
    }
    metrics.update(timed.extra)
    return metrics, timed, problems


def measure_traced(workload, ctx) -> tuple[dict, object, list[str]]:
    """An untraced reference pass, then the same timed part traced."""
    from perfbench.tracing import (
        LAYER_METRICS, Tracer, dump_spans, install, layer_metrics, load_spans,
    )

    state = workload.setup(ctx)
    try:
        reference = workload.run(state, ctx, "reference", repeat=False)
    finally:
        workload.teardown(state)
    shutil.rmtree(reference.archive, ignore_errors=True)

    tracer = Tracer()
    ctx.tracer = tracer
    uninstall = install(tracer)
    try:
        state = workload.setup(ctx)
        try:
            timed = workload.run(state, ctx, "traced", repeat=False)
            problems = timed.check()
        finally:
            workload.teardown(state)
    finally:
        uninstall()
    spans = list(tracer.spans)
    for path in sorted(ctx.span_dir.glob("*.jsonl")):
        spans += load_spans(path)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    dump_spans(spans, out / f"trace-{workload.name}-{ctx.seed}.jsonl")
    values = layer_metrics(spans, timed.window, reference.wall_s, timed.readings)
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {name: (value, units[name]) for name, value in values.items()}, timed, problems


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {f"{name}.{metric}": value for metric, value in result["metrics"].items()}
        )
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, Context

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    workload = WORKLOADS[args.workload]()
    ctx = Context(ROOT, workdir, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, timed, problems = measure_traced(workload, ctx)
        else:
            metrics, timed, problems = measure(workload, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# provenance " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<13} {name:<24} {value:>14.6g} {unit}")
    succeeded = timed.attempted - timed.failed
    print(
        f"# operations: attempted={timed.attempted} succeeded={succeeded} "
        f"failed={timed.failed} fail_ratio={timed.failed / timed.attempted:.4g}"
    )
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    if args.trace:
        from perfbench.tracing import LAYER_METRICS

        reported = [name for name, _, _ in LAYER_METRICS]
    else:
        reported = [name for name, _ in END_TO_END]
    result = {
        "correct": not problems,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in reported},
    }
    history = ROOT / ".perfbench_out"
    history.mkdir(exist_ok=True)
    with open(history / "history.jsonl", "a", encoding="utf-8") as fh:
        record = dict(
            result, provenance=prov, printed={k: v[0] for k, v in metrics.items()},
            unit_walls=timed.unit_walls,
        )
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
