"""Sharded-simulation scaling bench → BENCH_scale.json.

Measures how the supervised sharded synthesis path (``repro synth``,
:func:`repro.synth.sharding.run_sharded`) scales with population size:
each point simulates the full weekly-scan window for N users on a fixed
shard count, in its own subprocess so peak RSS is attributable, and
reports users vs wall-clock vs peak RSS (supervisor process and worker
children separately).  Wall-clock splits into ``synth_s`` (the
supervised shard workers) and ``merge_s`` (the serial merge in the
supervisor that follows them).  The namespace grows with the population
(``scale = users * PER_USER_SCALE`` — a bigger center has both more
users and more files), so wall-clock growing linearly with users is the
expected shape; the contract is per-process memory staying inside the
budget, because each worker only ever holds its own shard's slice of
the tree.

Run directly (``python benchmarks/bench_scale.py``) to publish the full
curve, or as a smoke check in CI (``--smoke``: the smallest point only,
plus the restart-survival contract — a run with an injected worker
SIGKILL must produce a merged archive byte-identical to the inline
fault-free run).
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.synth.driver import SimulationConfig  # noqa: E402
from repro.synth.sharding import run_sharded  # noqa: E402

OUTPUT = REPO_ROOT / "benchmarks" / "output" / "BENCH_scale.json"

#: population points; the namespace scale grows proportionally
USER_POINTS = (2_000, 20_000, 100_000)
PER_USER_SCALE = 1.5e-9
WEEKS = 4
SHARDS = 4
WORKERS = 4

#: per-process peak-RSS ceiling (MB) every point must stay under
MEMORY_BUDGET_MB = 2048


def bench_config(users: int) -> SimulationConfig:
    return SimulationConfig(
        seed=2015,
        n_users=users,
        scale=users * PER_USER_SCALE,
        weeks=WEEKS,
        min_project_files=4,
        stress_depths=False,
    )


def run_point_child(users: int) -> dict:
    """One point, executed inside its own subprocess (``--point``)."""
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        result = run_sharded(
            bench_config(users), SHARDS, Path(tmp) / "archive", workers=WORKERS
        )
        wall = time.perf_counter() - t0
    synth = result.stats.wall_seconds
    kb = 1024.0  # linux ru_maxrss is in KiB
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kb
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kb
    return {
        "users": users,
        "shards": SHARDS,
        "workers": WORKERS,
        "weeks": WEEKS,
        "rows": sum(rec["rows"] for rec in result.records),
        "wall_s": round(wall, 2),
        "synth_s": round(synth, 2),
        "merge_s": round(wall - synth, 2),
        "peak_rss_supervisor_mb": round(self_mb, 1),
        "peak_rss_worker_mb": round(child_mb, 1),
        "restarts": result.stats.restarts,
        "quarantined": result.stats.quarantined,
    }


def run_point(users: int) -> dict:
    """Fork a fresh interpreter per point so RSS baselines don't accumulate."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--point", str(users)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def archive_digest(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.glob("*.rpq")) + sorted(directory.glob("*.rpd"))
    }


def restart_survival_check() -> dict:
    """Smoke contract: a SIGKILLed worker must not change a single byte."""
    from repro.testing.faults import shard_kill

    config = bench_config(USER_POINTS[0])
    with tempfile.TemporaryDirectory() as tmp:
        ref = Path(tmp) / "ref"
        run_sharded(config, SHARDS, ref, workers=0)
        want = archive_digest(ref)
        out = Path(tmp) / "faulted"
        result = run_sharded(
            config, SHARDS, out, workers=2, faults=[shard_kill(1, after_weeks=1)]
        )
        identical = archive_digest(out) == want
    return {
        "restarts": result.stats.restarts,
        "completed": result.stats.completed,
        "byte_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smallest point only + assert the restart-survival contract",
    )
    parser.add_argument(
        "--point", type=int, default=None, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT, help="result JSON path"
    )
    args = parser.parse_args(argv)

    if args.point is not None:
        print(json.dumps(run_point_child(args.point)))
        return 0

    users_points = USER_POINTS[:1] if args.smoke else USER_POINTS
    points = []
    for users in users_points:
        point = run_point(users)
        points.append(point)
        print(
            f"# users={users:>7,} wall={point['wall_s']:>7}s "
            f"(synth={point['synth_s']}s merge={point['merge_s']}s) "
            f"rows={point['rows']:>9,} "
            f"rss sup={point['peak_rss_supervisor_mb']:>7}MB "
            f"worker={point['peak_rss_worker_mb']:>7}MB",
            file=sys.stderr,
        )
    survival = restart_survival_check()
    print(
        f"# restart survival: {survival['restarts']} restart(s), "
        f"byte_identical={survival['byte_identical']}",
        file=sys.stderr,
    )
    result = {
        "bench": "sharded_scale",
        "config": {
            "per_user_scale": PER_USER_SCALE,
            "weeks": WEEKS,
            "shards": SHARDS,
            "workers": WORKERS,
            "memory_budget_mb": MEMORY_BUDGET_MB,
        },
        "points": points,
        "restart_survival": survival,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"# wrote {args.output}", file=sys.stderr)

    for point in points:
        peak = max(
            point["peak_rss_supervisor_mb"], point["peak_rss_worker_mb"]
        )
        if peak > MEMORY_BUDGET_MB:
            print(
                f"FAIL: {point['users']:,} users peaked at {peak}MB "
                f"(budget {MEMORY_BUDGET_MB}MB)",
                file=sys.stderr,
            )
            return 1
        if point["quarantined"] or not point["rows"]:
            print(
                f"FAIL: {point['users']:,} users: quarantines or empty merge",
                file=sys.stderr,
            )
            return 1
    if not survival["byte_identical"] or survival["restarts"] < 1:
        print("FAIL: restart-survival contract violated", file=sys.stderr)
        return 1
    if not args.smoke and max(p["users"] for p in points) < 100_000:
        print("FAIL: full bench must reach 100k users", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
