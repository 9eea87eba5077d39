"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload reproduce --seeds 1-10

Runs ``perfbench/run.py`` once per seed (``--seconds`` defaults to
``run_seconds`` in ``BENCHMARK.json``) and prints, for every end-to-end
metric, the median and the quartile spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) over the median,
next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    results = []
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", f"{args.seconds:g}", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        results.append(result)
        print(f"# seed {seed}: " + json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        ), flush=True)
    print(f"correct={all(r['correct'] for r in results)} "
          f"failed={sum(r['failed'] for r in results)}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        spread = quartile_spread(values)
        # set-up time is held to its bound by median only, not by spread
        verdict = "steady" if spread < metric["bound"] / 3 else "NOT steady"
        if metric["name"] == "setup_s":
            verdict = "spread exempt"
        print(f"{args.workload:<13} {metric['name']:<14} median={statistics.median(values):<10.4g}"
              f" spread={spread:.3f} bound={metric['bound']} {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
