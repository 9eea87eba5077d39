"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_entry.py SPANS.jsonl <repro serve args>``.
The server runs exactly as ``repro serve`` does; when it drains on SIGTERM
its spans are written to ``SPANS.jsonl``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import Tracer, install  # noqa: E402
from repro.core.cli import serve_main  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    try:
        return serve_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
