#!/bin/sh
# Run the tier-1 suite under every multiprocessing start method the
# execution engine supports.  REPRO_START_METHOD overrides the engine's
# default process-wide, so the same tests exercise fork (copy-on-write
# inheritance), spawn and forkserver (shared-memory column transport), and
# the serial path without any code changes.
#
# Usage: scripts/test_start_methods.sh [pytest args...]
#   e.g. scripts/test_start_methods.sh tests/query -q
set -e

cd "$(dirname "$0")/.."
export PYTHONPATH=src

ARGS="${*:--x -q}"

for method in "" spawn forkserver serial; do
    if [ -n "$method" ]; then
        echo "=== REPRO_START_METHOD=$method ==="
        REPRO_START_METHOD="$method" python -m pytest $ARGS
    else
        echo "=== default start method ==="
        python -m pytest $ARGS
    fi
done
