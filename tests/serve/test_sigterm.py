"""Signal acceptance against a real ``repro serve`` subprocess.

One SIGTERM drains gracefully (exit 0, typed refusals while draining);
two back-to-back SIGTERMs hard-abort (exit 130).  Signals need a process
boundary, so unlike the rest of the suite this drives the actual CLI.
"""

import http.client
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

CHILD = "from repro.core.cli import main; import sys; sys.exit(main(sys.argv[1:]))"


def _spawn_server(archive_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-c", CHILD,
            "serve", str(archive_dir),
            "--port", "0",
            "--seed", "47", "--scale", "1.5e-6", "--weeks", "6",
            "--analyses", "census,access",
            "--grace-seconds", "5",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    return proc


def _await_port(proc, timeout=120.0):
    """Parse the bound ephemeral port from the parseable PORT= line."""
    port_box: list[int] = []

    def reader():
        for line in proc.stdout:
            if "PORT=" in line:
                port_box.append(int(line.split("PORT=")[1].rstrip(")\n ")))
                return

    t = threading.Thread(target=reader, daemon=True)
    t.start()
    t.join(timeout=timeout)
    if not port_box:
        proc.kill()
        _, err = proc.communicate(timeout=30)
        pytest.fail(f"server never announced its port; stderr:\n{err}")
    return port_box[0]


def _get(port, path, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def test_sigterm_drains_and_exits_zero(archive_dir):
    proc = _spawn_server(archive_dir)
    try:
        port = _await_port(proc)
        status, body = _get(port, "/healthz")
        assert status == 200
        assert b'"ok"' in body
        status, _ = _get(port, "/v1/figures")
        assert status == 200
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
        assert code == 0
        stderr = proc.stderr.read()
        assert "draining" in stderr
        assert "bye" in stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def test_second_signal_hard_aborts_with_130(archive_dir):
    proc = _spawn_server(archive_dir)
    try:
        port = _await_port(proc)
        assert _get(port, "/healthz")[0] == 200
        # TERM then INT: two *distinct* signals cannot coalesce the way a
        # back-to-back TERM+TERM can, so the server sees both.  The first
        # starts the drain, which on this idle server may finish before
        # the second lands; the CLI keeps its handlers installed until the
        # process exits, so the second hard-aborts with 130 wherever it
        # lands, in the loop or after it has closed
        proc.send_signal(signal.SIGTERM)
        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=60)
        assert code == 130
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
