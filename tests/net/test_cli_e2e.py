"""CLI end-to-end: `repro serve` + `repro request` as real processes.

Mirrors the CI smoke job: start a server subprocess on an ephemeral
port, drive it with `repro request`, then SIGTERM it and require a
clean drain (exit 0 and the drain-complete summary).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.net.protocol import PROTOCOL_VERSION, encode_frame, make_request

REPO = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.slow


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_request(port, *args, timeout=30):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "request", *args,
         "--port", str(port)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=cli_env(),
        cwd=REPO,
    )


@pytest.fixture
def server():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--max-inflight", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=cli_env(),
        cwd=REPO,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        port = int(line.split("listening on ")[1].split()[0].split(":")[1])
        yield proc, port
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)


class TestServeCli:
    def test_request_roundtrip_and_sigterm_drain(self, server):
        proc, port = server

        health = run_request(port, "health")
        assert health.returncode == 0, health.stderr
        payload = json.loads(health.stdout)
        assert payload["status"] == "ok"

        submit = run_request(port, "submit", "--coords", "0,0;1,1;2,3")
        assert submit.returncode == 0, submit.stderr
        assert "scheduled 3 buckets" in submit.stdout

        ranged = run_request(
            port, "submit", "--range", "0,0,2,2,6", "--json"
        )
        assert ranged.returncode == 0, ranged.stderr
        record = json.loads(ranged.stdout)
        assert record["num_buckets"] == 4

        metrics = run_request(port, "metrics")
        assert metrics.returncode == 0
        assert "repro_net_requests_total" in metrics.stdout
        assert "# repro.net: scheduler" in metrics.stdout

        # one unknown disk id: typed error, exit 1, nothing applied
        bad = run_request(port, "mark-failed", "--disks", "0,999")
        assert bad.returncode == 1
        assert "InvalidQueryError" in bad.stderr
        after = run_request(port, "submit", "--coords", "4,4")
        assert after.returncode == 0, after.stderr
        assert "degraded False" in after.stdout

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "drain complete" in out
        assert "3 queries" in out

    def test_sigterm_drains_with_idle_connected_client(self, server):
        # regression for Python >= 3.12, where Server.wait_closed()
        # waits for connection handlers: an idle handshaken client held
        # open across the SIGTERM used to hang the drain forever
        proc, port = server
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(
                encode_frame(
                    make_request(0, "hello", {"version": PROTOCOL_VERSION})
                )
            )
            assert sock.recv(1 << 16)  # the handshake reply
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        assert "drain complete" in out

    def test_request_against_dead_server_fails_cleanly(self):
        result = run_request(1, "health", "--attempts", "1")
        assert result.returncode == 1
        assert "ConnectError" in result.stderr

    def test_shutdown_rpc_drains_server(self, server):
        proc, port = server
        done = run_request(port, "shutdown")
        assert done.returncode == 0
        assert "draining" in done.stdout
        deadline = time.monotonic() + 30
        while proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.1)
        assert proc.returncode == 0
