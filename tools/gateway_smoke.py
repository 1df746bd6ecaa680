#!/usr/bin/env python3
"""CI smoke: boot ``repro serve``, solve one puzzle, shut down.

Exercises the gateway exactly the way an operator would: the CLI
subprocess in the foreground with no mode flag (the gateway is the
default and only single-process server), an unmodified
:class:`~repro.net.live.client.LiveClient` doing one full
request → puzzle → solve → redeem round-trip against it, then SIGINT,
a clean-exit check and the shutdown summary line (the same
``admitted 1 in 1 batches`` a ``--workers 2`` cluster prints; see
``tools/cluster_smoke.py``).  Exits non-zero on any failure, so it can
gate CI directly:

.. code-block:: bash

    PYTHONPATH=src python tools/gateway_smoke.py
"""

from __future__ import annotations

import os
import pathlib
import queue
import signal
import subprocess
import sys
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
STARTUP_TIMEOUT = 120.0
SHUTDOWN_TIMEOUT = 30.0
#: How ``repro serve`` (any ``--workers``) sums up one served round-trip.
SHUTDOWN_LINE = "admitted 1 in 1 batches"


def drain_shutdown(lines: queue.Queue, expect: str = SHUTDOWN_LINE) -> int:
    """Echo the exited child's remaining stdout; 0 if it summed up right.

    ``lines`` is fed by a stdout pump thread that ends with ``None``;
    one of them must start with ``expect``.
    """
    seen = False
    while True:
        try:
            line = lines.get(timeout=SHUTDOWN_TIMEOUT)
        except queue.Empty:
            print(f"stdout still open {SHUTDOWN_TIMEOUT:.0f}s after exit")
            return 1
        if line is None:
            break
        print("serve:", line, end="")
        seen = seen or line.startswith(expect)
    if not seen:
        print(f"no {expect!r} line at shutdown")
        return 1
    return 0


def scrape_introspection(
    metrics_url: str, expect_admitted: int, timeout: float = 30.0
) -> int:
    """Scrape /metrics and /healthz; returns 0 when both check out.

    Polls until the admitted counter reaches ``expect_admitted`` —
    cluster workers publish snapshots on an interval, so the first
    scrape can lag the round-trip.
    """
    import json
    import urllib.request

    from repro.obs.registry import validate_exposition

    wanted = f"gateway_admitted_total {expect_admitted}"
    text = ""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with urllib.request.urlopen(
            metrics_url + "/metrics", timeout=10.0
        ) as reply:
            text = reply.read().decode("utf-8")
        if wanted in text:
            break
        time.sleep(0.1)
    if wanted not in text:
        print(f"metrics never showed {wanted!r}:")
        print(text)
        return 1
    problems = validate_exposition(text)
    if problems:
        print("invalid Prometheus exposition:", problems)
        return 1
    with urllib.request.urlopen(
        metrics_url + "/healthz", timeout=10.0
    ) as reply:
        health = json.load(reply)
    print(f"scrape: {wanted} ok, healthz {health}")
    if health.get("status") != "ok":
        print("healthz not ok:", health)
        return 1
    return 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.net.live.client import LiveClient
    from repro.reputation.features import FEATURE_NAMES

    # The serve CLI fits DAbR, which enforces the full feature schema.
    features = {name: 0.0 for name in FEATURE_NAMES}

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--max-batch", "16",
            "--batch-window", "0.002",
            "--metrics-port", "0",
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # Pump stdout on a thread so a silently hung subprocess cannot
    # block readline() past the startup deadline.
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    try:
        # The serve banner carries the bound address:
        # "serving AI-assisted PoW on 127.0.0.1:PORT (...)".
        deadline = time.monotonic() + STARTUP_TIMEOUT
        banner = ""
        while not banner:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                print(f"no serve banner within {STARTUP_TIMEOUT:.0f}s")
                return 1
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                print(f"no serve banner within {STARTUP_TIMEOUT:.0f}s")
                return 1
            if line is None:
                print("gateway exited before serving:", proc.poll())
                return 1
            print("serve:", line, end="")
            if "serving AI-assisted PoW on " in line:
                banner = line
        address = banner.split(" on ", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)

        # The metrics line follows the banner:
        # "metrics on http://HOST:PORT/metrics".
        metrics_url = ""
        while not metrics_url:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                print(f"no metrics line within {STARTUP_TIMEOUT:.0f}s")
                return 1
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                print(f"no metrics line within {STARTUP_TIMEOUT:.0f}s")
                return 1
            if line is None:
                print("gateway exited before metrics:", proc.poll())
                return 1
            print("serve:", line, end="")
            if "metrics on " in line:
                metrics_url = line.split(" on ", 1)[1].strip()
                metrics_url = metrics_url.removesuffix("/metrics")

        result = LiveClient((host, int(port))).fetch("/healthz", features)
        print(
            f"round-trip: ok={result.ok} difficulty={result.difficulty} "
            f"attempts={result.attempts} latency={result.latency:.3f}s"
        )
        if not result.ok or result.body != "resource:/healthz":
            print("round-trip failed:", result)
            return 1

        if scrape_introspection(metrics_url, expect_admitted=1):
            return 1

        proc.send_signal(signal.SIGINT)
        try:
            code = proc.wait(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"gateway ignored SIGINT for {SHUTDOWN_TIMEOUT:.0f}s")
            return 1
        print("gateway exited with", code)
        if code != 0 or drain_shutdown(lines):
            return 1
        print("gateway smoke OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
