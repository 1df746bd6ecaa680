#!/usr/bin/env python3
"""CI smoke: the gateway's state-directory story, cluster and single.

Exercises ``repro serve --workers 2 --state-dir`` the way an operator
would, end to end, then the same story for one process split on a
non-default ring, ``repro serve --workers 1 --state-dir --replicas 32``
(one process is shard 0 of 1, assembled like a cluster worker):

1. boot a 2-worker cluster with a state directory;
2. run one full request → puzzle → solve → redeem round-trip with an
   unmodified :class:`~repro.net.live.client.LiveClient`;
3. SIGTERM; require exit 0, the shutdown line ``admitted 1 in 1
   batches`` (read from the workers' final metrics snapshots, and the
   same line a single-process ``repro serve`` prints) and per-shard
   snapshot files on disk;
4. merge the shards with ``repro state snapshot`` and check the served
   client's warmed feedback offset is in the snapshot;
5. boot the cluster *again* on the same state directory, round-trip
   once more, SIGTERM, and require the same shutdown line;
6. require the client's offset to have kept accumulating across the
   restart — the warmed reputation table survived — and every shard
   file to record the ring it was written under.

A last leg, ``repro serve --workers 2 --trace-out FILE``, serves one
client on each shard and requires ``load_spans`` to read the merged
span file, spans from both workers in it, and no per-worker partial
left behind.

Exits non-zero on any failure, so it can gate CI directly:

.. code-block:: bash

    PYTHONPATH=src python tools/cluster_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import queue
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
STARTUP_TIMEOUT = 180.0
SHUTDOWN_TIMEOUT = 60.0


class ServeProcess:
    """One foreground ``repro serve`` run with banner/exit handling."""

    def __init__(self, args: list[str]) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--policy", "policy-1", *args,
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def wait_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"no serve banner within {STARTUP_TIMEOUT:.0f}s"
                )
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                raise RuntimeError(
                    f"no serve banner within {STARTUP_TIMEOUT:.0f}s"
                ) from None
            if line is None:
                raise RuntimeError(
                    f"serve exited before banner: {self.proc.poll()}"
                )
            print("serve:", line, end="")
            if "serving AI-assisted PoW on " in line:
                address = line.split(" on ", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)

    def wait_metrics_url(self) -> str:
        """The introspection base URL, from the line after the banner."""
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"no metrics line within {STARTUP_TIMEOUT:.0f}s"
                )
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                raise RuntimeError(
                    f"no metrics line within {STARTUP_TIMEOUT:.0f}s"
                ) from None
            if line is None:
                raise RuntimeError(
                    f"serve exited before metrics: {self.proc.poll()}"
                )
            print("serve:", line, end="")
            if "metrics on " in line:
                url = line.split(" on ", 1)[1].strip()
                return url.removesuffix("/metrics")

    def terminate(self, exchanges: int = 1) -> int:
        """SIGTERM; the exit code, or 1 without the shutdown line."""
        from gateway_smoke import drain_shutdown

        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=SHUTDOWN_TIMEOUT)
        expect = f"admitted {exchanges} in {exchanges} batches"
        if drain_shutdown(self.lines, expect) and code == 0:
            return 1
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def feedback_offset(snapshot_path: pathlib.Path, ip: str):
    """The warmed feedback offset for ``ip`` in a merged snapshot."""
    document = json.loads(snapshot_path.read_text(encoding="utf-8"))
    for key, state in document["namespaces"].get("feedback", []):
        if key == ip:
            return state[0]
    return None


def run_state_snapshot(state_dir: pathlib.Path, out: pathlib.Path) -> None:
    subprocess.run(
        [
            sys.executable, "-m", "repro", "state", "snapshot",
            "--state-dir", str(state_dir), "--out", str(out),
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )


def round_trip(address: tuple[str, int], source_ip: str | None = None) -> None:
    from repro.net.live.client import LiveClient
    from repro.reputation.features import FEATURE_NAMES

    features = {name: 0.0 for name in FEATURE_NAMES}
    result = LiveClient(address, source_ip=source_ip).fetch(
        "/healthz", features
    )
    print(
        f"round-trip: ok={result.ok} difficulty={result.difficulty} "
        f"attempts={result.attempts} latency={result.latency:.3f}s"
    )
    if not result.ok or result.body != "resource:/healthz":
        raise RuntimeError(f"round-trip failed: {result}")


def warm_restart(tmp: pathlib.Path, workers: int, replicas: int) -> int:
    """Steps 1-6 for one worker count; 0 when the warm state survived."""
    print(f"-- --workers {workers} --replicas {replicas}")
    state_dir = tmp / f"state-{workers}"
    merged = tmp / f"merged-{workers}.json"
    args = [
        "--workers", str(workers), "--state-dir", str(state_dir),
        "--replicas", str(replicas), "--metrics-port", "0",
    ]

    server = ServeProcess(args)
    try:
        address = server.wait_address()
        metrics_url = server.wait_metrics_url()
        round_trip(address)
        # One scrape must aggregate every worker's registry.
        from gateway_smoke import scrape_introspection

        if scrape_introspection(metrics_url, expect_admitted=1):
            return 1
        code = server.terminate()
        print("first run exited with", code)
        if code != 0:
            return 1
    finally:
        server.kill()

    shard_files = sorted(p.name for p in state_dir.glob("*.json"))
    print("shard snapshots:", shard_files)
    if shard_files != [
        f"shard-{i}-of-{workers}.json" for i in range(workers)
    ]:
        print("expected one snapshot per worker")
        return 1

    run_state_snapshot(state_dir, merged)
    first = feedback_offset(merged, "127.0.0.1")
    print("warmed offset after run 1:", first)
    if first is None or first >= 0:
        print("served exchange should have earned a negative offset")
        return 1

    server = ServeProcess(args)
    try:
        round_trip(server.wait_address())
        code = server.terminate()
        print("second run exited with", code)
        if code != 0:
            return 1
    finally:
        server.kill()

    run_state_snapshot(state_dir, merged)
    second = feedback_offset(merged, "127.0.0.1")
    print("warmed offset after restart:", second)
    if second is None or not second < first:
        print("offset should keep accumulating across the restart")
        return 1
    rings = {
        json.loads(path.read_text(encoding="utf-8"))["replicas"]
        for path in state_dir.glob("*.json")
    }
    if rings != {replicas}:
        print(f"shard files record replicas {rings}, expected {replicas}")
        return 1
    return 0


def trace_leg(tmp: pathlib.Path) -> int:
    """Two workers' spans come home as one file; 0 when they did."""
    from repro.obs.tracing import load_spans
    from repro.state import HashRing

    print("-- --workers 2 --trace-out")
    out = tmp / "traced"
    out.mkdir()
    spans_path = out / "spans.jsonl"
    # One client per shard, picked with the ring the cluster routes by.
    ring = HashRing(2)
    by_shard: dict[int, str] = {}
    octet = 1
    while len(by_shard) < 2:
        ip = f"127.0.8.{octet}"
        by_shard.setdefault(ring.shard_for(ip), ip)
        octet += 1
    server = ServeProcess([
        "--workers", "2", "--trace-out", str(spans_path),
        "--trace-every", "1",
    ])
    try:
        address = server.wait_address()
        for ip in by_shard.values():
            round_trip(address, source_ip=ip)
        code = server.terminate(exchanges=2)
        print("traced run exited with", code)
        if code != 0:
            return 1
    finally:
        server.kill()

    meta, spans = load_spans(spans_path)
    workers = sorted({span["span_id"].split("-")[0] for span in spans})
    print(f"merged span file: {len(spans)} spans from {workers}, meta {meta}")
    if meta.get("recorder") != "cluster" or workers != ["w0", "w1"]:
        print("expected one cluster span file holding both workers' spans")
        return 1
    left = sorted(p.name for p in out.iterdir())
    if left != [spans_path.name]:
        print(f"per-worker partials left behind: {left}")
        return 1
    return 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix="cluster-smoke-") as tmp:
        for workers, replicas in ((2, 64), (1, 32)):
            if warm_restart(pathlib.Path(tmp), workers, replicas):
                return 1
        if trace_leg(pathlib.Path(tmp)):
            return 1
    print("cluster smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
