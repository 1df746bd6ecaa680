#!/usr/bin/env python3
"""CI smoke: the networked admission state store's operational story.

Exercises ``repro state serve`` + ``repro serve --state-server`` the
way an operator would, end to end:

1. boot a snapshot-backed state server (``repro state serve``);
2. boot a 2-worker cluster whose admission state lives on that server
   (``repro serve --workers 2 --state-server``), with the
   cluster-global shed policy enabled;
3. run one full request → puzzle → solve → redeem round-trip with an
   unmodified :class:`~repro.net.live.client.LiveClient`, read the
   served client's offset off the state server while the cluster still
   runs — a first-time client's offset is posted like any other, so
   this proves the gateway's once-per-pass store flush sends a new
   address's write; SIGTERM the cluster and require exit 0;
4. SIGTERM the state server (writes its snapshot), boot a *fresh*
   state server on the same snapshot, and check the served client's
   warmed feedback offset survived the restart;
5. boot the cluster again against the new server, round-trip once
   more, and require the offset to have kept accumulating — read
   while the cluster runs, since the folded offset is posted and only
   the gateway's once-per-pass store flush sends it — so reputation is
   durable across both worker and state-server restarts;
6. boot a second state server and grow the ring onto it live
   (``repro state topology --nodes A --add B``): the warmed offset must
   read back through the 2-node ring, and every ``replay`` entry must
   sit on the node the ring assigns its seed, so no spent puzzle
   reopens.

Exits non-zero on any failure, so it can gate CI directly:

.. code-block:: bash

    PYTHONPATH=src python tools/netstore_smoke.py
"""

from __future__ import annotations

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


class ForegroundProcess:
    """One foreground ``repro`` subcommand with banner/exit handling."""

    def __init__(self, argv: list[str], banner: str) -> None:
        self.banner = banner
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
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

    def wait_address(self) -> str:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"no banner within {STARTUP_TIMEOUT:.0f}s"
                )
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                raise RuntimeError(
                    f"no banner within {STARTUP_TIMEOUT:.0f}s"
                ) from None
            if line is None:
                raise RuntimeError(
                    f"process exited before banner: {self.proc.poll()}"
                )
            print("proc:", line, end="")
            if self.banner in line:
                return line.split(" on ", 1)[1].split()[0]

    def terminate(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=SHUTDOWN_TIMEOUT)
        while True:
            line = self.lines.get()
            if line is None:
                break
            print("proc:", line, end="")
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def state_server(snapshot: pathlib.Path) -> ForegroundProcess:
    return ForegroundProcess(
        ["state", "serve", "--bind", "127.0.0.1:0",
         "--snapshot", str(snapshot)],
        banner="serving admission state on ",
    )


def cluster(state_address: str) -> ForegroundProcess:
    return ForegroundProcess(
        ["serve", "--workers", "2", "--port", "0",
         "--policy", "policy-1",
         "--state-server", state_address,
         "--shed-policy", "drop-global-reputation"],
        banner="serving AI-assisted PoW on ",
    )


def round_trip(address: str) -> None:
    from repro.net.live.client import LiveClient
    from repro.reputation.features import FEATURE_NAMES

    host, port = address.rsplit(":", 1)
    features = {name: 0.0 for name in FEATURE_NAMES}
    result = LiveClient((host, int(port))).fetch("/healthz", features)
    print(
        f"round-trip: ok={result.ok} difficulty={result.difficulty} "
        f"attempts={result.attempts} latency={result.latency:.3f}s"
    )
    if not result.ok or result.body != "resource:/healthz":
        raise RuntimeError(f"round-trip failed: {result}")


def warmed_offset(addresses: list[str], ip: str):
    from repro.state import MultiNodeStateStore

    with MultiNodeStateStore(addresses) as store:
        state = store.namespace("feedback").get(ip)
    return None if state is None else state[0]


def live_offset(address: str, ip: str, below: float, timeout: float = 5.0):
    """The offset as soon as it reads below ``below``, or the last read.

    Read while the cluster runs: the redeem's write may still be a
    loop pass away from the state server when the reply arrives.
    """
    deadline = time.monotonic() + timeout
    while True:
        offset = warmed_offset([address], ip)
        if offset is not None and offset < below:
            return offset
        if time.monotonic() > deadline:
            return offset
        time.sleep(0.05)


def reshard(nodes: list[str], extra: str) -> None:
    """Grow the ring live onto ``extra`` with ``repro state topology``."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "state", "topology",
         "--nodes", ",".join(nodes), "--add", extra],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=SHUTDOWN_TIMEOUT,
    )
    for line in (result.stdout + result.stderr).splitlines():
        print("topology:", line)
    if result.returncode != 0:
        raise RuntimeError(f"repro state topology exited {result.returncode}")


def replay_placement(addresses: list[str]) -> tuple[int, int]:
    """(replay entries, entries off the node the ring assigns their seed)."""
    from repro.state import HashRing, RemoteStateStore

    ring = HashRing(len(addresses))
    total = misplaced = 0
    for index, address in enumerate(addresses):
        node = RemoteStateStore(address)
        try:
            for seed, _ in node.namespace("replay").items():
                total += 1
                misplaced += ring.shard_for(seed) != index
        finally:
            node.close()
    return total, misplaced


def main() -> int:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix="netstore-smoke-") as tmp:
        snapshot = pathlib.Path(tmp) / "state.json"

        # Run 1: state server + cluster, one exchange.
        state = state_server(snapshot)
        try:
            state_address = state.wait_address()
            workers = cluster(state_address)
            try:
                round_trip(workers.wait_address())
                live = live_offset(state_address, "127.0.0.1", below=0.0)
                print("offset while the cluster runs:", live)
                code = workers.terminate()
                print("cluster exited with", code)
                if code != 0:
                    return 1
            finally:
                workers.kill()
            first = warmed_offset([state_address], "127.0.0.1")
            print("warmed offset on state server:", first)
            if first is None or first >= 0 or live != first:
                print("served exchange should have earned a negative "
                      "offset on the shared store while the cluster ran")
                return 1
            code = state.terminate()
            print("state server exited with", code)
            if code != 0:
                return 1
        finally:
            state.kill()

        if not snapshot.exists():
            print("state server should have written its snapshot")
            return 1

        # Run 2: fresh state server on the same snapshot, fresh cluster.
        state = state_server(snapshot)
        try:
            state_address = state.wait_address()
            restored = warmed_offset([state_address], "127.0.0.1")
            print("offset after state-server restart:", restored)
            if restored != first:
                print("warmed offset should survive the restart")
                return 1
            workers = cluster(state_address)
            try:
                round_trip(workers.wait_address())
                live = live_offset(state_address, "127.0.0.1", below=first)
                print("offset while the cluster runs:", live)
                code = workers.terminate()
                print("cluster exited with", code)
                if code != 0:
                    return 1
            finally:
                workers.kill()
            second = warmed_offset([state_address], "127.0.0.1")
            print("offset after second run:", second)
            if second is None or not second < first or live != second:
                print("offset should keep accumulating across restarts, "
                      "and reach the state server while the cluster runs")
                return 1

            # Run 3: grow the ring live onto a second state server.
            redeemed, _ = replay_placement([state_address])
            extra = state_server(pathlib.Path(tmp) / "state-b.json")
            try:
                ring = [state_address, extra.wait_address()]
                reshard(ring[:1], ring[1])
                through_ring = warmed_offset(ring, "127.0.0.1")
                print("offset through the 2-node ring:", through_ring)
                if through_ring != second:
                    print("warmed offset should survive the reshard")
                    return 1
                total, misplaced = replay_placement(ring)
                print(f"replay entries: {total} (before {redeemed}), "
                      f"{misplaced} off their seed's node")
                if redeemed < 1 or total != redeemed or misplaced:
                    print("every spent puzzle should stay on the node "
                          "its seed routes to")
                    return 1
                code = extra.terminate()
                print("second state server exited with", code)
                if code != 0:
                    return 1
            finally:
                extra.kill()
            code = state.terminate()
            print("state server exited with", code)
            if code != 0:
                return 1
        finally:
            state.kill()

    print("netstore smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
