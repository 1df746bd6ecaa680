#!/usr/bin/env python3
"""Live demo: the framework over real TCP sockets with real hashing.

Starts a GatewayServer (DAbR + Policy 1) on a loopback port, then issues
requests whose features span the trust spectrum and times each full
REQUEST → PUZZLE → SOLUTION → OK exchange, wall-clock.

Run:  python examples/live_server_demo.py
"""

from __future__ import annotations

import random

from repro import AIPoWFramework, DAbRModel, generate_corpus, policy_1
from repro.metrics.reporting import render_table
from repro.net.gateway import GatewayServer
from repro.net.live import LiveClient
from repro.reputation.dataset import synthesize_features


def main() -> None:
    print("training DAbR and starting the live server ...")
    train, _ = generate_corpus(size=3000, seed=7).split()
    framework = AIPoWFramework(DAbRModel().fit(train), policy_1())

    rng = random.Random(11)
    rows = []
    with GatewayServer(framework) as server:
        host, port = server.address
        print(f"serving on {host}:{port}\n")
        client = LiveClient(server.address)

        for intensity in (0.05, 0.25, 0.5, 0.75, 0.95):
            features = synthesize_features(intensity, rng)
            result = client.fetch("/index.html", features)
            rows.append(
                [
                    intensity * 10.0,
                    result.difficulty,
                    result.attempts,
                    result.solve_seconds * 1000.0,
                    result.latency * 1000.0,
                    "served" if result.ok else "rejected",
                ]
            )

    print(
        render_table(
            [
                "true_score", "difficulty", "attempts",
                "solve_ms", "total_ms", "outcome",
            ],
            rows,
            title="live exchanges (real sockets, real sha256 grinding)",
        )
    )
    print(
        "\nEvery row is one complete Figure-1 exchange over TCP; "
        "difficulty (and hence latency) tracks the client's traffic "
        "footprint."
    )


if __name__ == "__main__":
    main()
