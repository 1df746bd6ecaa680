"""Network substrates: the simulator and the live gateway.

``repro.net.sim`` provides the deterministic environment used for every
paper experiment (one engine, :class:`FastSimulation`);
``repro.net.live`` provides the line protocol and a real TCP client
exercising the same framework code path with real hashing;
``repro.net.gateway`` provides the asyncio micro-batching server that
speaks that protocol through ``challenge_batch``.
"""

from repro.net.gateway import GatewayServer, LoadGenerator
from repro.net.live import LiveClient
from repro.net.sim import (
    FastSimulation,
    FixedDelayChannel,
    ServerModel,
    SimulationReport,
)

__all__ = [
    "FastSimulation",
    "SimulationReport",
    "ServerModel",
    "FixedDelayChannel",
    "LiveClient",
    "GatewayServer",
    "LoadGenerator",
]
