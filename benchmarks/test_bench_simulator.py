"""Reference-engine benches: event throughput and full-run cost.

Not a paper artifact — these track the callback reference engine
(``tests/oracle``), the denominator of the ``megasim`` / ``netsim``
speedup gates; a drifting oracle cost would silently move both ratios.
"""

from __future__ import annotations

from repro.core.framework import AIPoWFramework
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import BENIGN_PROFILE
from tests.oracle import EventEngine, Simulation


def test_engine_event_throughput(benchmark):
    """Pure engine overhead: schedule + dispatch of 10k no-op events."""

    def run_10k():
        engine = EventEngine()
        for i in range(10_000):
            engine.schedule_at(float(i % 100), lambda: None)
        engine.run()
        return engine.processed_count

    assert benchmark(run_10k) == 10_000


def test_simulation_requests_per_second(benchmark):
    """Full pipeline cost per simulated request."""
    generator = WorkloadGenerator(seed=31)
    clients = generator.population(BENIGN_PROFILE, 20)
    trace = generator.open_loop_trace(clients, duration=60.0)
    framework = AIPoWFramework(ConstantModel(3.0), FixedPolicy(10))

    def run():
        return Simulation(framework, seed=1).run(trace)

    report = benchmark.pedantic(run, iterations=1, rounds=3)
    assert report.requests == len(trace)
    benchmark.extra_info["simulated_requests"] = report.requests
