"""Simulator wiring of the batch admission pipeline.

Same-timestep arrivals must drain through ``challenge_batch`` — one
admission batch per simulated instant — without changing what each
request experiences: FIFO costs per request, per-request puzzle
timestamps, every request terminating.
"""

from __future__ import annotations

from repro.core.framework import AIPoWFramework
from repro.net.sim import SessionSpec
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import BENIGN_PROFILE
from repro.traffic.trace import Trace, TraceEntry
from tests.oracle import ClosedLoopSimulation, Simulation


def burst_trace(clients: int = 12, bursts: int = 4) -> Trace:
    """Every client fires at the same instants — maximal coalescing."""
    generator = WorkloadGenerator(seed=11)
    specs = generator.population(BENIGN_PROFILE, clients)
    entries = []
    for burst in range(bursts):
        at = float(burst)
        for spec in specs:
            entries.append(
                TraceEntry(
                    request=generator.request_for(spec, at, "/burst"),
                    profile=spec.profile.name,
                    true_score=spec.true_score,
                )
            )
    return Trace(entries)


def framework() -> AIPoWFramework:
    return AIPoWFramework(ConstantModel(0.0), FixedPolicy(2))


class TestOpenLoopBatching:
    def test_simultaneous_arrivals_form_batches(self):
        simulation = Simulation(framework(), seed=3)
        report = simulation.run(burst_trace())
        assert report.metrics.overall.total == report.requests
        assert simulation.largest_arrival_batch > 1
        assert simulation.arrival_batches < report.requests

    def test_staggered_arrivals_still_terminate(self):
        trace, _ = WorkloadGenerator(seed=5).mixed_trace(
            [(BENIGN_PROFILE, 6)], duration=5.0
        )
        simulation = Simulation(framework(), seed=3)
        report = simulation.run(trace)
        assert report.metrics.overall.total == len(trace)

    def test_batching_is_deterministic(self):
        def run():
            simulation = Simulation(framework(), seed=9)
            report = simulation.run(burst_trace())
            return (
                report.metrics.overall.served,
                report.metrics.overall.latencies.median(),
                simulation.largest_arrival_batch,
            )

        assert run() == run()

    def test_pow_disabled_batches_too(self):
        simulation = Simulation(framework(), seed=3, pow_enabled=False)
        report = simulation.run(burst_trace())
        assert report.metrics.overall.goodput_fraction == 1.0
        assert simulation.largest_arrival_batch > 1


class TestClosedLoopBatching:
    def sessions(self, count: int = 8) -> list[SessionSpec]:
        generator = WorkloadGenerator(seed=21)
        return [
            SessionSpec(
                client=spec, exchanges=3, think_time=0.5, start=0.0
            )
            for spec in generator.population(BENIGN_PROFILE, count)
        ]

    def test_simultaneous_sessions_form_batches(self):
        simulation = ClosedLoopSimulation(framework(), seed=4)
        report = simulation.run(self.sessions())
        assert report.completed_exchanges == 8 * 3
        assert simulation.largest_admission_batch > 1

    def test_closed_loop_deterministic(self):
        def run():
            simulation = ClosedLoopSimulation(framework(), seed=4)
            report = simulation.run(self.sessions())
            return (
                report.completed_exchanges,
                report.metrics.overall.served,
                simulation.largest_admission_batch,
            )

        assert run() == run()
