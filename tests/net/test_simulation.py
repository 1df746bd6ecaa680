"""Integration tests for the full network simulation."""

from __future__ import annotations

import pytest

from repro.core.framework import AIPoWFramework
from repro.core.records import ResponseStatus
from repro.net.sim import ServerModel
from repro.policies.linear import policy_2
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import (
    BENIGN_PROFILE,
    MALICIOUS_PROFILE,
    ClientProfile,
)
from tests.oracle import Simulation


def make_trace(seed=42, benign=5, malicious=5, duration=10.0):
    generator = WorkloadGenerator(seed=seed)
    return generator.mixed_trace(
        [(BENIGN_PROFILE, benign), (MALICIOUS_PROFILE, malicious)],
        duration=duration,
    )


def fixed_framework(difficulty=4):
    return AIPoWFramework(ConstantModel(0.0), FixedPolicy(difficulty))


class TestBasicRuns:
    def test_all_requests_terminate(self):
        trace, _ = make_trace(duration=5.0)
        simulation = Simulation(fixed_framework(), seed=1)
        report = simulation.run(trace)
        assert report.requests == len(trace)
        assert report.metrics.overall.total == len(trace)

    def test_deterministic_given_seeds(self):
        def run():
            trace, _ = make_trace(duration=5.0)
            report = Simulation(fixed_framework(), seed=9).run(trace)
            overall = report.metrics.overall
            return (
                overall.total,
                overall.served,
                overall.latencies.median(),
            )

        assert run() == run()

    def test_easy_puzzles_all_served(self):
        trace, _ = make_trace(duration=5.0)
        report = Simulation(fixed_framework(difficulty=1), seed=2).run(trace)
        assert report.metrics.overall.goodput_fraction == 1.0

    def test_latency_floor_is_network_overhead(self):
        trace, _ = make_trace(duration=5.0)
        framework = fixed_framework(difficulty=0)
        report = Simulation(framework, seed=3).run(trace)
        floor = framework.config.timing.network_overhead
        assert report.metrics.overall.latencies.min() >= floor * 0.9

    def test_pow_disabled_serves_everything_fast(self):
        trace, _ = make_trace(duration=5.0)
        report = Simulation(
            fixed_framework(difficulty=20), seed=4, pow_enabled=False
        ).run(trace)
        overall = report.metrics.overall
        assert overall.goodput_fraction == 1.0
        # Without PoW even difficulty-20 config finishes in milliseconds.
        assert overall.latencies.quantile(0.9) < 1.0


class TestDifficultyEffects:
    def test_latency_grows_with_difficulty(self):
        medians = []
        for difficulty in (1, 8, 14):
            trace, _ = make_trace(duration=5.0)
            report = Simulation(
                fixed_framework(difficulty), seed=5
            ).run(trace)
            medians.append(report.metrics.overall.served_latencies.median())
        assert medians[0] < medians[1] < medians[2]

    def test_adaptive_framework_penalises_malicious(self, fitted_dabr):
        trace, _ = make_trace(duration=10.0, benign=10, malicious=10)
        framework = AIPoWFramework(fitted_dabr, policy_2())
        report = Simulation(framework, seed=6).run(trace)
        benign = report.metrics.for_class("benign")
        malicious = report.metrics.for_class("malicious")
        assert malicious.difficulties.mean > benign.difficulties.mean + 1.0
        assert (
            malicious.served_latencies.median()
            > benign.served_latencies.median()
        )


class TestAbandonmentAndDeciders:
    def test_refusing_decider_abandons(self):
        trace, _ = make_trace(duration=5.0)
        report = Simulation(
            fixed_framework(difficulty=6),
            seed=7,
            solve_deciders={"malicious": lambda d: False},
        ).run(trace)
        malicious = report.metrics.for_class("malicious")
        assert malicious.outcomes[ResponseStatus.ABANDONED] == malicious.total
        benign = report.metrics.for_class("benign")
        assert benign.goodput_fraction == 1.0

    def test_impatient_profile_abandons_hard_puzzles(self):
        trace, _ = make_trace(duration=5.0)
        report = Simulation(
            fixed_framework(difficulty=18),
            seed=8,
            patiences={"benign": 0.001, "malicious": 0.001},
        ).run(trace)
        overall = report.metrics.overall
        assert overall.outcomes[ResponseStatus.ABANDONED] > 0

    def test_slow_hash_rate_increases_latency(self):
        def run(rate):
            trace, _ = make_trace(duration=5.0)
            report = Simulation(
                fixed_framework(difficulty=10),
                seed=9,
                hash_rates={"benign": rate, "malicious": rate},
            ).run(trace)
            return report.metrics.overall.served_latencies.median()

        assert run(1_000.0) > run(100_000.0)


class TestServerQueueing:
    def test_flood_without_pow_inflates_benign_latency(self):
        heavy = ServerModel(resource_cost=0.02)

        def run(bots: int) -> float:
            generator = WorkloadGenerator(seed=77)
            flood_profile = ClientProfile(
                name="malicious",
                subnet="110.0.0.0/8",
                intensity_alpha=6.0,
                intensity_beta=2.0,
                request_rate=60.0,
            )
            trace, _ = generator.mixed_trace(
                [(BENIGN_PROFILE, 5), (flood_profile, bots)], duration=5.0
            )
            report = Simulation(
                fixed_framework(0),
                seed=10,
                pow_enabled=False,
                server_model=heavy,
            ).run(trace)
            return report.metrics.for_class("benign").latencies.median()

        assert run(bots=12) > 2 * run(bots=1)

    def test_server_model_validation(self):
        with pytest.raises(ValueError):
            ServerModel(resource_cost=-1.0)


class TestExpiry:
    def test_solutions_past_ttl_expire(self):
        import dataclasses

        from repro.core.config import FrameworkConfig, PowConfig

        config = FrameworkConfig(pow=PowConfig(ttl=0.5))
        framework = AIPoWFramework(
            ConstantModel(0.0), FixedPolicy(16), config
        )
        trace, _ = make_trace(duration=5.0)
        report = Simulation(
            framework,
            seed=11,
            hash_rates={"benign": 2_000.0, "malicious": 2_000.0},
            patiences={"benign": 1e6, "malicious": 1e6},
        ).run(trace)
        overall = report.metrics.overall
        assert overall.outcomes[ResponseStatus.EXPIRED] > 0


class TestReportMetrics:
    def test_goodput_computation(self):
        trace, _ = make_trace(duration=5.0)
        report = Simulation(fixed_framework(1), seed=12).run(trace)
        assert report.metrics.overall.goodput_fraction == pytest.approx(
            report.served / report.requests
        )
        assert report.events_processed > report.requests
