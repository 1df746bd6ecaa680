"""Behavioural tests of the vectorized simulation core.

The decision-stream bit-parity claim is gated by
``tests/replay/test_fastsim_parity.py``; these tests cover the rest of
the model: outcome semantics (abandonment, TTL expiry, PoW-off), the
SoA population/pattern layers, per-address CPU serialisation, the one
cohort loop's handler table, and the engine run against the callback
reference classes (``Simulation`` / ``ClosedLoopSimulation``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import AIPoWFramework
from repro.core.records import ResponseStatus
from repro.net.sim import SessionSpec, patterns
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.fastsim import (
    FastFeedback,
    FastSimulation,
    _OutcomeBuffers,
    sample_attempts_array,
)
from repro.policies.linear import policy_2
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import WorkloadGenerator
from repro.traffic.profiles import BENIGN_PROFILE, MALICIOUS_PROFILE
from tests.oracle import ClosedLoopSimulation, Simulation
from tests.oracle.simulation import fires_to_trace


def make_trace(seed=42, benign=5, malicious=5, duration=5.0):
    generator = WorkloadGenerator(seed=seed)
    return generator.mixed_trace(
        [(BENIGN_PROFILE, benign), (MALICIOUS_PROFILE, malicious)],
        duration=duration,
    )


def fixed_framework(difficulty=4):
    return AIPoWFramework(ConstantModel(0.0), FixedPolicy(difficulty))


def run_closed_loop(engine, framework, sessions, **kwargs):
    """One closed-loop run on the callback reference or the fast engine."""
    if engine == "callback":
        return ClosedLoopSimulation(framework, **kwargs).run(sessions)
    return FastSimulation(framework, **kwargs).run_sessions(sessions)


class TestEngineRebase:
    """FastSimulation is a drop-in for the callback reference classes."""

    def test_fast_run_matches_callback_totals(self):
        trace, _ = make_trace()
        cb = Simulation(fixed_framework(), seed=1).run(trace)
        fast = FastSimulation(fixed_framework(), seed=1).run(trace)
        assert fast.requests == cb.requests
        assert fast.metrics.overall.total == cb.metrics.overall.total
        assert fast.metrics.overall.served == cb.metrics.overall.served
        assert fast.metrics.class_names() == cb.metrics.class_names()
        # Decisions are identical, so difficulty stats match exactly.
        assert fast.metrics.overall.difficulties.mean == pytest.approx(
            cb.metrics.overall.difficulties.mean
        )
        # Latency draws come from different RNG streams: statistically
        # close, not bit-equal.
        assert fast.metrics.overall.latencies.median() == pytest.approx(
            cb.metrics.overall.latencies.median(), rel=0.2
        )

    def test_fast_engine_deterministic_per_seed(self):
        def run():
            trace, _ = make_trace()
            report = FastSimulation(fixed_framework(8), seed=9).run(trace)
            overall = report.metrics.overall
            return (
                overall.total,
                overall.served,
                overall.latencies.median(),
            )

        assert run() == run()

    def test_events_processed_exceeds_requests(self):
        trace, _ = make_trace()
        report = FastSimulation(fixed_framework(), seed=2).run(trace)
        assert report.events_processed > report.requests

    def test_closed_loop_fast_engine_ignores_load_signal(self):
        """The callback closed-loop server has no load signal, so the
        fast engine must not feed a load-adaptive policy either —
        difficulties stay at the inner policy's value on both engines."""
        from repro.policies.adaptive import LoadAdaptivePolicy

        generator = WorkloadGenerator(seed=17)
        clients = generator.population(BENIGN_PROFILE, 15)
        sessions = [
            SessionSpec(client=c, exchanges=4, think_time=0.0)
            for c in clients
        ]
        for engine in ("callback", "fast"):
            framework = AIPoWFramework(
                ConstantModel(0.0),
                LoadAdaptivePolicy(FixedPolicy(2), max_surcharge=8),
            )
            report = run_closed_loop(engine, framework, sessions, seed=3)
            assert report.metrics.overall.difficulties.max == 2, engine

    def test_closed_loop_custom_schema_through_cache_wrapper(self):
        """Array-mode session scoring uses the *scoring* model's schema.

        A transparent cache wrapper declares no schema; falling back to
        the default would vectorize a custom-schema model's features in
        the wrong column order and silently skew every score.
        """
        from repro.reputation.caching import CachedModel
        from repro.reputation.dabr import DAbRModel
        from repro.reputation.dataset import generate_corpus
        from repro.reputation.features import DEFAULT_SCHEMA, FeatureSchema

        reordered = FeatureSchema(tuple(reversed(DEFAULT_SCHEMA.specs)))
        corpus = generate_corpus(size=600, seed=7, schema=reordered)
        train, _ = corpus.split()
        generator = WorkloadGenerator(seed=9, schema=reordered)
        clients = generator.population(BENIGN_PROFILE, 8)
        sessions = [
            SessionSpec(client=c, exchanges=2, think_time=0.1)
            for c in clients
        ]
        means = {}
        for engine in ("callback", "fast"):
            framework = AIPoWFramework(
                CachedModel(DAbRModel(schema=reordered).fit(train), ttl=60.0),
                policy_2(),
            )
            report = run_closed_loop(engine, framework, sessions, seed=3)
            means[engine] = report.metrics.overall.scores.mean
        assert means["fast"] == pytest.approx(means["callback"])

    def test_closed_loop_fast_engine(self):
        generator = WorkloadGenerator(seed=7)
        clients = generator.population(BENIGN_PROFILE, 20)
        sessions = [
            SessionSpec(client=c, exchanges=4, think_time=0.3)
            for c in clients
        ]
        reports = {
            engine: run_closed_loop(
                engine,
                AIPoWFramework(ConstantModel(2.0), policy_2()),
                sessions,
                seed=3,
            )
            for engine in ("callback", "fast")
        }
        cb, fast = reports["callback"], reports["fast"]
        assert fast.sessions == cb.sessions
        assert fast.completed_exchanges == cb.completed_exchanges
        assert fast.metrics.overall.served == cb.metrics.overall.served


class TestOutcomeSemantics:
    def test_refusing_decider_abandons(self):
        trace, _ = make_trace()
        report = FastSimulation(
            fixed_framework(6),
            seed=7,
            solve_deciders={"malicious": lambda d: False},
        ).run(trace)
        malicious = report.metrics.for_class("malicious")
        assert (
            malicious.outcomes[ResponseStatus.ABANDONED] == malicious.total
        )
        assert report.metrics.for_class("benign").goodput_fraction == 1.0

    def test_impatient_clients_abandon(self):
        trace, _ = make_trace()
        report = FastSimulation(
            fixed_framework(18),
            seed=8,
            patiences={"benign": 0.001, "malicious": 0.001},
        ).run(trace)
        assert (
            report.metrics.overall.outcomes[ResponseStatus.ABANDONED] > 0
        )

    def test_pow_disabled_serves_everything(self):
        trace, _ = make_trace()
        report = FastSimulation(
            fixed_framework(20), seed=4, pow_enabled=False
        ).run(trace)
        overall = report.metrics.overall
        assert overall.goodput_fraction == 1.0
        assert overall.latencies.quantile(0.9) < 1.0

    def test_solutions_past_ttl_expire(self):
        from repro.core.config import FrameworkConfig, PowConfig

        config = FrameworkConfig(pow=PowConfig(ttl=0.5))
        framework = AIPoWFramework(
            ConstantModel(0.0), FixedPolicy(16), config
        )
        trace, _ = make_trace()
        report = FastSimulation(
            framework,
            seed=11,
            hash_rates={"benign": 2_000.0, "malicious": 2_000.0},
            patiences={"benign": 1e6, "malicious": 1e6},
        ).run(trace)
        assert report.metrics.overall.outcomes[ResponseStatus.EXPIRED] > 0

    def test_latency_floor_is_network_overhead(self):
        trace, _ = make_trace()
        framework = fixed_framework(0)
        report = FastSimulation(framework, seed=3).run(trace)
        floor = framework.config.timing.network_overhead
        assert report.metrics.overall.latencies.min() >= floor * 0.9

    def test_until_truncates_run(self):
        trace, _ = make_trace(duration=10.0)
        full = FastSimulation(fixed_framework(), seed=5).run(trace)
        half = FastSimulation(fixed_framework(), seed=5).run(
            trace, until=2.0
        )
        assert half.duration == 2.0
        assert half.metrics.overall.total < full.metrics.overall.total


class TestChannels:
    def test_shipped_channels_have_batch_draws(self):
        from repro.net.sim.channel import (
            FixedDelayChannel,
            LognormalChannel,
            UniformJitterChannel,
        )

        rng = np.random.default_rng(0)
        fixed = FixedDelayChannel(0.01).delay_array(rng, 5)
        assert (fixed == 0.01).all()
        jitter = UniformJitterChannel(0.005, 0.002).delay_array(rng, 10_000)
        assert jitter.min() >= 0.005 and jitter.max() <= 0.007
        heavy = LognormalChannel(median=0.0075).delay_array(rng, 50_000)
        assert np.median(heavy) == pytest.approx(0.0075, rel=0.05)

    def test_fast_engine_uses_batch_channel_draws(self):
        """A random channel must not fall back to per-event Python."""
        from repro.net.sim.channel import UniformJitterChannel

        class NoScalarDraws(UniformJitterChannel):
            def one_way_delay(self, rng):
                raise AssertionError(
                    "scalar draw on the vectorized hot path"
                )

        trace, _ = make_trace(duration=2.0)
        report = FastSimulation(
            fixed_framework(4), channel=NoScalarDraws(), seed=6
        ).run(trace)
        assert report.metrics.overall.total == report.requests

    def test_quantization_is_applied_once(self):
        """No event may run more than one tick after its true time.

        Regression for double quantization: grouping used to
        pre-quantize times and the calendar queue re-quantized the
        result; since ``ceil(g / tick)`` trips floating point past
        ``g / tick`` for many on-grid values ``g``, those events were
        bumped a *second* tick.  Pushing such values through
        ``_push_grouped`` must land them within one tick.
        """
        import math

        tick = 0.005
        # On-grid values whose FP division trips into the next bucket.
        tripping = [
            k * tick
            for k in range(1, 2000)
            if math.ceil((k * tick) / tick) > k
        ]
        assert tripping, "expected FP-tripping grid values for this tick"
        sim = FastSimulation(fixed_framework(0), seed=1, tick=tick)
        sim._reset()
        times = np.array(tripping)
        sim._push_grouped(times, "arrive", (np.arange(times.size),))
        popped: dict[int, float] = {}
        while sim._queue:
            when, segments = sim._queue.pop_cohort()
            for _, (idx,) in segments:
                for i in idx.tolist():
                    popped[i] = when
        for i, true_time in enumerate(times.tolist()):
            late = popped[i] - true_time
            assert -1e-12 <= late <= tick + 1e-12, (
                f"event at {true_time} ran {late:.6f}s late (> one tick)"
            )


class TestAdmissionRouting:
    def test_stateful_model_rejected_anywhere_in_wrapper_chain(self):
        """Feedback models learn from outcomes the engine never feeds
        back into scoring — frozen offsets must fail loudly, even when
        the stateful scorer hides inside a transparent cache wrapper,
        and the error names what does model feedback at scale."""
        from repro.reputation.caching import CachedModel
        from repro.reputation.feedback import FeedbackReputationModel

        model = CachedModel(
            FeedbackReputationModel(ConstantModel(2.0)), ttl=60.0
        )
        framework = AIPoWFramework(model, FixedPolicy(4))
        trace, _ = make_trace(duration=1.0)
        with pytest.raises(ValueError, match="response outcomes") as info:
            FastSimulation(framework).run(trace)
        message = str(info.value)
        assert "ScaleSpec.feedback" in message and "FastFeedback" in message
        assert "7(b)" in message and "callback" not in message
        with pytest.raises(ValueError, match="response outcomes"):
            FastSimulation(
                AIPoWFramework(
                    FeedbackReputationModel(ConstantModel(2.0)),
                    FixedPolicy(4),
                ),
            ).run(trace)

    def test_run_fires_recorder_registers_sources(self):
        """Fire-schedule recordings carry real profiles/ground truth."""
        from repro.replay import TraceRecorder

        population = AgentPopulation.make(
            [(BENIGN_PROFILE, 3), (MALICIOUS_PROFILE, 2)], seed=4
        )
        framework = fixed_framework(2)
        recorder = TraceRecorder()
        simulation = FastSimulation(framework, recorder=recorder)
        simulation.run_fires(
            population, np.zeros(5), np.arange(5)
        )
        entries = recorder.trace().entries
        assert len(entries) == 5
        assert {e.profile for e in entries} == {"benign", "malicious"}
        assert any(e.true_score > 0 for e in entries)

    def test_feedback_requires_array_admission(self):
        """FastFeedback offsets never reach framework-mode decisions."""
        from repro.net.sim.fastsim import FastFeedback
        from repro.replay import TraceRecorder

        population = AgentPopulation.make([(BENIGN_PROFILE, 5)], seed=1)
        framework = fixed_framework()
        simulation = FastSimulation(framework)
        TraceRecorder().attach(framework.events)  # forces framework mode
        with pytest.raises(ValueError, match="array admission"):
            simulation.run_fires(
                population,
                np.zeros(5),
                np.arange(5),
                feedback=FastFeedback(5),
            )

    def test_fifo_is_bit_identical_to_scalar_recurrence(self):
        """Completion times match the callback recurrence bitwise.

        They feed the load signal and the TTL-expiry comparison, where
        a single ULP of float drift can flip a decision.
        """
        rng = np.random.default_rng(7)
        simulation = FastSimulation(fixed_framework(), seed=1)
        simulation._reset()
        simulation._busy_until = 0.0137
        at = 0.52
        costs = rng.uniform(1e-5, 3e-3, 257)
        dones = simulation._fifo(at, costs, costs.size)

        busy = 0.0137
        reference = []
        for cost in costs.tolist():
            start = max(at, busy)
            busy = start + cost
            reference.append(busy)
        assert dones.tolist() == reference


class TestSettledOutcomes:
    """A ``RESPONSE_SERVED`` subscriber sees every terminal outcome."""

    @staticmethod
    def _bus_and_report_agree(bus, report):
        assert bus.overall.total == report.metrics.overall.total > 0
        assert bus.overall.outcomes == report.metrics.overall.outcomes
        assert sorted(bus.overall.latencies.values) == sorted(
            report.metrics.overall.latencies.values
        )
        assert bus.overall.attempts.mean == pytest.approx(
            report.metrics.overall.attempts.mean
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"pow_enabled": False},
            {"solve_deciders": {"malicious": lambda d: False}},
            {"patiences": {"benign": 0.01}},
        ],
        ids=["solving", "pow-off", "refusing", "impatient"],
    )
    def test_open_loop_settles_every_outcome(self, kwargs):
        from repro.metrics.collector import MetricsCollector

        framework = fixed_framework(difficulty=8)
        bus = MetricsCollector().attach(framework.events)
        trace, _ = make_trace(duration=2.0)
        report = FastSimulation(framework, seed=3, **kwargs).run(trace)
        self._bus_and_report_agree(bus, report)

    def test_horizon_drops_the_same_outcomes_from_both(self):
        from repro.metrics.collector import MetricsCollector

        framework = fixed_framework(difficulty=12)
        bus = MetricsCollector().attach(framework.events)
        trace, _ = make_trace(duration=2.0)
        report = FastSimulation(framework, seed=3).run(trace, until=1.0)
        assert report.metrics.overall.total < report.requests
        self._bus_and_report_agree(bus, report)

    def test_sessions_settle_every_exchange(self):
        from repro.metrics.collector import MetricsCollector

        framework = fixed_framework()
        bus = MetricsCollector().attach(framework.events)
        clients = WorkloadGenerator(seed=5).population(BENIGN_PROFILE, 6)
        sessions = [SessionSpec(client=c, exchanges=3) for c in clients]
        report = FastSimulation(framework, seed=2).run_sessions(sessions)
        assert bus.overall.total == report.completed_exchanges == 18
        assert bus.overall.outcomes == report.metrics.overall.outcomes

    def test_nothing_settles_without_a_subscriber(self):
        """No listener: array admission, and the framework is never told."""
        framework = fixed_framework()

        def refuse(*args, **kwargs):
            raise AssertionError("settled with nobody listening")

        framework.settle = framework.deny = refuse
        trace, _ = make_trace(duration=1.0)
        simulation = FastSimulation(framework, seed=3)
        report = simulation.run(trace)
        assert report.metrics.overall.total > 0
        assert simulation._open.challenges is None


class TestOneLoop:
    """Every run shape drains through ``step`` and its handler table."""

    def _primed(self, requests=50):
        population = AgentPopulation.make([(BENIGN_PROFILE, requests)], seed=1)
        sim = FastSimulation(fixed_framework(2), seed=2)
        sim.start_fires(
            population, np.linspace(0.0, 1.0, requests), np.arange(requests)
        )
        return sim

    def test_unknown_event_kind_raises_naming_it(self):
        """An unknown kind used to be served as a solution cohort."""
        sim = self._primed()
        two = np.arange(2)
        solution_shaped = (two, np.zeros(2), np.ones(2), np.ones(2), np.zeros(2))
        sim._queue.push(0.5, ("bogus", solution_shaped))
        with pytest.raises(ValueError, match="'bogus'"):
            sim.step(None)

    def test_closed_loop_kinds_do_not_outlive_their_run(self):
        client = WorkloadGenerator(seed=7).population(BENIGN_PROFILE, 1)[0]
        sim = self._primed()
        sim.run_sessions([SessionSpec(client=client, exchanges=1)])
        population = AgentPopulation.make([(BENIGN_PROFILE, 5)], seed=1)
        sim.start_fires(population, np.zeros(5), np.arange(5))
        sim._queue.push(0.5, ("cl_arrive", (np.arange(2),)))
        with pytest.raises(ValueError, match="'cl_arrive'"):
            sim.step(None)

    def test_finished_engine_is_freed_without_the_cycle_collector(self):
        """A run's arrays must not outlive the engine until a gc pass.

        Repeated campaigns in one process (perfbench, sweeps) otherwise
        stack finished runs' buffers into peak RSS.
        """
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            sim = self._primed()
            sim.step(None)
            sim.finish()
            client = WorkloadGenerator(seed=7).population(BENIGN_PROFILE, 1)[0]
            framework = fixed_framework(2)
            framework.events.subscribe(lambda event: None)  # framework admission
            closed = FastSimulation(framework, seed=2)
            closed.run_sessions([SessionSpec(client=client, exchanges=2)])
            refs = [weakref.ref(sim), weakref.ref(closed)]
            del sim, closed
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_stepped_run_equals_run_fires(self, monkeypatch):
        """start_fires + step(bounds) + finish == run_fires, bit for bit.

        On a linked, feedback-carrying schedule, so every event kind
        crosses a window boundary.
        """
        from repro.net.sim.links import BandwidthTrace, LinkProfile, LinkSet
        from repro.net.sim import ServerModel

        population = AgentPopulation.make(
            [(BENIGN_PROFILE, 300), (MALICIOUS_PROFILE, 100)], seed=11
        )
        rng = np.random.default_rng(3)
        fire_agents = rng.integers(0, len(population), 1500)
        fire_times = np.sort(rng.uniform(0.0, 3.0, 1500))
        uplink = LinkProfile(
            rtt_median=0.02,
            rtt_sigma=0.35,
            loss_rate=0.05,
            bandwidth=BandwidthTrace.constant(300.0),
            queue_seconds=0.1,
            max_retries=2,
            backoff=0.1,
        )

        folded = []
        fill = _OutcomeBuffers.fill

        def kept_fill(buffers, collector):
            # The report's fill empties the buffers: keep what it folds.
            folded.append({
                key: [[col.tolist() for col in chunk] for chunk in chunks]
                for key, chunks in buffers._chunks.items()
            })
            return fill(buffers, collector)

        monkeypatch.setattr(_OutcomeBuffers, "fill", kept_fill)

        def outcome(drive):
            sim = FastSimulation(
                AIPoWFramework(ConstantModel(4.0), policy_2()),
                server_model=ServerModel(1e-4, 5e-5, 5e-4),
                seed=5,
                tick=0.01,
                links=LinkSet({"benign": uplink, "malicious": uplink}, seed=3),
                decision_log=True,
            )
            feedback = FastFeedback(len(population))
            report = drive(sim, feedback)
            return (
                folded.pop(),
                report.events_processed,
                report.link_stats.as_dict(),
                sim.decisions,
                feedback.offset,
            )

        def stepped(sim, feedback):
            sim.start_fires(
                population, fire_times, fire_agents, feedback=feedback
            )
            for bound in (0.25, 0.5, 1.1, 2.0):
                assert sim.step(bound) is True
            assert sim.step(None) is False
            return sim.finish()

        rows, events, links, decisions, offsets = outcome(
            lambda sim, feedback: sim.run_fires(
                population, fire_times, fire_agents, feedback=feedback
            )
        )
        s_rows, s_events, s_links, s_decisions, s_offsets = outcome(stepped)
        assert rows and links["retries"] > 0 and offsets.any()
        assert rows == s_rows
        assert (events, links) == (s_events, s_links)
        assert offsets.tolist() == s_offsets.tolist()
        assert len(decisions) == len(s_decisions)
        for whole, sliced in zip(decisions, s_decisions):
            assert whole[0] == sliced[0]
            for a, b in zip(whole[1:], sliced[1:]):
                assert a.tolist() == b.tolist()


class TestCpuSerialisation:
    def test_same_address_requests_serialise(self):
        """Two same-instant fires from one agent solve back to back."""
        population = AgentPopulation.make([(BENIGN_PROFILE, 1)], seed=1)
        framework = fixed_framework(14)
        sim = FastSimulation(
            framework, seed=2, hash_rates={"benign": 2_000.0}
        )
        times = np.array([0.0, 0.0])
        agents = np.array([0, 0])
        report = sim.run_fires(population, times, agents)
        overall = report.metrics.overall
        assert overall.total == 2
        latencies = sorted(overall.latencies.values)
        # The second exchange waits for the first grind to finish, so
        # its latency includes (at least) one extra solve.
        assert latencies[1] >= latencies[0] * 1.5


class TestAgentPopulation:
    def test_minting_shapes_and_ranges(self):
        population = AgentPopulation.make(
            [(BENIGN_PROFILE, 500), (MALICIOUS_PROFILE, 300)], seed=5
        )
        assert len(population) == 800
        assert population.features.shape == (800, len(population.schema))
        assert population.profile_names == ("benign", "malicious")
        assert population.intensity.min() >= 0.0
        assert population.intensity.max() <= 1.0
        assert (population.true_scores == 10.0 * population.intensity).all()
        rates = np.array(
            [p.request_rate for p in population.profiles]
        )[population.profile_id]
        assert rates[:500].max() == BENIGN_PROFILE.request_rate
        assert rates[500:].min() == MALICIOUS_PROFILE.request_rate

    def test_addresses_unique_and_in_subnet(self):
        population = AgentPopulation.make([(BENIGN_PROFILE, 1000)], seed=6)
        ips = population.ip_strings()
        assert len(set(ips)) == 1000
        assert all(ip.startswith("23.") for ip in ips)

    def test_mint_is_deterministic(self):
        a = AgentPopulation.make([(BENIGN_PROFILE, 100)], seed=9)
        b = AgentPopulation.make([(BENIGN_PROFILE, 100)], seed=9)
        assert (a.features == b.features).all()
        assert (a.ip_index == b.ip_index).all()

    def test_scores_match_object_world(self):
        """Matrix scoring equals per-request scoring on the same rows."""
        population = AgentPopulation.make([(BENIGN_PROFILE, 50)], seed=7)
        model = ConstantModel(3.0)
        scores = population.score_with(model)
        assert scores.shape == (50,)
        assert (scores == 3.0).all()

    def test_score_with_rejects_schema_mismatch(self):
        """Positional feature rows + wrong column order = silent garbage."""
        from repro.reputation.dabr import DAbRModel
        from repro.reputation.dataset import generate_corpus
        from repro.reputation.features import DEFAULT_SCHEMA, FeatureSchema

        reordered = FeatureSchema(tuple(reversed(DEFAULT_SCHEMA.specs)))
        corpus = generate_corpus(size=400, seed=7, schema=reordered)
        model = DAbRModel(schema=reordered).fit(corpus.split()[0])
        population = AgentPopulation.make([(BENIGN_PROFILE, 10)], seed=2)
        with pytest.raises(ValueError, match="schema"):
            population.score_with(model)

    def test_to_trace_round_trip(self):
        population = AgentPopulation.make([(BENIGN_PROFILE, 10)], seed=8)
        times = np.linspace(0.0, 1.0, 10)
        trace = fires_to_trace(population, times, np.arange(10))
        assert len(trace) == 10
        assert {e.profile for e in trace} == {"benign"}
        schema_names = set(population.schema.names)
        assert set(trace[0].request.features) == schema_names


class TestPatterns:
    def test_flash_waves_fire_every_agent_per_wave(self):
        rng = np.random.default_rng(1)
        times, agents = patterns.flash_waves(
            np.arange(100), rng, waves=3, wave_gap=1.0, jitter=0.0
        )
        assert times.size == 300
        assert np.bincount(agents).tolist() == [3] * 100
        assert sorted(set(times.tolist())) == [0.0, 1.0, 2.0]

    def test_poisson_fires_rate(self):
        rng = np.random.default_rng(2)
        times, agents = patterns.poisson_fires(
            np.arange(10_000), 2.0, 5.0, rng
        )
        assert times.size == pytest.approx(100_000, rel=0.05)
        assert times.min() >= 0.0 and times.max() <= 5.0
        assert (np.diff(times) >= 0).all()

    def test_ramp_fires_back_loaded(self):
        rng = np.random.default_rng(3)
        times, _ = patterns.ramp_fires(np.arange(5_000), 2.0, 4.0, rng)
        first_half = np.sum(times < 2.0)
        second_half = np.sum(times >= 2.0)
        assert second_half > 2 * first_half

    def test_diurnal_fires_trough(self):
        rng = np.random.default_rng(4)
        times, _ = patterns.diurnal_fires(
            np.arange(20_000), 1.0, 8.0, rng, trough=0.1
        )
        edges = np.histogram(times, bins=8, range=(0.0, 8.0))[0]
        assert edges.max() > 3 * edges.min()

    def test_pulse_fires_respect_off_windows(self):
        rng = np.random.default_rng(5)
        times, _ = patterns.pulse_fires(
            np.arange(2_000),
            5.0,
            4.0,
            rng,
            on_seconds=1.0,
            off_seconds=1.0,
        )
        in_off_windows = np.sum(
            ((times >= 1.0) & (times < 2.0)) | ((times >= 3.0) & (times < 4.0))
        )
        assert in_off_windows == 0

    def test_merge_schedules_sorted(self):
        rng = np.random.default_rng(6)
        a = patterns.poisson_fires(np.arange(50), 1.0, 2.0, rng)
        b = patterns.flash_waves(np.arange(50, 100), rng, waves=1)
        times, agents = patterns.merge_schedules(a, b)
        assert (np.diff(times) >= 0).all()
        assert times.size == a[0].size + b[0].size


class TestSampling:
    def test_difficulty_zero_always_one_attempt(self):
        rng = np.random.default_rng(0)
        attempts = sample_attempts_array(np.zeros(1000), rng)
        assert (attempts == 1).all()

    def test_geometric_mean_scales_with_difficulty(self):
        rng = np.random.default_rng(1)
        for difficulty in (4, 8):
            attempts = sample_attempts_array(
                np.full(200_000, difficulty), rng
            )
            assert attempts.mean() == pytest.approx(
                2.0**difficulty, rel=0.05
            )
            assert attempts.min() >= 1


class TestFastFeedback:
    def test_served_exchanges_earn_reward_offsets(self):
        feedback = FastFeedback(4)
        feedback.observe_served(np.array([0, 0, 1]), now=1.0)
        assert feedback.offset[0] == pytest.approx(-0.2)
        assert feedback.offset[1] == pytest.approx(-0.1)
        assert feedback.offset[2] == 0.0

    def test_offsets_clamp_at_max_reward(self):
        feedback = FastFeedback(1)
        feedback.observe_served(np.zeros(1000, dtype=np.int64), now=1.0)
        assert feedback.offset[0] == pytest.approx(
            -feedback.config.max_reward
        )

    def test_offsets_decay_with_half_life(self):
        feedback = FastFeedback(1)
        feedback.observe_served(np.array([0]), now=0.0)
        initial = feedback.offset[0]
        decayed = feedback.offsets_for(
            np.array([0]), now=feedback.config.half_life
        )[0]
        assert decayed == pytest.approx(initial / 2.0)

    def test_feedback_lowers_difficulty_for_farmers(self):
        """Reward farming measurably reduces a bot's difficulty."""
        population = AgentPopulation.make([(MALICIOUS_PROFILE, 50)], seed=3)
        rng = np.random.default_rng(4)
        times, agents = patterns.poisson_fires(
            np.arange(50), 10.0, 4.0, rng
        )
        framework = AIPoWFramework(ConstantModel(6.0), policy_2())
        feedback = FastFeedback(len(population))
        sim = FastSimulation(framework, seed=5, tick=0.01)
        report = sim.run_fires(
            population, times, agents, feedback=feedback
        )
        overall = report.metrics.overall
        assert (feedback.offset < 0).all()
        # Base score 6 -> difficulty 11 under policy-2; farmed offsets
        # must have dragged the mean strictly below that.
        assert overall.difficulties.mean < 11.0
        assert overall.difficulties.min < 11


class TestBulkMetrics:
    def test_sampleset_extend_array_matches_add(self):
        from repro.metrics.histogram import SampleSet

        values = np.random.default_rng(0).random(1000)
        one = SampleSet()
        for v in values:
            one.add(float(v))
        other = SampleSet()
        other.extend_array(values)
        assert one.values == other.values
        assert one.median() == other.median()

    def test_sampleset_extend_array_rejects_non_finite(self):
        from repro.metrics.histogram import SampleSet

        with pytest.raises(ValueError):
            SampleSet().extend_array(np.array([1.0, np.nan]))

    def test_streaming_add_array_matches_scalar_adds(self):
        from repro.metrics.stats import StreamingStats

        values = np.random.default_rng(1).normal(5.0, 2.0, 10_000)
        scalar = StreamingStats()
        for v in values:
            scalar.add(float(v))
        bulk = StreamingStats().add_array(values)
        assert bulk.count == scalar.count
        assert bulk.mean == pytest.approx(scalar.mean)
        assert bulk.variance == pytest.approx(scalar.variance)
        assert bulk.min == scalar.min
        assert bulk.max == scalar.max

    def test_streaming_add_array_merges_into_existing(self):
        from repro.metrics.stats import StreamingStats

        stats = StreamingStats()
        stats.add(1.0)
        stats.add_array(np.array([2.0, 3.0]))
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)
