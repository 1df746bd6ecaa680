"""Link-substrate decision parity: fast engine vs callback reference.

The lossy-link acceptance gate.  Loss draws and per-agent RTTs are
counter-based hashes and retry schedules are exact float arithmetic,
so the *set and order of requests reaching admission* is engine-
independent — the decision streams must diff bit-identical.  What is
(and is not) bit-comparable:

* **Decisions** — bit-identical whenever request-leg network outcomes
  decide who gets admitted: always for loss/RTT-only links, and for
  bandwidth-capped links whenever server-side timing is deterministic
  (refusing deciders).
* **LinkStats** — bit-equal only under deterministic timing; with
  solving traffic the *solution*-leg crossings depend on solve-time
  RNG streams, which the engines draw differently (DESIGN.md §1.6).
"""

from __future__ import annotations

import pytest

from repro.attacks import make_attacker
from repro.core.framework import AIPoWFramework
from repro.core.records import ResponseStatus
from repro.net.sim.closedloop import ClosedLoopSimulation, SessionSpec
from repro.net.sim.fastsim import FastSimulation
from repro.net.sim.links import BandwidthTrace, LinkProfile, LinkSet
from repro.net.sim.simulation import ServerModel, Simulation
from repro.policies.linear import policy_2
from repro.policies.table import FixedPolicy
from repro.replay import TraceRecorder, diff_decisions
from repro.replay.campaign import _PROFILES
from repro.reputation.ensemble import ConstantModel
from repro.traffic.generator import WorkloadGenerator

#: Exercises every link mechanism at once: loss, per-agent RTT spread,
#: a tight shared bandwidth cap with a shallow queue, and retries.
LOSSY_CAPPED = LinkProfile(
    rtt_median=0.02,
    rtt_sigma=0.35,
    loss_rate=0.05,
    bandwidth=BandwidthTrace.constant(50.0),
    queue_seconds=0.1,
    max_retries=2,
    backoff=0.1,
)


#: The engine under test is chosen by class: the callback reference
#: or the vectorized engine, whose constructor mirrors it.
ENGINES = {"callback": Simulation, "fast": FastSimulation}


def _framework(config=None):
    return AIPoWFramework(ConstantModel(2.0), policy_2(), config)


def _run_sessions(engine, sessions, **kwargs):
    if engine == "callback":
        return ClosedLoopSimulation(_framework(), **kwargs).run(sessions)
    return FastSimulation(_framework(), **kwargs).run_sessions(sessions)


def _run(engine, links, *, deciders=None, framework=None, seed=9):
    generator = WorkloadGenerator(seed=17)
    workload, clients = generator.mixed_trace(
        [(_PROFILES["benign"], 40), (_PROFILES["malicious"], 40)],
        duration=3.0,
    )
    recorder = TraceRecorder(
        sources={c.ip: (c.profile.name, c.true_score) for c in clients}
    )
    simulation = ENGINES[engine](
        framework or _framework(),
        server_model=ServerModel(challenge_cost=0.002),
        seed=seed,
        solve_deciders=deciders or {},
        recorder=recorder,
        links=links,
    )
    report = simulation.run(workload)
    return recorder.trace().decisions(), report


class TestOpenLoopParity:
    def test_capped_lossy_links_deterministic_timing_full_parity(self):
        """Refusing deciders: decisions AND LinkStats bit-equal.

        With no solutions in flight the whole run is a pure function
        of the workload and the hashed network draws, so even the
        bandwidth queue's drop pattern must match exactly.
        """
        refuse = {
            "benign": lambda d: False,
            "malicious": lambda d: False,
        }
        links = LinkSet(
            {"benign": LOSSY_CAPPED, "malicious": LOSSY_CAPPED}, seed=5
        )
        callback, cb_report = _run("callback", links, deciders=refuse)
        fast, fast_report = _run("fast", links, deciders=refuse)
        assert callback, "workload produced no decisions"
        report = diff_decisions(callback, fast)
        assert report.identical, (
            "fastsim diverged under capped lossy links:\n"
            + report.render()
        )
        assert (
            cb_report.link_stats.as_dict()
            == fast_report.link_stats.as_dict()
        )
        # The regime must actually exercise every mechanism.
        stats = fast_report.link_stats
        assert stats.lost > 0
        assert stats.queue_dropped > 0
        assert stats.retries > 0
        assert stats.request_give_ups > 0

    def test_lossy_links_with_solving_traffic_decision_parity(self):
        """Loss/RTT-only links: decisions bit-identical while solving.

        Solve timing differs between engines (different RNG streams),
        but with no bandwidth coupling the request legs — and thus
        admission — depend only on hashes and exact retry arithmetic.
        """
        deciders = {
            "malicious": make_attacker(
                {"kind": "botnet", "max_difficulty": 16}
            ).should_solve
        }
        links = LinkSet(
            {"benign": "lossy-mobile", "malicious": "lossy-mobile"},
            seed=5,
        )
        callback, cb_report = _run("callback", links, deciders=deciders)
        fast, fast_report = _run("fast", links, deciders=deciders)
        assert callback, "workload produced no decisions"
        report = diff_decisions(callback, fast)
        assert report.identical, (
            "fastsim diverged under lossy links:\n" + report.render()
        )
        assert fast_report.link_stats.lost > 0
        # Request-leg outcomes are hash-exact on both engines.
        assert (
            cb_report.link_stats.request_give_ups
            == fast_report.link_stats.request_give_ups
        )

    def test_no_links_matches_linked_run_shape(self):
        """A delay-only link shifts latency but admits everything."""
        links = LinkSet({"benign": "datacenter", "malicious": "datacenter"})
        bare, bare_report = _run("fast", None)
        linked, linked_report = _run("fast", links)
        assert [d.score for d in bare] == [d.score for d in linked]
        assert (
            linked_report.metrics.overall.total
            == bare_report.metrics.overall.total
        )


class TestRetrySemantics:
    @pytest.mark.parametrize("engine", ("callback", "fast"))
    def test_solution_retries_race_the_puzzle_ttl(self, engine):
        """A retried solution lands past a short TTL and expires.

        The retry schedule (backoff 1s) cannot beat ttl=0.5s, so any
        solution whose first transmission is lost comes back EXPIRED —
        the network layer punishes lateness through the protocol, not
        by dropping the redemption.
        """
        from repro.core.config import FrameworkConfig, PowConfig

        framework = AIPoWFramework(
            ConstantModel(0.0),
            FixedPolicy(4),
            FrameworkConfig(pow=PowConfig(ttl=0.5)),
        )
        lossy = LinkProfile(
            rtt_median=0.005,
            loss_rate=0.4,
            max_retries=3,
            backoff=1.0,
        )
        links = LinkSet({"benign": lossy, "malicious": lossy}, seed=2)
        _, report = _run(engine, links, framework=framework)
        assert report.metrics.overall.outcomes[ResponseStatus.EXPIRED] > 0
        assert report.link_stats.retries > 0

    @pytest.mark.parametrize("engine", ("callback", "fast"))
    def test_exhausted_solution_retries_abandon(self, engine):
        """Losing every transmission attempt records ABANDONED."""
        lossy = LinkProfile(
            rtt_median=0.005,
            loss_rate=0.9,
            max_retries=1,
            backoff=0.05,
        )
        links = LinkSet({"benign": lossy, "malicious": lossy}, seed=2)
        _, report = _run(engine, links)
        stats = report.link_stats
        assert stats.solution_give_ups > 0
        assert (
            report.metrics.overall.outcomes[ResponseStatus.ABANDONED]
            >= stats.solution_give_ups
        )


class TestClosedLoopLinks:
    def _sessions(self):
        generator = WorkloadGenerator(seed=7)
        clients = generator.population(_PROFILES["benign"], 12)
        return [
            SessionSpec(client=c, exchanges=3, think_time=0.2)
            for c in clients
        ]

    def test_delay_only_links_supported_on_both_engines(self):
        sessions = self._sessions()
        links = LinkSet({"benign": "datacenter"}, seed=4)
        cb, fast = (
            _run_sessions(engine, sessions, seed=3, links=links)
            for engine in ("callback", "fast")
        )
        assert cb.completed_exchanges == len(sessions) * 3
        assert fast.completed_exchanges == cb.completed_exchanges
        assert fast.metrics.overall.served == cb.metrics.overall.served

    @pytest.mark.parametrize("engine", ("callback", "fast"))
    def test_lossy_links_rejected_loudly(self, engine):
        with pytest.raises(ValueError, match="delay-only"):
            _run_sessions(
                engine,
                self._sessions(),
                links=LinkSet({"benign": "lossy-mobile"}),
            )

    def test_fast_run_sessions_rejects_lossy_links_directly(self):
        simulation = FastSimulation(
            _framework(), links=LinkSet({"benign": "lossy-mobile"})
        )
        with pytest.raises(ValueError, match="delay-only"):
            simulation.run_sessions(self._sessions())
