"""Callback reference engine for closed-loop sessions (the test oracle).

The trace-driven :class:`~tests.oracle.simulation.Simulation` is
*open-loop*: requests arrive on a fixed schedule regardless of how the
server responds.  Real users are closed-loop — they wait for a page,
think, then click again — which changes the dynamics fundamentally:
PoW-induced latency *reduces a closed-loop client's own offered load*,
an effect the open-loop model cannot show.

:class:`ClosedLoopSimulation` drives sessions instead of traces: each
client repeatedly (request → solve → response → think) for a fixed
number of exchanges.  It reuses the same framework, channel, solve-time
and server-queue models as the open-loop simulation, so results are
directly comparable.

Like the open-loop simulation, requests reaching the server at the same
simulated instant (e.g. many sessions starting together) are admitted
through :meth:`AIPoWFramework.challenge_batch` in one batch, with each
puzzle stamped at its own FIFO-derived issue time.  Scoring and delay
draws happen at the arrival instant (not each request's issue time) —
the same deliberate approximation documented in
:mod:`tests.oracle.simulation`.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.core.framework import AIPoWFramework, Challenge
from repro.core.records import ResponseStatus, ServedResponse
from repro.metrics.collector import MetricsCollector
from repro.net.sim import ClosedLoopReport, ServerModel, SessionSpec
from repro.net.sim.channel import Channel, FixedDelayChannel
from tests.oracle.engine import EventEngine
from tests.oracle.simulation import link_of
from tests.oracle.solvetime import SolveTimeModel

__all__ = ["ClosedLoopSimulation"]


class ClosedLoopSimulation:
    """Session-driven simulation sharing the open-loop server model.

    The *reference* engine for closed-loop runs; the shipped spelling
    of the same model is :meth:`FastSimulation.run_sessions
    <repro.net.sim.fastsim.FastSimulation.run_sessions>`.
    """

    def __init__(
        self,
        framework: AIPoWFramework,
        channel: Channel | None = None,
        server_model: ServerModel | None = None,
        seed: int = 4321,
        hash_rates: Mapping[str, float] | None = None,
        recorder=None,
        links=None,
    ) -> None:
        if links is not None and not links.delay_only:
            # Closed-loop exchanges have no request identity to key
            # loss hashes on and no give-up semantics; only the
            # propagation-delay part of a link is defined here.
            raise ValueError(
                "closed-loop runs support delay-only link profiles; "
                "lossy or bandwidth-capped links need the open-loop "
                "simulations"
            )
        self.framework = framework
        self.recorder = recorder
        self.links = links
        if recorder is not None:
            recorder.attach(framework.events)
        timing = framework.config.timing
        self.channel = channel or FixedDelayChannel(timing.network_overhead / 4)
        self.server_model = server_model or ServerModel()
        self.solve_time = SolveTimeModel(timing)
        self.engine = EventEngine()
        self.rng = random.Random(seed)
        self.hash_rates = dict(hash_rates or {})
        self.metrics = MetricsCollector(classifier=self._classify)
        self._profiles: dict[str, str] = {}
        self._server_busy_until = 0.0
        self._completed = 0
        self._admission_batch: list[tuple] = []
        #: Number of same-timestep admission batches drained so far.
        self.admission_batches = 0
        #: Size of the largest same-timestep admission batch seen.
        self.largest_admission_batch = 0

    def _classify(self, response: ServedResponse) -> str:
        return self._profiles.get(
            response.decision.request.client_ip, "unknown"
        )

    def _delay(self) -> float:
        # Channel contract backstop: a negative delay would schedule
        # an event before its cause.
        return max(0.0, self.channel.one_way_delay(self.rng))

    def _base_of(self, session: SessionSpec) -> float:
        """The session's per-agent link propagation delay (0 = no link)."""
        if self.links is None:
            return 0.0
        client = session.client
        return link_of(self.links, client.profile.name, client.ip)[1]

    def _server_complete(self, arrival: float, cost: float) -> float:
        start = max(arrival, self._server_busy_until)
        self._server_busy_until = start + cost
        return self._server_busy_until

    # ------------------------------------------------------------------
    def add_session(self, session: SessionSpec) -> None:
        """Register a session; its first request fires at ``session.start``."""
        self._profiles[session.client.ip] = session.client.profile.name
        if self.recorder is not None:
            self.recorder.register_source(
                session.client.ip,
                session.client.profile.name,
                session.client.true_score,
            )
        self.engine.schedule_at(
            session.start,
            lambda: self._begin_exchange(session, remaining=session.exchanges),
        )

    def _begin_exchange(self, session: SessionSpec, remaining: int) -> None:
        if remaining <= 0:
            return
        from repro.core.records import ClientRequest

        now = self.engine.now
        request = ClientRequest(
            client_ip=session.client.ip,
            resource="/session",
            timestamp=now,
            features=session.client.features,
        )
        arrive = now + self._delay() + self._base_of(session)
        self.engine.schedule_at(
            arrive,
            lambda: self._serve(session, request, remaining),
        )

    def _serve(self, session: SessionSpec, request, remaining: int) -> None:
        # Coalesce same-instant server arrivals into one admission
        # batch; the drain runs at the same timestamp after all of them
        # (FIFO among equal timestamps), mirroring the open-loop
        # simulation's batching.
        now = self.engine.now
        issue_at = self._server_complete(now, self.server_model.challenge_cost)
        self._admission_batch.append((session, request, remaining, issue_at))
        if len(self._admission_batch) == 1:
            self.engine.schedule_at(now, self._drain_admissions)

    def _drain_admissions(self) -> None:
        """Issue challenges for all same-timestep arrivals in one batch."""
        batch, self._admission_batch = self._admission_batch, []
        self.admission_batches += 1
        self.largest_admission_batch = max(
            self.largest_admission_batch, len(batch)
        )
        challenges = self.framework.challenge_batch(
            [request for _, request, _, _ in batch],
            now=[issue_at for _, _, _, issue_at in batch],
        )
        for (session, _request, remaining, issue_at), challenge in zip(
            batch, challenges
        ):
            self.engine.schedule_at(
                issue_at + self._delay() + self._base_of(session),
                lambda s=session, c=challenge, r=remaining: self._solve(
                    s, c, r
                ),
            )

    def _solve(
        self, session: SessionSpec, challenge: Challenge, remaining: int
    ) -> None:
        now = self.engine.now
        profile = session.client.profile
        rate = self.hash_rates.get(profile.name, profile.hash_rate)
        sample = self.solve_time.sample(
            challenge.decision.difficulty, self.rng, rate
        )
        if sample.seconds > profile.patience:
            finish_at = now + profile.patience
            self.engine.schedule_at(
                finish_at,
                lambda: self._finish(
                    session, challenge, ResponseStatus.ABANDONED,
                    remaining, sample.attempts,
                ),
            )
            return
        submit_at = now + sample.seconds + self._delay() + self._base_of(session)
        self.engine.schedule_at(
            submit_at,
            lambda: self._redeem(session, challenge, remaining, sample.attempts),
        )

    def _redeem(
        self,
        session: SessionSpec,
        challenge: Challenge,
        remaining: int,
        attempts: int,
    ) -> None:
        now = self.engine.now
        cost = self.server_model.verify_cost + self.server_model.resource_cost
        done = self._server_complete(now, cost)
        self.engine.schedule_at(
            done + self._delay() + self._base_of(session),
            lambda: self._finish(
                session, challenge, ResponseStatus.SERVED, remaining, attempts
            ),
        )

    def _finish(
        self,
        session: SessionSpec,
        challenge: Challenge,
        status: ResponseStatus,
        remaining: int,
        attempts: int,
    ) -> None:
        now = self.engine.now
        response = ServedResponse(
            decision=challenge.decision,
            status=status,
            latency=max(0.0, now - challenge.decision.request.timestamp),
            solve_attempts=attempts,
        )
        self.metrics.observe(response)
        self.framework.settle(response, now)
        self._completed += 1
        if remaining - 1 > 0:
            think = (
                self.rng.expovariate(1.0 / session.think_time)
                if session.think_time > 0
                else 0.0
            )
            self.engine.schedule_at(
                now + think,
                lambda: self._begin_exchange(session, remaining - 1),
            )

    # ------------------------------------------------------------------
    def run(
        self, sessions: Sequence[SessionSpec], until: float | None = None
    ) -> ClosedLoopReport:
        """Drive ``sessions`` to completion (or ``until``)."""
        if not sessions:
            raise ValueError("need at least one session")
        for session in sessions:
            self.add_session(session)
        self.engine.run(until=until)
        return ClosedLoopReport(
            metrics=self.metrics,
            duration=self.engine.now,
            sessions=len(sessions),
            completed_exchanges=self._completed,
        )
