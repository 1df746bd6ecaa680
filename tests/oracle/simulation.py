"""Callback reference engine for open-loop traces (the test oracle).

:class:`Simulation` replays a :class:`~repro.traffic.trace.Trace`
through an :class:`~repro.core.framework.AIPoWFramework` over a modelled
network — the model :class:`~repro.net.sim.fastsim.FastSimulation`
ships, written one closure per event (DESIGN.md §2):

* **network** — each leg of the request/challenge/solution/response
  exchange crosses a :class:`~repro.net.sim.channel.Channel`;
* **server** — a single FIFO queue with distinct costs for issuing a
  challenge, verifying a solution, and serving the resource (issuing and
  verifying are cheap; serving is the expensive step PoW protects);
* **client CPU** — per-address serialisation: a client grinding one
  puzzle cannot simultaneously grind another, which is exactly how PoW
  throttles flooding sources;
* **solving** — geometric attempt sampling via
  :class:`~tests.oracle.solvetime.SolveTimeModel`.

Clients abandon puzzles exceeding their profile's patience, and
per-profile *solve deciders* let attack models refuse puzzles outright
(a pure flood).  Every terminal outcome is emitted as a
:class:`~repro.core.records.ServedResponse` both to the simulation's
:class:`~repro.metrics.collector.MetricsCollector` and onto the
framework's event bus.

Batched admission: requests that reach the server at the same simulated
instant — bursts from flooding sources, synchronized bots, or simply a
fixed-delay channel collapsing simultaneous arrivals — are drained
through :meth:`AIPoWFramework.challenge_batch` as one batch instead of
walking the framework once per request.  The FIFO queue still charges
``challenge_cost`` per request and each puzzle is stamped with its own
FIFO-derived issue time, so for the (time-invariant) shipped models the
batch produces the same decisions and puzzles the scalar walk would.
Two deliberate approximations: scoring and channel-delay draws happen
at the arrival instant rather than each request's (at most
milliseconds-later) issue time, so a model whose state shifts inside
that window — e.g. live behavioural feedback — may see marginally
staler state, and the simulation RNG is consumed in a different order
than pre-batching versions of this module (still fully deterministic
per seed).
"""

from __future__ import annotations

import ipaddress
import random
from typing import Callable, Mapping

import numpy as np

from repro.core.framework import AIPoWFramework, Challenge
from repro.core.records import ClientRequest, ResponseStatus, ServedResponse
from repro.metrics.collector import MetricsCollector
from repro.net.sim import ServerModel, SimulationReport
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.channel import Channel, FixedDelayChannel
from repro.net.sim.links import LinkSet
from repro.policies.adaptive import LoadAdaptivePolicy
from repro.traffic.trace import Trace, TraceEntry
from tests.oracle.engine import EventEngine
from tests.oracle.solvetime import SolveTimeModel

__all__ = ["Simulation", "fires_to_trace", "link_of"]

#: Decides whether a client solves a puzzle of the given difficulty.
SolveDecider = Callable[[int], bool]


def link_of(links: LinkSet, profile: str, ip: str) -> tuple[int, float]:
    """``(queue_id, base_delay)`` of one client — the scalar engines' lookup.

    Evaluates :meth:`LinkSet.queue_ids` and :meth:`LinkSet.base_delays`
    on one-element arrays, so a callback engine's per-client delay is
    bit-identical to the SoA path's by construction.
    """
    qids = links.queue_ids([profile])
    packed = np.array([int(ipaddress.ip_address(ip))], dtype=np.int64)
    return int(qids[0]), float(links.base_delays(packed, qids)[0])


def fires_to_trace(
    population: AgentPopulation,
    fire_times: np.ndarray,
    fire_agents: np.ndarray,
) -> Trace:
    """A fire schedule as an object-world ``Trace``, one entry per fire.

    Each entry carries the agent's fixed feature mapping, so the
    callback engine (or :meth:`FastSimulation.run
    <repro.net.sim.fastsim.FastSimulation.run>`) runs the identical
    workload that ``run_fires`` runs.
    """
    ips = population.ip_strings()
    names = population.schema.names
    entries = []
    for order, (when, agent) in enumerate(
        zip(fire_times.tolist(), fire_agents.tolist()), start=1
    ):
        entries.append(
            TraceEntry(
                request=ClientRequest(
                    client_ip=ips[agent],
                    resource="/index.html",
                    timestamp=float(when),
                    features=dict(
                        zip(names, population.features[agent].tolist())
                    ),
                    request_id=f"fire-{order}",
                ),
                profile=population.profile_names[
                    population.profile_id[agent]
                ],
                true_score=float(population.true_scores[agent]),
            )
        )
    return Trace(entries)


class Simulation:
    """Replays traces through the framework over a modelled network.

    Parameters
    ----------
    framework:
        The configured server pipeline.  Its
        :attr:`~repro.core.config.FrameworkConfig.timing` provides the
        default hash rate for the solve-time model.
    channel:
        One-way delay model; defaults to the calibrated fixed delay.
    server_model:
        FIFO service costs.
    seed:
        Seed for all randomness this run introduces (delays, solve
        sampling, solve decisions).
    pow_enabled:
        When False, the server skips the whole PoW exchange and serves
        every request directly — the "no defense" baseline of the
        throttling experiment.
    solve_deciders:
        Optional per-profile hooks; returning False makes that client
        drop the puzzle (counted as ABANDONED).
    hash_rates:
        Optional per-profile hash-rate overrides (evaluations/second).
    patiences:
        Optional per-profile patience overrides in seconds (how long a
        client grinds one puzzle before abandoning); default 30 s.
    load_reference:
        Server backlog (seconds of queued work) that counts as load
        1.0 when feeding a :class:`LoadAdaptivePolicy`.
    recorder:
        Optional :class:`~repro.replay.TraceRecorder`, attached to the
        framework's event bus; submitted trace entries register their
        profile and ground-truth score with it, so the recorded v2
        trace carries the same metadata as the input workload.
    links:
        Optional :class:`~repro.net.sim.links.LinkSet` assigning
        per-population access links (per-agent RTT, loss, shared
        bandwidth, retries) on top of the channel.  Both engines drive
        the same link kernels, so decision parity holds under links
        exactly as documented in DESIGN.md §1.6; network-layer
        outcomes land in :attr:`SimulationReport.link_stats`.

    This class is the *reference* engine the tests compare the shipped
    :class:`~repro.net.sim.fastsim.FastSimulation` against: every
    keyword here is one of its keywords too.  Decision streams are
    bit-identical between the two (except load-adaptive policies under
    solving traffic, whose decisions depend on queue timing and so
    inherit the timing stream's seed-sensitivity); timing randomness
    is drawn from a different (numpy) stream there, so latency samples
    agree statistically rather than bit for bit.
    """

    def __init__(
        self,
        framework: AIPoWFramework,
        channel: Channel | None = None,
        server_model: ServerModel | None = None,
        seed: int = 1234,
        pow_enabled: bool = True,
        solve_deciders: Mapping[str, SolveDecider] | None = None,
        hash_rates: Mapping[str, float] | None = None,
        patiences: Mapping[str, float] | None = None,
        load_reference: float = 0.1,
        recorder=None,
        links: LinkSet | None = None,
    ) -> None:
        if load_reference <= 0:
            raise ValueError(
                f"load_reference must be > 0, got {load_reference}"
            )
        self.framework = framework
        timing = framework.config.timing
        self.channel = channel or FixedDelayChannel(timing.network_overhead / 4)
        self.server_model = server_model or ServerModel()
        self.solve_time = SolveTimeModel(timing)
        self.engine = EventEngine()
        self.rng = random.Random(seed)
        self.pow_enabled = pow_enabled
        self.solve_deciders = dict(solve_deciders or {})
        self.hash_rates = dict(hash_rates or {})
        self.patiences = dict(patiences or {})
        self.load_reference = load_reference
        self.recorder = recorder
        self.links = links
        self._links_of: dict[tuple[str, str], tuple[int, float]] = {}
        self._link_session = links.session() if links is not None else None
        self._entry_rids: dict[int, int] = {}
        self._next_rid = 0
        if recorder is not None:
            recorder.attach(framework.events)

        self._server_busy_until = 0.0
        self._cpu_free_at: dict[str, float] = {}
        self._profiles: dict[str, str] = {}
        self.metrics = MetricsCollector(classifier=self._classify)
        self._requests = 0
        self._arrival_batch: list[TraceEntry] = []
        #: Number of same-timestep arrival batches drained so far.
        self.arrival_batches = 0
        #: Size of the largest same-timestep arrival batch seen.
        self.largest_arrival_batch = 0

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------
    def _classify(self, response: ServedResponse) -> str:
        return self._profiles.get(response.decision.request.client_ip, "unknown")

    def _server_complete(self, arrival: float, cost: float) -> float:
        """FIFO server: when work arriving at ``arrival`` finishes.

        Also feeds the backlog-derived load signal to a
        :class:`LoadAdaptivePolicy`, when one is installed.
        """
        backlog = max(0.0, self._server_busy_until - arrival)
        start = max(arrival, self._server_busy_until)
        self._server_busy_until = start + cost
        policy = self.framework.policy
        if isinstance(policy, LoadAdaptivePolicy):
            policy.observe_load(backlog / self.load_reference)
        return self._server_busy_until

    def _delay(self) -> float:
        # Channel contract backstop: a negative delay would schedule
        # an event before its cause.
        return max(0.0, self.channel.one_way_delay(self.rng))

    def _link_of(self, profile: str, ip: str) -> tuple[int, float]:
        """``(queue_id, base_delay)`` of one client (``-1, 0.0`` = no link)."""
        if self.links is None:
            return -1, 0.0
        key = (profile, ip)
        hit = self._links_of.get(key)
        if hit is None:
            hit = self._links_of[key] = link_of(self.links, profile, ip)
        return hit

    def _finish(
        self,
        challenge: Challenge,
        status: ResponseStatus,
        now: float,
        attempts: int = 0,
    ) -> None:
        """Settle a terminal outcome for one request."""
        response = ServedResponse(
            decision=challenge.decision,
            status=status,
            latency=max(0.0, now - challenge.decision.request.timestamp),
            solve_attempts=attempts,
            body=(
                f"resource:{challenge.decision.request.resource}"
                if status is ResponseStatus.SERVED
                else ""
            ),
        )
        self.metrics.observe(response)
        self.framework.settle(response, now)

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def submit(self, entry: TraceEntry) -> None:
        """Schedule one trace entry's arrival at its request timestamp."""
        self._profiles[entry.request.client_ip] = entry.profile
        if self.recorder is not None:
            self.recorder.register_source(
                entry.request.client_ip, entry.profile, entry.true_score
            )
        self._requests += 1
        rid = self._next_rid
        self._next_rid += 1
        qid, _ = self._link_of(entry.profile, entry.request.client_ip)
        if qid < 0:
            self.engine.schedule_at(
                entry.request.timestamp + self._delay(),
                lambda: self._on_server_receive(entry),
            )
            return
        # Linked clients enter their uplink at the submit instant; the
        # crossing (loss, queueing, retries) decides when — and
        # whether — the request arrives.  The loss hash is keyed on
        # the submission index, which matches the fast engine's
        # request index for the same workload.
        self._entry_rids[id(entry)] = rid
        self.engine.schedule_at(
            entry.request.timestamp,
            lambda: self._transmit_request(entry, rid, 1),
        )

    def _transmit_request(
        self, entry: TraceEntry, rid: int, attempt: int
    ) -> None:
        """One request-leg uplink crossing (scalar mirror of the SoA path).

        Give-ups are counted in :attr:`SimulationReport.link_stats`
        only — the request was never admitted, so there is no decision
        to aggregate.  A retry that would start past the client's
        patience window gives up instead.
        """
        now = self.engine.now
        qid, base = self._link_of(entry.profile, entry.request.client_ip)
        profile = self.links.profile_of_queue(qid)
        session = self._link_session
        stats = session.stats
        stats.crossings += 1
        lost = bool(
            self.links.crossing_lost(
                [rid], [attempt], leg=0, loss_rate=profile.loss_rate
            )[0]
        )
        if lost:
            stats.lost += 1
        else:
            exits, accepted = session.cross(qid, now, 1)
            if accepted:
                self.engine.schedule_at(
                    float(exits[0]) + base + self._delay(),
                    lambda: self._on_server_receive(entry),
                )
                return
            stats.queue_dropped += 1
        retry_at = now + profile.backoff * 2.0 ** (attempt - 1)
        patience = self.patiences.get(entry.profile, 30.0)
        if attempt < 1 + profile.max_retries and (
            retry_at - entry.request.timestamp
        ) <= patience:
            stats.retries += 1
            self.engine.schedule_at(
                retry_at,
                lambda: self._transmit_request(entry, rid, attempt + 1),
            )
        else:
            stats.request_give_ups += 1

    def _transmit_solution(
        self,
        entry: TraceEntry,
        challenge: Challenge,
        attempts: int,
        rid: int,
        attempt: int,
    ) -> None:
        """One solution-leg uplink crossing.

        The client already sank the solving work, so it retries until
        ``max_retries`` regardless of patience (TTL expiry punishes
        lateness); a final give-up is recorded as ABANDONED — the
        puzzle was issued and solved, so the decision exists.
        """
        now = self.engine.now
        qid, base = self._link_of(entry.profile, entry.request.client_ip)
        profile = self.links.profile_of_queue(qid)
        session = self._link_session
        stats = session.stats
        stats.crossings += 1
        lost = bool(
            self.links.crossing_lost(
                [rid], [attempt], leg=1, loss_rate=profile.loss_rate
            )[0]
        )
        if lost:
            stats.lost += 1
        else:
            exits, accepted = session.cross(qid, now, 1)
            if accepted:
                self.engine.schedule_at(
                    float(exits[0]) + base + self._delay(),
                    lambda: self._on_server_receive_solution(
                        challenge, attempts
                    ),
                )
                return
            stats.queue_dropped += 1
        if attempt < 1 + profile.max_retries:
            stats.retries += 1
            self.engine.schedule_at(
                now + profile.backoff * 2.0 ** (attempt - 1),
                lambda: self._transmit_solution(
                    entry, challenge, attempts, rid, attempt + 1
                ),
            )
        else:
            stats.solution_give_ups += 1
            self._finish(
                challenge, ResponseStatus.ABANDONED, now, attempts=attempts
            )

    def _on_server_receive(self, entry: TraceEntry) -> None:
        # Coalesce every arrival sharing this simulated instant into one
        # admission batch.  The drain callback is scheduled at the same
        # timestamp when the first arrival lands; FIFO ordering among
        # equal timestamps guarantees it runs after all of them have
        # registered, so the batch is complete when it fires.
        self._arrival_batch.append(entry)
        if len(self._arrival_batch) == 1:
            self.engine.schedule_at(self.engine.now, self._drain_arrivals)

    def _drain_arrivals(self) -> None:
        """Admit all same-timestep arrivals through the batch pipeline.

        Per-request FIFO costs are charged in arrival order (so each
        request keeps its own completion time and the backlog signal for
        load-adaptive policies is unchanged), then the whole batch is
        scored/issued via :meth:`AIPoWFramework.challenge_batch` with
        one puzzle timestamp per request.  Scoring happens here, at the
        arrival instant, rather than at each request's issue time — see
        the module docstring for what that approximates.
        """
        batch, self._arrival_batch = self._arrival_batch, []
        now = self.engine.now
        self.arrival_batches += 1
        self.largest_arrival_batch = max(
            self.largest_arrival_batch, len(batch)
        )
        requests = [entry.request for entry in batch]

        if not self.pow_enabled:
            dones = [
                self._server_complete(now, self.server_model.resource_cost)
                for _ in batch
            ]
            challenges = self.framework.challenge_batch(requests, now=now)
            for entry, done, challenge in zip(batch, dones, challenges):
                # Server->client legs add the client's link propagation
                # delay but are modelled lossless (the uplink is the
                # constrained direction).
                _, base = self._link_of(
                    entry.profile, entry.request.client_ip
                )
                self.engine.schedule_at(
                    done + self._delay() + base,
                    lambda c=challenge: self._finish(
                        c, ResponseStatus.SERVED, self.engine.now
                    ),
                )
            return

        issue_times = [
            self._server_complete(now, self.server_model.challenge_cost)
            for _ in batch
        ]
        challenges = self.framework.challenge_batch(
            requests, now=issue_times
        )
        for entry, issue_at, challenge in zip(batch, issue_times, challenges):
            _, base = self._link_of(entry.profile, entry.request.client_ip)
            self.engine.schedule_at(
                issue_at + self._delay() + base,
                lambda e=entry, c=challenge: self._on_client_receive_puzzle(
                    e, c
                ),
            )

    def _on_client_receive_puzzle(
        self, entry: TraceEntry, challenge: Challenge
    ) -> None:
        now = self.engine.now
        difficulty = challenge.decision.difficulty
        profile = entry.profile

        decider = self.solve_deciders.get(profile)
        if decider is not None and not decider(difficulty):
            self._finish(challenge, ResponseStatus.ABANDONED, now)
            return

        ip = entry.request.client_ip
        patience = self.patiences.get(profile, 30.0)
        hash_rate = self.hash_rates.get(profile)
        sample = self.solve_time.sample(difficulty, self.rng, hash_rate)
        start = max(now, self._cpu_free_at.get(ip, 0.0))
        solve_end = start + sample.seconds

        if solve_end - now > patience:
            give_up_at = now + patience
            self._cpu_free_at[ip] = give_up_at
            self.engine.schedule_at(
                give_up_at,
                lambda: self._finish(
                    challenge,
                    ResponseStatus.ABANDONED,
                    self.engine.now,
                    attempts=sample.attempts,
                ),
            )
            return

        self._cpu_free_at[ip] = solve_end
        qid, _ = self._link_of(profile, ip)
        if qid >= 0:
            # The solution enters the uplink the instant solving ends;
            # the crossing decides the submit time.
            rid = self._entry_rids[id(entry)]
            self.engine.schedule_at(
                solve_end,
                lambda: self._transmit_solution(
                    entry, challenge, sample.attempts, rid, 1
                ),
            )
            return
        self.engine.schedule_at(
            solve_end + self._delay(),
            lambda: self._on_server_receive_solution(
                challenge, sample.attempts
            ),
        )

    def _on_server_receive_solution(
        self, challenge: Challenge, attempts: int
    ) -> None:
        now = self.engine.now
        expired = (
            challenge.puzzle.age(now) > self.framework.config.pow.ttl
        )
        cost = self.server_model.verify_cost
        if not expired:
            cost += self.server_model.resource_cost
        done = self._server_complete(now, cost)
        status = (
            ResponseStatus.EXPIRED if expired else ResponseStatus.SERVED
        )
        ip = challenge.decision.request.client_ip
        _, base = self._link_of(self._profiles.get(ip, ""), ip)
        self.engine.schedule_at(
            done + self._delay() + base,
            lambda: self._finish(challenge, status, self.engine.now, attempts),
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, trace: Trace, until: float | None = None) -> SimulationReport:
        """Replay ``trace`` to completion (or ``until``) and report."""
        for entry in trace:
            self.submit(entry)
        self.engine.run(until=until)
        return SimulationReport(
            metrics=self.metrics,
            duration=self.engine.now,
            requests=self._requests,
            events_processed=self.engine.processed_count,
            link_stats=(
                self._link_session.stats if self._link_session else None
            ),
        )
