"""Vectorized simulation core: SoA agent state, cohort event dispatch.

The callback engine (:mod:`repro.net.sim.engine`) pays a Python
closure, a heap operation and a per-event dispatch for every request —
which caps campaign scale at thousands of agents.  This module is the
same network/server/solve model re-expressed over arrays:

* **state** is struct-of-arrays (:class:`~repro.net.sim.agents.AgentPopulation`
  plus per-run vectors: per-address CPU-free times, per-fire solve
  finish times, pending puzzle difficulties);
* **scheduling** is a bucketed calendar queue
  (:class:`~repro.net.sim.calendar.CalendarQueue`) that dequeues whole
  same-timestep *cohorts* instead of single events;
* **admission** drives each cohort through the framework's batch
  pipeline — :meth:`~repro.core.framework.AIPoWFramework.challenge_batch`
  when anything (a recorder) listens on the event bus, or the
  object-free :meth:`~repro.core.framework.AIPoWFramework.difficulties_for_scores`
  array kernel when nothing does (models whose scores react to
  response outcomes — behavioural feedback — are rejected loudly:
  this engine emits no per-response events, so their state would
  silently freeze; use the callback engine, or :class:`FastFeedback`
  in agent-driven runs);
* **solving** is vectorised geometric sampling (the numpy counterpart
  of :func:`repro.pow.solver.sample_attempts`).

No per-request Python closure exists on the hot path: one cohort loop
(:meth:`FastSimulation.step`) dispatches every event kind through a
handler table over one run-state struct (DESIGN.md §1.5).

Fidelity contract
-----------------
The simulated *model* is the one documented in
:mod:`repro.net.sim.simulation`: FIFO server with distinct
challenge/verify/resource costs, per-address CPU serialisation,
patience-bounded solving, TTL expiry.  Admission **decision streams**
(request order, scores, difficulties — everything
:meth:`~repro.core.records.DecisionRecord.canonical` compares) are
bit-identical to the callback engine on the same workload; the parity
matrix in ``tests/replay/test_fastsim_parity.py`` gates this on every
golden-trace scenario.  *Timing* randomness (channel jitter, solve
draws) comes from a numpy generator rather than ``random.Random``, so
latency samples are deterministic per seed but drawn in a different
stream than the callback engine — metrics agree statistically, not bit
for bit.  One corollary: a load-adaptive policy's decisions are a
function of queue timing, so under solving traffic they inherit the
timing stream's seed-sensitivity (two callback runs with different
seeds diverge the same way); the engines still interleave load
observations with decisions identically, which the parity suite pins
down with deterministic-timing workloads.  The callback engine remains
the reference implementation and
still owns the odd TTL/timeout edge (it emits per-response bus events,
which behavioural feedback and timeline collectors consume).

With ``tick`` set, event times are quantized up onto a grid, merging
near-simultaneous events into large cohorts — the knob the
million-agent scenarios use.  ``tick=None`` keeps exact times (cohorts
form only at genuinely equal instants, exactly like the callback
engine's same-timestep arrival batching).
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Mapping, Sequence

import numpy as np

from repro.core.framework import AIPoWFramework
from repro.core.records import ResponseStatus
from repro.metrics.collector import MetricsCollector
from repro.net.sim import kernels
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.calendar import CalendarQueue
from repro.net.sim.channel import Channel, FixedDelayChannel
from repro.net.sim.links import LinkSet
from repro.net.sim.simulation import ServerModel, SimulationReport
from repro.policies.adaptive import LoadAdaptivePolicy

__all__ = [
    "FastSimulation",
    "FastFeedback",
    "sample_attempts_array",
    "collector_from_buffers",
]

_STATUS_CODES = tuple(ResponseStatus)
_SERVED = _STATUS_CODES.index(ResponseStatus.SERVED)


def sample_attempts_array(
    difficulties: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Geometric attempt counts for a difficulty vector.

    Vectorised inverse-CDF sampling, the array sibling of
    :func:`repro.pow.solver.sample_attempts`: ``ceil(ln U / ln(1 -
    2**-d))`` with difficulty 0 solving on the first attempt.
    """
    d = np.asarray(difficulties, dtype=np.float64)
    attempts = np.ones(d.shape, dtype=np.float64)
    mask = d > 0
    if mask.any():
        # RNG consumption (one uniform per positive difficulty) is
        # owned here; the kernel is backend-swappable but stream-free.
        u = rng.random(int(mask.sum()))
        attempts[mask] = kernels.geometric_attempts(d[mask], u)
    return attempts


class _OutcomeBuffers:
    """Per-(class, status) outcome accumulator, array-chunk based."""

    def __init__(self) -> None:
        self._chunks: dict[tuple[str, int], list[tuple]] = {}
        self.count = 0

    def record(
        self,
        class_names: Sequence[str],
        class_ids: np.ndarray,
        status: ResponseStatus | np.ndarray,
        latency: np.ndarray,
        scores: np.ndarray,
        difficulties: np.ndarray,
        attempts: np.ndarray,
    ) -> None:
        """Fold one terminal cohort into the buffers.

        ``status`` is either one :class:`ResponseStatus` for the whole
        cohort or an int-code array (indexes into ``ResponseStatus``
        declaration order) for mixed served/expired cohorts.
        """
        if latency.size == 0:
            return
        self.count += int(latency.size)
        if isinstance(status, ResponseStatus):
            status_codes = np.full(
                latency.size, _STATUS_CODES.index(status), dtype=np.int8
            )
        else:
            status_codes = status
        for cid in np.unique(class_ids):
            cmask = class_ids == cid
            for code in np.unique(status_codes[cmask]):
                mask = cmask & (status_codes == code)
                key = (class_names[cid], int(code))
                self._chunks.setdefault(key, []).append(
                    (
                        latency[mask],
                        scores[mask],
                        difficulties[mask],
                        attempts[mask],
                    )
                )

    def fill(self, collector: MetricsCollector) -> MetricsCollector:
        """Bulk-fill a :class:`MetricsCollector` from the buffers.

        Chunks are concatenated per (class, status) first so each
        accumulator sees a handful of large arrays instead of one call
        per cohort — at a million outcomes the difference is the whole
        report cost.
        """
        overall: dict[int, list[tuple]] = {}
        for (name, code), chunks in self._chunks.items():
            merged = tuple(
                np.concatenate([chunk[j] for chunk in chunks])
                for j in range(4)
            )
            overall.setdefault(code, []).append(merged)
            self._fill_one(collector.for_class(name), code, merged)
        for code, parts in overall.items():
            merged = tuple(
                np.concatenate([part[j] for part in parts])
                for j in range(4)
            )
            self._fill_one(collector.overall, code, merged)
        return collector

    def export_rows(
        self, class_names: Sequence[str]
    ) -> tuple[np.ndarray, ...]:
        """Flatten the buffers into parallel outcome-row arrays.

        Returns ``(class_ids, status_codes, latency, scores,
        difficulties, attempts)`` — the flat-array transport format the
        parallel driver writes into shared memory.  Feeding the rows
        back through :meth:`record` on the other side rebuilds
        equivalent buffers: per-(class, status) counts and extremes are
        exact; means can differ by accumulation order only.
        """
        cids: list[np.ndarray] = []
        codes: list[np.ndarray] = []
        cols: tuple[list, list, list, list] = ([], [], [], [])
        name_to_cid = {name: i for i, name in enumerate(class_names)}
        for (name, code), chunks in sorted(
            self._chunks.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            for chunk in chunks:
                k = int(chunk[0].size)
                cids.append(np.full(k, name_to_cid[name], dtype=np.int32))
                codes.append(np.full(k, code, dtype=np.int8))
                for j in range(4):
                    cols[j].append(chunk[j])
        if not cids:
            return (
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int8),
                np.empty(0),
                np.empty(0),
                np.empty(0),
                np.empty(0),
            )
        return (
            np.concatenate(cids),
            np.concatenate(codes),
            *(np.concatenate(col) for col in cols),
        )

    @staticmethod
    def _fill_one(metrics, code: int, merged: tuple) -> None:
        latency, scores, difficulties, attempts = merged
        status = _STATUS_CODES[code]
        metrics.outcomes[status] += int(latency.size)
        metrics.latencies.extend_array(latency)
        if status is ResponseStatus.SERVED:
            metrics.served_latencies.extend_array(latency)
        metrics.scores.add_array(scores)
        metrics.difficulties.add_array(difficulties)
        metrics.attempts.add_array(attempts)


def collector_from_buffers(buffers: _OutcomeBuffers) -> MetricsCollector:
    """A real :class:`MetricsCollector` built from vectorised buffers."""
    return buffers.fill(MetricsCollector())


class FastFeedback:
    """Array-form behavioural feedback for agent-driven runs.

    The batch port of
    :class:`~repro.reputation.feedback.FeedbackReputationModel`'s
    offset table: one offset slot per *agent* (the SoA world has no IP
    strings), decayed with the same half-life and moved by the same
    reward step on served exchanges, clamped to the same bounds.
    Updates are applied per outcome cohort (counts folded in one step),
    which matches the sequential rule exactly because the clamp is
    monotone and within-cohort decay is zero.

    The modeled simulator never produces REJECTED/REPLAYED verdicts
    (sampled solutions always verify), so — as with the callback
    engine — only the *reward* direction moves: this is exactly the
    surface a feedback-poisoning adversary farms, and what the
    ``poison-ramp`` scenario measures.
    """

    def __init__(self, n_agents: int, config=None) -> None:
        from repro.reputation.feedback import FeedbackConfig

        self.config = config or FeedbackConfig()
        self.offset = np.zeros(n_agents, dtype=np.float64)
        self.updated_at = np.zeros(n_agents, dtype=np.float64)

    def _decay(self, agents: np.ndarray, now: float) -> None:
        half_life = self.config.half_life
        if np.isinf(half_life):
            self.updated_at[agents] = now
            return
        elapsed = np.maximum(0.0, now - self.updated_at[agents])
        self.offset[agents] *= 0.5 ** (elapsed / half_life)
        self.updated_at[agents] = now

    def offsets_for(self, agents: np.ndarray, now: float) -> np.ndarray:
        """Current decayed offsets for ``agents`` (read-only)."""
        self._decay(agents, now)
        return self.offset[agents]

    def observe_served(self, agents: np.ndarray, now: float) -> None:
        """Fold one cohort of served exchanges into the offsets."""
        if agents.size == 0:
            return
        uniq, counts = np.unique(agents, return_counts=True)
        self._decay(uniq, now)
        self.offset[uniq] = np.maximum(
            self.offset[uniq] - self.config.reward_step * counts,
            -self.config.max_reward,
        )


@dataclasses.dataclass
class _RunState:
    """Run-long context: every handler reads it, :meth:`~FastSimulation.step` keeps it.

    Living on the engine (not in a driver's locals or a handler's
    arguments) is what lets the parallel driver
    (:mod:`repro.net.sim.parsim`) advance a run in bounded time epochs
    with barriers in between.

    Rows are *requests* in open-loop runs and *sessions* in closed-loop
    runs.  A session has one exchange in flight at a time, so the begin
    time of its current exchange (``ts``) and its exchanges left
    (``remaining``) are per-session state here, not event payload —
    which is what lets both loops share admission and terminal
    recording: a latency is always ``finish - ts[idx]``.
    """

    #: Submit instant per request / begin of the session's current exchange.
    ts: np.ndarray
    class_names: Sequence[str]
    class_ids: np.ndarray
    #: Indexed by class id in open-loop runs, by session in closed-loop.
    hash_rate: np.ndarray
    patience: np.ndarray
    #: ``(idx, at) -> scores`` under array admission, else ``None`` and
    #: ``requests_of(idx)`` materialises requests for the framework.
    get_scores: object
    requests_of: object
    until: float | None
    link_base: np.ndarray | float = 0.0  # broadcasts as "no extra propagation"
    # Open loop only.
    agent_ids: np.ndarray | None = None
    cpu_free: np.ndarray | None = None
    feedback: "FastFeedback | None" = None
    link_qids: np.ndarray | None = None
    # Closed loop only.
    think: np.ndarray | None = None
    remaining: np.ndarray | None = None
    completed: int = 0


class FastSimulation:
    """Cohort-vectorized simulation over the calendar-queue scheduler.

    Drives three workload shapes through one engine:

    * :meth:`run` — an open-loop :class:`~repro.traffic.trace.Trace`,
      API-compatible with :meth:`Simulation.run`;
    * :meth:`run_fires` — a SoA fire schedule over an
      :class:`AgentPopulation` (the million-agent path: no request
      objects anywhere);
    * :meth:`run_sessions` — closed-loop sessions, API-compatible with
      :meth:`ClosedLoopSimulation.run`.

    All three build one :class:`_RunState` (``self._open``) and drain
    the calendar queue through the one cohort loop, :meth:`step`, which
    looks each event kind up in a ``{kind: handler}`` table and calls
    ``handler(when, payload)``; handlers read the run state instead of
    receiving it.  Three helpers carry what the handlers share:
    :meth:`_admit` (score + decide one arrival cohort),
    :meth:`_terminal` (record one terminal-outcome cohort) and
    :meth:`_cross` (one uplink crossing per transmission queue).

    Parameters mirror :class:`~repro.net.sim.simulation.Simulation`;
    the additions are ``tick`` (cohort quantization grid, ``None`` for
    exact times), ``admission`` (``"auto"``/``"framework"``/
    ``"array"`` — auto picks the object-free array kernel whenever
    nothing subscribes to admission events and the model's scores are
    time-invariant) and ``phase_timer`` (an optional
    :class:`~repro.obs.registry.PhaseTimer` accumulating wall time,
    cohort counts and item counts per event kind — ``arrive``,
    ``xmit``, ``xmitsol``, ``solve``, plus the nested ``fifo``
    sub-phase; ``None`` keeps the hot loop to a single no-op check
    per cohort) and ``decision_log`` (when True, every admission cohort
    appends ``(when, idx, scores, difficulties)`` to :attr:`decisions`
    — the bitwise decision-stream probe the parallel driver's parity
    tests compare; off by default, zero hot-path cost).
    """

    def __init__(
        self,
        framework: AIPoWFramework,
        channel: Channel | None = None,
        server_model: ServerModel | None = None,
        seed: int = 1234,
        pow_enabled: bool = True,
        solve_deciders: Mapping[str, object] | None = None,
        hash_rates: Mapping[str, float] | None = None,
        patiences: Mapping[str, float] | None = None,
        load_reference: float = 0.1,
        recorder=None,
        tick: float | None = None,
        admission: str = "auto",
        links: LinkSet | None = None,
        phase_timer=None,
        decision_log: bool = False,
    ) -> None:
        if load_reference <= 0:
            raise ValueError(
                f"load_reference must be > 0, got {load_reference}"
            )
        if admission not in ("auto", "framework", "array"):
            raise ValueError(f"unknown admission mode {admission!r}")
        if admission == "array" and recorder is not None:
            raise ValueError(
                "array admission emits no events, so a recorder would "
                "capture nothing; use admission='framework' (or 'auto', "
                "which picks it whenever a recorder is attached)"
            )
        self.framework = framework
        timing = framework.config.timing
        self.channel = channel or FixedDelayChannel(timing.network_overhead / 4)
        self.server_model = server_model or ServerModel()
        self.pow_enabled = pow_enabled
        self.solve_deciders = dict(solve_deciders or {})
        self.hash_rates = dict(hash_rates or {})
        self.patiences = dict(patiences or {})
        self.load_reference = load_reference
        self.recorder = recorder
        self.tick = tick
        self.links = links
        self.phase_timer = phase_timer
        self._decision_log = decision_log
        self._admission_request = admission
        self.default_hash_rate = 1.0 / timing.seconds_per_attempt
        self.rng = np.random.default_rng(seed)
        self._pyrng = random.Random(seed ^ 0x5A17)
        if recorder is not None:
            recorder.attach(framework.events)
        self._reset()

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def _reset(self, observe_load: bool = True) -> None:
        self._queue = CalendarQueue(tick=self.tick)
        #: The open-loop event kinds; :meth:`run_sessions` registers its
        #: own two for the run it starts, so they never outlive it.
        #: Plain functions, called ``handler(self, when, payload)``: bound
        #: methods here would tie the engine into a reference cycle, and
        #: a finished run's arrays would wait for the cycle collector.
        kinds = type(self)
        self._handlers = {
            "arrive": kinds._process_arrivals,
            "xmit": kinds._process_xmit,
            "xmitsol": kinds._process_xmitsol,
            "solve": kinds._process_solutions,
        }
        self._busy_until = 0.0
        self._now = 0.0
        self._buffers = _OutcomeBuffers()
        #: Per-cohort admission decisions, only kept when the engine
        #: was built with ``decision_log=True``.
        self.decisions: list[tuple] | None = (
            [] if self._decision_log else None
        )
        self._open: _RunState | None = None
        self._observe_load = observe_load
        self._link_session = (
            self.links.session() if self.links is not None else None
        )
        #: Network-layer outcome counters of the last run (``None``
        #: when the run carries no links).
        self.link_stats = (
            self._link_session.stats if self._link_session else None
        )
        #: Mirrors of the callback simulators' batching telemetry.
        self.arrival_batches = 0
        self.largest_arrival_batch = 0
        self.events_processed = 0

    def _bind_links(
        self,
        class_names: Sequence[str],
        class_ids: np.ndarray,
        packed_ips: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-request ``(queue_id, base_delay)`` under :attr:`links`.

        Queue ids come from the class's link assignment (``-1`` = no
        link); base delays are hash-derived from the packed address, so
        they match the callback engine's per-IP lookups bit-for-bit.
        """
        qids = self.links.queue_ids(class_names)[class_ids]
        return qids, self.links.base_delays(packed_ips, qids)

    def _admission_mode(self) -> str:
        # Stateful scorers (behavioural feedback) learn each outcome
        # the framework settles, and this engine records outcomes in
        # arrays without settling them — their offsets would silently
        # freeze mid-run regardless of admission mode, so reject loudly.
        if self._stateful_scoring():
            raise ValueError(
                "the model's scores react to response outcomes, which "
                "the vectorized engine does not emit; use the callback "
                "engine, or model feedback with FastFeedback in an "
                "agent-driven run"
            )
        if self._admission_request != "auto":
            return self._admission_request
        from repro.core.events import EventKind

        events = self.framework.events
        listened = any(
            events.has_subscribers(kind)
            for kind in (
                EventKind.REQUEST_RECEIVED,
                EventKind.SCORED,
                EventKind.POLICY_APPLIED,
                EventKind.PUZZLE_ISSUED,
            )
        )
        return "framework" if listened else "array"

    def _stateful_scoring(self) -> bool:
        """True when any model in the wrapper chain drifts mid-run.

        A stateful scorer (behavioural feedback) may sit *inside* a
        transparent wrapper (a score cache), and pre-scoring agents
        once would then silently ignore its mid-run offset changes.
        """
        return any(
            getattr(node, "scoring_is_stateful", False)
            for node in _walk_model_chain(self.framework.model)
        )

    def _delays(self, count: int) -> np.ndarray | float:
        """``count`` one-way delay draws (a scalar for fixed channels).

        The shipped channels expose ``delay_array`` (one numpy draw
        per cohort); third-party scalar-only channels fall back to a
        per-draw Python loop — correct, but it reintroduces per-event
        Python calls, so large-scale runs should use a batch-capable
        channel.
        """
        if isinstance(self.channel, FixedDelayChannel):
            return max(0.0, self.channel.delay)
        batch = getattr(self.channel, "delay_array", None)
        if batch is not None:
            drawn = np.asarray(batch(self.rng, count), dtype=np.float64)
        else:
            drawn = np.fromiter(
                (
                    self.channel.one_way_delay(self._pyrng)
                    for _ in range(count)
                ),
                dtype=np.float64,
                count=count,
            )
        # Channel contract backstop: a negative delay would schedule
        # an event before its cause.
        return np.maximum(0.0, drawn)

    def _base(self, idx: np.ndarray) -> np.ndarray | float:
        """Per-row link propagation delay, added to every leg.

        Server->client legs add it too but are modelled lossless (the
        uplink is the constrained direction).
        """
        base = self._open.link_base
        return base[idx] if isinstance(base, np.ndarray) else base

    def _fifo(self, at: float, costs: np.ndarray | float, count: int) -> np.ndarray:
        """FIFO completion times for ``count`` arrivals at ``at``.

        Vectorised form of the callback engines' ``_server_complete``
        recurrence: every item starts at ``max(arrival, busy)`` and the
        backlog only ever grows within a same-instant cohort.  In
        open-loop runs it feeds the backlog signal to a load-adaptive
        policy exactly once per request, like ``Simulation``'s scalar
        path (the callback closed-loop server model has no load
        signal, so closed-loop runs skip it there too).

        Computed as one running sum seeded with the cohort's start
        time — the same left-associated additions the scalar
        recurrence performs — so completion times are bit-identical to
        the callback engine, not merely ULP-close (they feed the load
        signal and the TTL-expiry comparison, where one ULP can flip a
        decision).
        """
        started = (
            time.perf_counter() if self.phase_timer is not None else 0.0
        )
        start = max(at, self._busy_until)
        dones = kernels.fifo_running_sum(start, costs, count)
        policy = self.framework.policy
        if self._observe_load and isinstance(policy, LoadAdaptivePolicy):
            busy_before = np.empty(count)
            busy_before[0] = self._busy_until
            busy_before[1:] = dones[:-1]
            backlogs = np.maximum(0.0, busy_before - at) / self.load_reference
            for value in backlogs:
                policy.observe_load(float(value))
        self._busy_until = float(dones[-1])
        if self.phase_timer is not None:
            # Nested inside the dispatch phases, so "fifo" time is a
            # sub-phase of (mostly) "arrive", not a disjoint share.
            self.phase_timer.observe(
                "fifo", time.perf_counter() - started, items=count
            )
        return dones

    def _solve_schedule(
        self,
        agents: np.ndarray,
        cpu_free: np.ndarray,
        receipt: np.ndarray,
        seconds: np.ndarray,
        patience: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-address CPU serialisation with patience abandonment.

        Returns ``(solve_end, abandoned)``.  An abandoning client's CPU
        frees at ``receipt + patience`` (it ground until giving up),
        matching the callback engine.  Agents appearing more than once
        in a cohort fall back to a sequential recurrence for exactly
        the duplicated positions, preserving FIFO CPU hand-off.
        """
        start = np.maximum(receipt, cpu_free[agents])
        solve_end = start + seconds
        abandoned = kernels.patience_mask(solve_end, receipt, patience)
        give_up = receipt + patience
        release = np.where(abandoned, give_up, solve_end)
        uniq, inverse, counts = np.unique(
            agents, return_inverse=True, return_counts=True
        )
        if uniq.size == agents.size:
            cpu_free[agents] = release
            return solve_end, abandoned
        single = counts[inverse] == 1
        cpu_free[agents[single]] = release[single]
        for i in np.nonzero(~single)[0].tolist():
            agent = agents[i]
            s = max(receipt[i], cpu_free[agent])
            e = s + seconds[i]
            if (e - receipt[i]) > patience[i]:
                abandoned[i] = True
                cpu_free[agent] = receipt[i] + patience[i]
            else:
                abandoned[i] = False
                solve_end[i] = e
                cpu_free[agent] = e
        return solve_end, abandoned

    def _admit(
        self, idx: np.ndarray, when: float, issue_times: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Admit one arrival cohort: ``(scores, difficulties)``.

        The single admission point of every run shape, so it also keeps
        the batching telemetry (``arrival_batches`` and friends).  Array
        mode is a score gather plus the policy's array kernel;
        framework mode is one :meth:`AIPoWFramework.challenge_batch`
        call (full per-request events for recorders), each puzzle
        stamped with its own FIFO-derived issue time
        (``issue_times=None``: the PoW-off baseline issues none, so the
        cohort instant stands in), with the decisions pulled back into
        arrays.

        Callers charge the cohort's FIFO costs — which feed a
        load-adaptive policy's signal — *before* admitting, as the
        callback engine does, or the two decision streams drift apart.
        """
        k = int(idx.size)
        self.arrival_batches += 1
        self.largest_arrival_batch = max(self.largest_arrival_batch, k)
        self.events_processed += k + 1  # arrivals + the drain
        st = self._open
        if st.get_scores is not None:
            scores = st.get_scores(idx, when)
            difficulties = self.framework.difficulties_for_scores(
                scores
            ).astype(np.float64)
        else:
            challenges = self.framework.challenge_batch(
                st.requests_of(idx),
                now=(
                    when
                    if issue_times is None
                    else [float(t) for t in issue_times]
                ),
            )
            scores = np.array(
                [c.decision.reputation_score for c in challenges]
            )
            difficulties = np.array(
                [c.decision.difficulty for c in challenges], dtype=np.float64
            )
        if self.decisions is not None:
            self.decisions.append(
                (when, idx.copy(), scores.copy(), difficulties.copy())
            )
        return scores, difficulties

    def _terminal(
        self,
        idx: np.ndarray,
        finish: np.ndarray,
        status: ResponseStatus | np.ndarray,
        scores: np.ndarray,
        difficulties: np.ndarray,
        attempts: np.ndarray,
        redeemed_at: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Record one terminal-outcome cohort; returns the recorded ``(idx, finish)``.

        Terminals past the run's ``until`` are dropped (their events
        would not fire), the clock advances to the latest one kept, and
        the cohort lands in the outcome buffers with latency ``finish -
        ts[idx]``.  ``redeemed_at`` is set by the solution handler
        only: behavioural feedback rewards served *exchanges*, observed
        at the instant the solutions were redeemed.
        """
        st = self._open
        if st.until is not None:
            keep = finish <= st.until
            idx, finish, scores, difficulties, attempts = (
                a[keep]
                for a in (idx, finish, scores, difficulties, attempts)
            )
            if isinstance(status, np.ndarray):
                status = status[keep]
        if finish.size:
            self._now = max(self._now, float(finish.max()))
        self._buffers.record(
            st.class_names,
            st.class_ids[idx],
            status,
            np.maximum(0.0, finish - st.ts[idx]),
            scores,
            difficulties,
            attempts,
        )
        if redeemed_at is not None and st.feedback is not None:
            st.feedback.observe_served(
                st.agent_ids[idx][status == _SERVED], redeemed_at
            )
        return idx, finish

    def _decide_solve(
        self,
        class_names: Sequence[str],
        class_ids: np.ndarray,
        difficulties: np.ndarray,
    ) -> np.ndarray:
        """Per-profile solve/refuse decisions, batch where possible."""
        from repro.attacks.base import decide_batch

        solve = np.ones(difficulties.size, dtype=bool)
        if not self.solve_deciders:
            return solve
        for cid in np.unique(class_ids):
            decider = self.solve_deciders.get(class_names[cid])
            if decider is None:
                continue
            mask = class_ids == cid
            solve[mask] = decide_batch(decider, difficulties[mask])
        return solve

    # ------------------------------------------------------------------
    # Open-loop: traces and fire schedules
    # ------------------------------------------------------------------
    def run(self, trace, until: float | None = None) -> SimulationReport:
        """Replay an open-loop trace; drop-in for ``Simulation.run``."""
        entries = list(trace)
        class_names: list[str] = []
        class_index: dict[str, int] = {}
        agent_index: dict[str, int] = {}
        n = len(entries)
        ts = np.empty(n)
        class_ids = np.empty(n, dtype=np.int32)
        agent_ids = np.empty(n, dtype=np.int64)
        packed = np.empty(n, dtype=np.int64) if self.links is not None else None
        if packed is not None:
            import ipaddress
        for i, entry in enumerate(entries):
            ts[i] = entry.request.timestamp
            cid = class_index.setdefault(entry.profile, len(class_names))
            if cid == len(class_names):
                class_names.append(entry.profile)
            class_ids[i] = cid
            agent_ids[i] = agent_index.setdefault(
                entry.request.client_ip, len(agent_index)
            )
            if packed is not None:
                packed[i] = int(
                    ipaddress.ip_address(entry.request.client_ip)
                )
            if self.recorder is not None:
                self.recorder.register_source(
                    entry.request.client_ip, entry.profile, entry.true_score
                )
        link_qids = link_base = None
        if packed is not None:
            link_qids, link_base = self._bind_links(
                class_names, class_ids, packed
            )

        get_scores = requests_of = None
        if self._admission_mode() != "array":
            requests_of = lambda idx: [  # noqa: E731
                entries[i].request for i in idx.tolist()
            ]
        elif n:
            from repro.reputation.base import model_score_requests

            scores = model_score_requests(
                self.framework.model, [e.request for e in entries]
            )
            get_scores = lambda idx, at: scores[idx]  # noqa: E731
        self._start_open_loop(
            ts=ts,
            class_names=class_names,
            class_ids=class_ids,
            agent_ids=agent_ids,
            n_agents=len(agent_index),
            get_scores=get_scores,
            requests_of=requests_of,
            until=until,
            link_qids=link_qids,
            link_base=link_base,
        )
        self.step(None)
        return self.finish()

    def run_fires(
        self,
        population: AgentPopulation,
        fire_times: np.ndarray,
        fire_agents: np.ndarray,
        until: float | None = None,
        feedback: FastFeedback | None = None,
    ) -> SimulationReport:
        """Drive a SoA fire schedule — the million-agent hot path.

        Agents are scored once (features are fixed at mint time);
        per-fire admission is a gather plus the policy's array kernel.
        ``feedback`` threads a :class:`FastFeedback` offset table into
        scoring and outcome observation.
        """
        self.start_fires(population, fire_times, fire_agents, until, feedback)
        self.step(None)
        return self.finish()

    # ------------------------------------------------------------------
    # Stepped execution (the parallel driver's epoch API)
    # ------------------------------------------------------------------
    def start_fires(
        self,
        population: AgentPopulation,
        fire_times: np.ndarray,
        fire_agents: np.ndarray,
        until: float | None = None,
        feedback: FastFeedback | None = None,
    ) -> None:
        """Prime the stepped engine with a fire schedule.

        ``start_fires`` + repeated :meth:`step` + :meth:`finish` is the
        epoch-sliced spelling of :meth:`run_fires`: draining the
        calendar queue in consecutive bounded windows visits exactly
        the cohorts an unbounded drain would, in the same (time, FIFO)
        order — see :meth:`CalendarQueue.drain_until` — so the two
        spellings produce bit-identical decision streams and reports.
        """
        fire_agents = np.asarray(fire_agents, dtype=np.int64)
        fire_times = np.asarray(fire_times, dtype=np.float64)
        mode = self._admission_mode()
        if feedback is not None and mode != "array":
            raise ValueError(
                "FastFeedback offsets only enter scoring on the array "
                "admission path; this run resolved to framework "
                "admission (recorder/subscribers attached), where the "
                "offsets would update but never influence a decision"
            )
        link_qids = link_base = None
        if self.links is not None:
            # Per-agent link state is SoA: one hash-derived base delay
            # and one queue id per agent, gathered per fire.
            agent_qids, agent_base = self._bind_links(
                population.profile_names,
                population.profile_id,
                population.packed_ips(),
            )
            link_qids = agent_qids[fire_agents]
            link_base = agent_base[fire_agents]

        get_scores = requests_of = None
        if mode == "array":
            schema = _scoring_schema(self.framework.model)
            if schema.names != population.schema.names:
                raise ValueError(
                    "population schema does not match the scoring "
                    f"model's: {population.schema.names} vs "
                    f"{schema.names}"
                )
            base_scores = population.score_with(
                _innermost_batch_scorer(self.framework.model)
            )
            if feedback is None:
                per_fire_scores = base_scores[fire_agents]
                get_scores = lambda idx, at: per_fire_scores[idx]  # noqa: E731
            else:

                def get_scores(idx: np.ndarray, at: float) -> np.ndarray:
                    agents = fire_agents[idx]
                    offsets = feedback.offsets_for(agents, at)
                    return np.clip(base_scores[agents] + offsets, 0.0, 10.0)

        else:
            from repro.core.records import ClientRequest

            names = population.schema.names
            rows = population.features
            if self.recorder is not None:
                # Recorder runs are object-world by construction
                # (framework admission), so materialising every
                # agent's address for source metadata is in budget.
                profile_names = population.profile_names
                true = population.true_scores
                for agent, ip in enumerate(population.ip_strings()):
                    self.recorder.register_source(
                        ip,
                        profile_names[population.profile_id[agent]],
                        float(true[agent]),
                    )

            def requests_of(idx: np.ndarray):
                agents = fire_agents[idx]
                ips = population.ip_strings(agents)
                return [
                    ClientRequest(
                        client_ip=ip,
                        resource="/index.html",
                        timestamp=float(fire_times[i]),
                        features=dict(
                            zip(names, rows[agent].tolist())
                        ),
                    )
                    for i, agent, ip in zip(idx.tolist(), agents.tolist(), ips)
                ]

        self._start_open_loop(
            ts=fire_times,
            class_names=list(population.profile_names),
            class_ids=population.profile_id[fire_agents].astype(np.int32),
            agent_ids=fire_agents,
            n_agents=len(population),
            get_scores=get_scores,
            requests_of=requests_of,
            until=until,
            feedback=feedback,
            link_qids=link_qids,
            link_base=link_base,
        )

    def _start_open_loop(
        self,
        *,
        ts: np.ndarray,
        class_names: Sequence[str],
        class_ids: np.ndarray,
        agent_ids: np.ndarray,
        n_agents: int,
        get_scores,
        requests_of,
        until: float | None,
        feedback: FastFeedback | None = None,
        link_qids: np.ndarray | None = None,
        link_base: np.ndarray | None = None,
    ) -> None:
        """Reset, build the run state and push the arrival schedule."""
        self._reset()
        self._open = _RunState(
            ts=ts,
            class_names=class_names,
            class_ids=class_ids,
            hash_rate=self._per_class(
                class_names, self.hash_rates, self.default_hash_rate
            ),
            patience=self._per_class(class_names, self.patiences, 30.0),
            get_scores=get_scores,
            requests_of=requests_of,
            until=until,
            link_base=0.0 if link_base is None else link_base,
            agent_ids=agent_ids,
            cpu_free=np.zeros(n_agents),
            feedback=feedback,
            link_qids=link_qids,
        )
        # Arrival times: one channel crossing per submitted request.
        # _push_grouped stable-sorts them, so equal-instant arrivals
        # keep trace order — the exact cohorts the callback engine's
        # arrival batching forms.  Linked requests instead enter their
        # uplink at the submit instant ("xmit"); the crossing decides
        # when — and whether — they arrive.
        plain = np.arange(int(ts.size), dtype=np.int64)
        wired = plain[:0]
        if self._link_session is not None:
            linked = link_qids >= 0
            plain, wired = plain[~linked], plain[linked]
        if plain.size:
            self._push_grouped(
                ts[plain] + self._delays(int(plain.size)), "arrive", (plain,)
            )
        if wired.size:
            self._push_grouped(
                ts[wired], "xmit", (wired, np.ones(wired.size, dtype=np.int64))
            )

    def step(self, bound: float | None) -> bool:
        """Process every cohort with quantized time ``<= bound``.

        The engine's one cohort loop: every run shape drains through
        it.  Returns True while events remain past ``bound`` (the
        caller should step again with a later bound), False once the
        run is over — queue drained, or every remaining cohort lies
        beyond the run's ``until`` horizon.  ``bound=None`` runs to the
        end.
        """
        if self._open is None:
            raise ValueError("step() before start_fires()")
        until = self._open.until
        timer = self.phase_timer
        while self._queue:
            peek = self._queue.peek_time()
            if until is not None and peek > until:
                return False
            if bound is not None and peek > bound:
                return True
            when, segments = self._queue.pop_cohort()
            self._now = max(self._now, when)
            for kind, payload in _merge_segments(segments):
                handler = self._handlers.get(kind)
                if handler is None:
                    raise ValueError(
                        f"no handler for event kind {kind!r} in this run "
                        f"(known: {', '.join(self._handlers)})"
                    )
                started = time.perf_counter() if timer is not None else 0.0
                handler(self, when, payload)
                if timer is not None:
                    timer.observe(
                        kind,
                        time.perf_counter() - started,
                        items=int(payload[0].size),
                    )
        return False

    def finish(self) -> SimulationReport:
        """The report of a stepped run (after :meth:`step` returned False)."""
        st = self._open
        if st is None:
            raise ValueError("finish() before start_fires()")
        return SimulationReport(
            metrics=collector_from_buffers(self._buffers),
            duration=st.until if st.until is not None else self._now,
            requests=int(st.ts.size),
            events_processed=self.events_processed,
            link_stats=self.link_stats,
        )

    def _process_arrivals(self, when: float, payload: tuple) -> None:
        (idx,) = payload
        st = self._open
        k = int(idx.size)
        model = self.server_model
        if not self.pow_enabled:
            dones = self._fifo(when, model.resource_cost, k)
            scores, difficulties = self._admit(idx, when, None)
            finish = dones + self._delays(k) + self._base(idx)
            self.events_processed += k
            self._terminal(
                idx,
                finish,
                ResponseStatus.SERVED,
                scores,
                difficulties,
                np.zeros(k),
            )
            return

        issue = self._fifo(when, model.challenge_cost, k)
        scores, difficulties = self._admit(idx, when, issue)
        receipt = issue + self._delays(k) + self._base(idx)
        self.events_processed += k  # puzzle deliveries
        cids = st.class_ids[idx]
        solve = self._decide_solve(st.class_names, cids, difficulties)

        refused = ~solve
        if refused.any():
            self._terminal(
                idx[refused],
                receipt[refused],
                ResponseStatus.ABANDONED,
                scores[refused],
                difficulties[refused],
                np.zeros(int(refused.sum())),
            )
        if not solve.any():
            return
        s_idx = idx[solve]
        s_receipt = receipt[solve]
        s_diff = difficulties[solve]
        s_scores = scores[solve]
        s_cids = cids[solve]
        s_patience = st.patience[s_cids]
        attempts = sample_attempts_array(s_diff, self.rng)
        seconds = attempts / st.hash_rate[s_cids]
        solve_end, abandoned = self._solve_schedule(
            st.agent_ids[s_idx], st.cpu_free, s_receipt, seconds, s_patience
        )

        if abandoned.any():
            self._terminal(
                s_idx[abandoned],
                s_receipt[abandoned] + s_patience[abandoned],
                ResponseStatus.ABANDONED,
                s_scores[abandoned],
                s_diff[abandoned],
                attempts[abandoned],
            )

        solving = ~abandoned
        if not solving.any():
            return
        payload = (
            s_idx[solving],
            issue[solve][solving],
            attempts[solving],
            s_diff[solving],
            s_scores[solving],
        )
        solve_end = solve_end[solving]
        if self._link_session is not None:
            # Linked agents enter their uplink the instant solving
            # ends; the crossing (loss, queue) decides the submit time.
            on_link = st.link_qids[payload[0]] >= 0
            if on_link.any():
                self._push_grouped(
                    solve_end[on_link],
                    "xmitsol",
                    tuple(col[on_link] for col in payload)
                    + (np.ones(int(on_link.sum()), dtype=np.int64),),
                )
            off_link = ~on_link
            if not off_link.any():
                return
            payload = tuple(col[off_link] for col in payload)
            solve_end = solve_end[off_link]
        self._push_grouped(
            solve_end + self._delays(int(solve_end.size)), "solve", payload
        )

    def _process_solutions(self, when: float, payload: tuple) -> None:
        idx, issued_at, attempts, difficulties, scores = payload
        k = int(idx.size)
        self.events_processed += k
        model = self.server_model
        expired = kernels.ttl_mask(
            when, issued_at, self.framework.config.pow.ttl
        )
        costs = model.verify_cost + np.where(
            expired, 0.0, model.resource_cost
        )
        dones = self._fifo(when, costs, k)
        finish = dones + self._delays(k) + self._base(idx)
        self.events_processed += k  # terminal responses
        status_codes = np.where(
            expired,
            _STATUS_CODES.index(ResponseStatus.EXPIRED),
            _SERVED,
        ).astype(np.int8)
        self._terminal(
            idx,
            finish,
            status_codes,
            scores,
            difficulties,
            attempts,
            redeemed_at=when,
        )

    # ------------------------------------------------------------------
    # Link crossings
    # ------------------------------------------------------------------
    def _cross(
        self, when: float, idx: np.ndarray, attempt: np.ndarray, leg: int
    ):
        """One uplink crossing of a cohort, transmission queue by queue.

        The step both legs share: the counter-hash loss draw, the
        queue's FIFO/tail-drop recurrence, and the backoff schedule of
        whatever failed.  Yields, per queue, ``(delivered, arrive,
        failed, retry_at, can_retry)``: positions (into ``idx``) that
        crossed and their server-side arrival times, then the positions
        that did not — lost + tail-dropped, in original crossing order
        (a same-instant retry cohort re-enters the queue in the order
        the callback engine would process it) — with their next attempt
        time and whether ``max_retries`` still allows one.  What to do
        with a crossing that succeeded, and when to give up, is the
        leg's.
        """
        st = self._open
        session = self._link_session
        stats = session.stats
        self.events_processed += int(idx.size)
        stats.crossings += int(idx.size)
        qids = st.link_qids[idx]
        for qid in np.unique(qids):
            pos = np.nonzero(qids == qid)[0]
            profile = self.links.profile_of_queue(int(qid))
            lost = self.links.crossing_lost(
                idx[pos], attempt[pos], leg=leg, loss_rate=profile.loss_rate
            )
            stats.lost += int(lost.sum())
            surv = pos[~lost]
            exits, accepted = session.cross(int(qid), when, int(surv.size))
            stats.queue_dropped += int(surv.size) - accepted
            deliv = surv[:accepted]
            arrive = None
            if deliv.size:
                arrive = (
                    exits
                    + self._base(idx[deliv])
                    + self._delays(int(deliv.size))
                )
            failed = np.zeros(pos.size, dtype=bool)
            failed[np.nonzero(lost)[0]] = True
            failed[np.nonzero(~lost)[0][accepted:]] = True
            f_pos = pos[failed]
            f_att = attempt[f_pos]
            retry_at = when + profile.backoff * 2.0 ** (
                f_att.astype(np.float64) - 1.0
            )
            yield (
                deliv,
                arrive,
                f_pos,
                retry_at,
                f_att < 1 + profile.max_retries,
            )

    def _process_xmit(self, when: float, payload: tuple) -> None:
        """Request-leg uplink crossings: loss, queueing, retry, give-up.

        Requests the network swallows here were never admitted — they
        carry no score or difficulty — so give-ups land in
        :attr:`link_stats`, not the metrics.  A retry that would start
        past the client's patience window gives up instead: nobody
        retransmits a page request they have stopped waiting for.
        """
        idx, attempt = payload
        st = self._open
        stats = self._link_session.stats
        for deliv, arrive, failed, retry_at, can in self._cross(
            when, idx, attempt, leg=0
        ):
            if deliv.size:
                self._push_grouped(arrive, "arrive", (idx[deliv],))
            if not failed.size:
                continue
            f_idx = idx[failed]
            can &= (retry_at - st.ts[f_idx]) <= st.patience[
                st.class_ids[f_idx]
            ]
            stats.retries += int(can.sum())
            stats.request_give_ups += int((~can).sum())
            self._push_grouped(
                retry_at[can], "xmit", (f_idx[can], attempt[failed][can] + 1)
            )

    def _process_xmitsol(self, when: float, payload: tuple) -> None:
        """Solution-leg uplink crossings.

        Same crossing step as the request leg, with two differences:
        the client already sank the solving work, so it retries until
        ``max_retries`` regardless of patience (TTL expiry — not
        impatience — punishes lateness), and a final give-up *is*
        recorded in the metrics as ABANDONED: the puzzle was issued and
        solved, so scores and difficulties exist.
        """
        *solution, attempt = payload
        idx, _issued_at, attempts, difficulties, scores = solution
        stats = self._link_session.stats
        for deliv, arrive, failed, retry_at, can in self._cross(
            when, idx, attempt, leg=1
        ):
            if deliv.size:
                self._push_grouped(
                    arrive, "solve", tuple(col[deliv] for col in solution)
                )
            if not failed.size:
                continue
            stats.retries += int(can.sum())
            give_up = failed[~can]
            if give_up.size:
                stats.solution_give_ups += int(give_up.size)
                self._terminal(
                    idx[give_up],
                    np.full(give_up.size, when),
                    ResponseStatus.ABANDONED,
                    scores[give_up],
                    difficulties[give_up],
                    attempts[give_up],
                )
            retry = failed[can]
            self._push_grouped(
                retry_at[can],
                "xmitsol",
                tuple(col[retry] for col in solution)
                + (attempt[retry] + 1,),
            )

    # ------------------------------------------------------------------
    # Closed loop
    # ------------------------------------------------------------------
    def run_sessions(self, sessions, until: float | None = None):
        """Drive closed-loop sessions; drop-in for ``ClosedLoopSimulation.run``.

        A fire-schedule mode of the same engine: the sessions' first
        exchanges are pushed as ``cl_arrive`` cohorts, two more handlers
        are registered for this run, and :meth:`step` drains them; a
        terminal outcome re-fires its session (:meth:`_finish_sessions`).
        """
        from repro.net.sim.closedloop import ClosedLoopReport

        sessions = list(sessions)
        if not sessions:
            raise ValueError("need at least one session")
        if self.links is not None and not self.links.delay_only:
            # Closed-loop exchanges have no request identity to key
            # loss hashes on and no give-up semantics; only the
            # propagation-delay part of a link is defined here.
            raise ValueError(
                "closed-loop runs support delay-only link profiles; "
                "lossy or bandwidth-capped links need the open-loop "
                "engines (run/run_fires)"
            )
        m = len(sessions)
        class_names: list[str] = []
        class_index: dict[str, int] = {}
        cids = np.empty(m, dtype=np.int32)
        #: Begin time of each session's exchange in flight (the run
        #: state's ``ts``; the framework-mode request builder reads it live).
        begin = np.empty(m)
        think = np.empty(m)
        exchanges = np.empty(m, dtype=np.int64)
        rate = np.empty(m)
        patience = np.empty(m)
        for i, session in enumerate(sessions):
            profile = session.client.profile
            cid = class_index.setdefault(profile.name, len(class_names))
            if cid == len(class_names):
                class_names.append(profile.name)
            cids[i] = cid
            begin[i] = session.start
            think[i] = session.think_time
            exchanges[i] = session.exchanges
            rate[i] = self.hash_rates.get(profile.name, profile.hash_rate)
            patience[i] = profile.patience
            if self.recorder is not None:
                self.recorder.register_source(
                    session.client.ip,
                    profile.name,
                    session.client.true_score,
                )

        base = 0.0
        if self.links is not None:
            import ipaddress

            packed = np.array(
                [int(ipaddress.ip_address(s.client.ip)) for s in sessions],
                dtype=np.int64,
            )
            _, base = self._bind_links(class_names, cids, packed)

        get_scores = requests_of = None
        if self._admission_mode() == "array":
            # The schema must be the *scoring* model's — a transparent
            # wrapper (score cache) declares none, and falling back to
            # the default would vectorize features in the wrong column
            # order for a custom-schema model.
            scorer = _innermost_batch_scorer(self.framework.model)
            schema = _scoring_schema(self.framework.model)
            matrix = schema.vectorize_batch(
                [s.client.features for s in sessions]
            )
            scores = np.asarray(
                scorer.score_batch(matrix), dtype=np.float64
            )
            get_scores = lambda idx, at: scores[idx]  # noqa: E731
        else:
            from repro.core.records import ClientRequest

            def requests_of(idx: np.ndarray):
                return [
                    ClientRequest(
                        client_ip=sessions[i].client.ip,
                        resource="/session",
                        timestamp=t,
                        features=sessions[i].client.features,
                    )
                    for i, t in zip(idx.tolist(), begin[idx].tolist())
                ]

        # The callback closed-loop server model has no load signal, so
        # the fast engine must not feed one either.
        self._reset(observe_load=False)
        self._handlers.update(
            cl_arrive=type(self)._process_session_arrivals,
            cl_redeem=type(self)._process_redemptions,
        )
        self._open = state = _RunState(
            ts=begin,
            class_names=class_names,
            class_ids=cids,
            hash_rate=rate,
            patience=patience,
            get_scores=get_scores,
            requests_of=requests_of,
            until=until,
            link_base=base,
            think=think,
            remaining=exchanges,
        )
        # First exchange of every session.
        everyone = np.arange(m, dtype=np.int64)
        self._push_grouped(
            state.ts + self._delays(m) + self._base(everyone),
            "cl_arrive",
            (everyone,),
        )
        self.step(None)
        return ClosedLoopReport(
            metrics=collector_from_buffers(self._buffers),
            duration=until if until is not None else self._now,
            sessions=m,
            completed_exchanges=state.completed,
        )

    def _process_session_arrivals(self, when: float, payload: tuple) -> None:
        (idx,) = payload
        st = self._open
        k = int(idx.size)
        issue = self._fifo(when, self.server_model.challenge_cost, k)
        scores, difficulties = self._admit(idx, when, issue)
        receipt = issue + self._delays(k) + self._base(idx)
        self.events_processed += k
        attempts = sample_attempts_array(difficulties, self.rng)
        seconds = attempts / st.hash_rate[idx]
        # Closed-loop clients abandon on expected grind time alone
        # (their CPU is otherwise idle): a sample exceeding patience
        # ends the exchange at receipt + patience.
        abandoned = seconds > st.patience[idx]
        if abandoned.any():
            self._finish_sessions(
                idx[abandoned],
                receipt[abandoned] + st.patience[idx][abandoned],
                ResponseStatus.ABANDONED,
                scores[abandoned],
                difficulties[abandoned],
                attempts[abandoned],
            )
        solving = ~abandoned
        if solving.any():
            submit = (
                receipt[solving]
                + seconds[solving]
                + self._delays(int(solving.sum()))
                + self._base(idx[solving])
            )
            self._push_grouped(
                submit,
                "cl_redeem",
                (
                    idx[solving],
                    attempts[solving],
                    scores[solving],
                    difficulties[solving],
                ),
            )

    def _process_redemptions(self, when: float, payload: tuple) -> None:
        idx, attempts, scores, difficulties = payload
        k = int(idx.size)
        self.events_processed += k
        model = self.server_model
        dones = self._fifo(when, model.verify_cost + model.resource_cost, k)
        self._finish_sessions(
            idx,
            dones + self._delays(k) + self._base(idx),
            ResponseStatus.SERVED,
            scores,
            difficulties,
            attempts,
        )

    def _finish_sessions(
        self,
        idx: np.ndarray,
        finish: np.ndarray,
        status: ResponseStatus,
        scores: np.ndarray,
        difficulties: np.ndarray,
        attempts: np.ndarray,
    ) -> None:
        """The closed-loop terminal: record, then re-fire what has exchanges left."""
        st = self._open
        idx, finish = self._terminal(
            idx, finish, status, scores, difficulties, attempts
        )
        self.events_processed += int(idx.size)
        st.completed += int(idx.size)
        again = st.remaining[idx] > 1
        if not again.any():
            return
        idx = idx[again]
        think = st.think[idx]
        pauses = np.where(
            think > 0,
            self.rng.exponential(np.maximum(think, 1e-300)),
            0.0,
        )
        st.ts[idx] = finish[again] + pauses
        st.remaining[idx] -= 1
        self._push_grouped(
            st.ts[idx] + self._delays(int(idx.size)) + self._base(idx),
            "cl_arrive",
            (idx,),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _push_grouped(
        self, times: np.ndarray, kind: str, payload: tuple
    ) -> None:
        """Push payload columns grouped into per-bucket segments.

        Grouping uses integer bucket *indices* (``ceil(t / tick)``) but
        each segment is pushed at its earliest member's raw time —
        quantization onto the grid happens exactly once, inside
        :class:`CalendarQueue`, so events are never bumped a second
        tick by re-quantizing an already-on-grid value.
        """
        if times.size == 0:
            return
        order = np.argsort(times, kind="stable")
        times = times[order]
        payload = tuple(column[order] for column in payload)
        if self.tick is None:
            keyed = times
        else:
            keyed = np.ceil(times / self.tick)
        boundaries = np.nonzero(np.diff(keyed))[0] + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [times.size]])
        for lo, hi in zip(starts, ends):
            self._queue.push(
                float(times[lo]),
                (kind, tuple(col[lo:hi] for col in payload)),
            )

    @staticmethod
    def _per_class(
        class_names: Sequence[str],
        overrides: Mapping[str, float],
        default: float,
    ) -> np.ndarray:
        return np.array(
            [float(overrides.get(name, default)) for name in class_names]
        )


def _merge_segments(segments: list) -> list:
    """Concatenate adjacent same-kind segments of one cohort.

    Segments pop in push order (the heap's seq order); merging only
    *adjacent* runs keeps that order — arrivals still precede
    same-instant solutions pushed later, and vice versa.
    """
    merged: list = []
    for kind, payload in segments:
        if merged and merged[-1][0] == kind:
            merged[-1] = (
                kind,
                tuple(
                    np.concatenate([a, b])
                    for a, b in zip(merged[-1][1], payload)
                ),
            )
        else:
            merged.append((kind, payload))
    return merged


def _walk_model_chain(model):
    """Yield ``model`` and each wrapped model, outermost first.

    The one traversal rule for model wrapper chains (``.base`` for
    feedback wrappers, ``.inner`` for caches), cycle-guarded.  Every
    chain inspection in this module goes through it so the rule cannot
    drift between them.
    """
    node, seen = model, set()
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        yield node
        node = getattr(node, "base", None) or getattr(node, "inner", None)


def _scoring_schema(model):
    """The feature schema of the model that actually scores.

    Transparent wrappers (score caches) declare no ``schema`` but may
    still be the node providing ``score_batch``, so schema and scorer
    must be resolved independently.
    """
    for node in _walk_model_chain(model):
        schema = getattr(node, "schema", None)
        if schema is not None:
            return schema
    from repro.reputation.features import DEFAULT_SCHEMA

    return DEFAULT_SCHEMA


def _innermost_batch_scorer(model):
    """Unwrap score-transparent wrappers down to a ``score_batch`` model.

    A :class:`~repro.reputation.caching.CachedModel` returns the same
    values as its base (the cache changes cost, not scores), so the
    array path scores through the base directly.  Stateful wrappers
    (behavioural feedback) advertise ``scoring_is_stateful`` and are
    rejected by the engine before this is ever called.
    """
    for node in _walk_model_chain(model):
        if hasattr(node, "score_batch"):
            return node
    raise TypeError(
        f"model {type(model).__name__} exposes no score_batch anywhere "
        "in its wrapper chain; use framework admission"
    )
