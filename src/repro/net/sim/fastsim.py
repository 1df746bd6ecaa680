"""The simulation engine: SoA agent state, cohort event dispatch.

Every experiment runs here.  The model is the paper's client-server
environment (DESIGN.md §2):

* **network** — each leg of the request/challenge/solution/response
  exchange crosses a :class:`~repro.net.sim.channel.Channel`, plus an
  optional per-agent access link (:class:`~repro.net.sim.links.LinkSet`);
* **server** — one FIFO queue with distinct costs for issuing a
  challenge, verifying a solution and serving the resource
  (:class:`ServerModel`); issuing and verifying are cheap, serving is
  the expensive step PoW protects;
* **client CPU** — per-address serialisation: a client grinding one
  puzzle cannot grind another, which is how PoW throttles flooding
  sources; clients abandon puzzles past their patience, and per-profile
  *solve deciders* let attack models refuse puzzles outright;
* **solving** — vectorised geometric attempt sampling (the numpy
  counterpart of :func:`repro.pow.solver.sample_attempts`).

It is expressed over arrays rather than one Python callback per
event:

* **state** is struct-of-arrays (:class:`~repro.net.sim.agents.AgentPopulation`
  plus per-run vectors: per-address CPU-free times, per-fire solve
  finish times, pending puzzle difficulties);
* **scheduling** is a bucketed calendar queue
  (:class:`~repro.net.sim.calendar.CalendarQueue`) that dequeues whole
  same-timestep *cohorts* instead of single events;
* **admission** drives each cohort through the framework's batch
  pipeline — :meth:`~repro.core.framework.AIPoWFramework.challenge_batch`
  when anything (a recorder, a tracer, a timeline) listens on the
  event bus, or the object-free
  :meth:`~repro.core.framework.AIPoWFramework.difficulties_for_scores`
  array kernel when nothing does.  Under framework admission, a
  ``RESPONSE_SERVED`` subscriber also gets every terminal outcome,
  settled through :meth:`~repro.core.framework.AIPoWFramework.deny` /
  :meth:`~repro.core.framework.AIPoWFramework.settle` at its
  completion time.  Models whose scores react to response outcomes
  (behavioural feedback) are rejected loudly: feedback at scale is
  :class:`FastFeedback` in agent-driven runs.

No per-request Python closure exists on the hot path: one cohort loop
(:meth:`FastSimulation.step`) dispatches every event kind through a
handler table over one run-state struct (DESIGN.md §1.5).

Fidelity contract
-----------------
A callback reference engine — one closure per event over a binary heap
— lives in the test suite (``tests/oracle``).  Admission **decision
streams** (request order, scores, difficulties — everything
:meth:`~repro.core.records.DecisionRecord.canonical` compares) are
bit-identical to it on the same workload; the parity matrix in
``tests/replay/test_fastsim_parity.py`` gates this on every
golden-trace scenario.  *Timing* randomness (channel jitter, solve
draws) comes from a numpy generator rather than ``random.Random``, so
latency samples are deterministic per seed but drawn in a different
stream than the oracle's — metrics agree statistically, not bit for
bit.  One corollary: a load-adaptive policy's decisions are a function
of queue timing, so under solving traffic they inherit the timing
stream's seed-sensitivity (two runs with different seeds diverge the
same way); the engines still interleave load observations with
decisions identically, which the parity suite pins down with
deterministic-timing workloads.

With ``tick`` set, event times are quantized up onto a grid, merging
near-simultaneous events into large cohorts — the knob the
million-agent scenarios use.  ``tick=None`` keeps exact times (cohorts
form only at genuinely equal instants).
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from typing import Mapping, Sequence

import numpy as np

from repro.core.events import EventKind
from repro.core.framework import AIPoWFramework
from repro.core.interfaces import batch_scores
from repro.core.records import ResponseStatus, ServedResponse
from repro.metrics.collector import MetricsCollector
from repro.net.sim import kernels
from repro.net.sim.agents import AgentPopulation
from repro.net.sim.calendar import CalendarQueue
from repro.net.sim.channel import Channel, FixedDelayChannel
from repro.net.sim.links import LinkSet, LinkStats
from repro.policies.adaptive import LoadAdaptivePolicy
from repro.reputation.base import model_chain
from repro.traffic.generator import SimClientSpec

__all__ = [
    "FastSimulation",
    "FastFeedback",
    "ServerModel",
    "SimulationReport",
    "SessionSpec",
    "ClosedLoopReport",
    "sample_attempts_array",
    "collector_from_buffers",
]


@dataclasses.dataclass(frozen=True, slots=True)
class ServerModel:
    """Server-side work costs, in seconds of FIFO service time.

    ``challenge_cost`` covers scoring, policy lookup and puzzle
    generation; ``verify_cost`` the lightweight solution check;
    ``resource_cost`` the actual work of serving the requested resource
    — the expensive step a DDoS tries to trigger en masse.
    """

    challenge_cost: float = 0.0002
    verify_cost: float = 0.0001
    resource_cost: float = 0.002

    def __post_init__(self) -> None:
        for field in ("challenge_cost", "verify_cost", "resource_cost"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")


@dataclasses.dataclass
class SimulationReport:
    """Outcome of one open-loop run.

    ``link_stats`` carries the network-layer outcome counters of a
    link-enabled run (:class:`~repro.net.sim.links.LinkStats`) and is
    ``None`` on ideal-network runs.  Requests the network swallowed
    before admission appear only there — they never reach the metrics.
    """

    metrics: MetricsCollector
    duration: float
    requests: int
    events_processed: int
    link_stats: LinkStats | None = None

    @property
    def served(self) -> int:
        return self.metrics.overall.served


@dataclasses.dataclass(frozen=True, slots=True)
class SessionSpec:
    """One closed-loop client session.

    Open-loop traces arrive on a fixed schedule whatever the server
    does; a session waits for each response, thinks, then asks again,
    so PoW-induced latency *reduces its own offered load*.

    Parameters
    ----------
    client:
        The concrete client (address, features, profile).
    exchanges:
        Number of request/response cycles the session attempts.
    think_time:
        Mean seconds between receiving a response and the next request
        (exponentially distributed).
    start:
        Session start time.
    """

    client: SimClientSpec
    exchanges: int = 10
    think_time: float = 1.0
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.exchanges < 1:
            raise ValueError(f"exchanges must be >= 1, got {self.exchanges}")
        if self.think_time < 0:
            raise ValueError(f"think_time must be >= 0, got {self.think_time}")
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")


@dataclasses.dataclass
class ClosedLoopReport:
    """Outcome of a closed-loop run."""

    metrics: MetricsCollector
    duration: float
    sessions: int
    completed_exchanges: int

    @property
    def throughput(self) -> float:
        """Served exchanges per second of simulated time."""
        served = self.metrics.overall.served
        return served / self.duration if self.duration > 0 else 0.0

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
            status = _STATUS_CODES.index(status)
        # One unique over (class, status) pairs, in class-major order.
        codes = len(_STATUS_CODES)
        pairs = class_ids.astype(np.int64) * codes + status
        for pair in np.unique(pairs).tolist():
            mask = pairs == pair
            cid, code = divmod(pair, codes)
            self._chunks.setdefault((class_names[cid], code), []).append(
                (latency[mask], scores[mask], difficulties[mask], attempts[mask])
            )

    def fill(self, collector: MetricsCollector) -> MetricsCollector:
        """Bulk-fill a :class:`MetricsCollector`, emptying the buffers.

        Chunks are concatenated per (class, status) first so each
        accumulator sees a handful of large arrays instead of one call
        per cohort — at a million outcomes the difference is the whole
        report cost.  The fill streams: each chunk list is popped as its
        class folds and moves to its status's overall part, which is
        dropped once folded, and a fold joins one column at a time, so
        above the buffers it holds the retained samples and one column.
        """
        overall: dict[int, list[tuple]] = {}
        for key in list(self._chunks):
            chunks = self._chunks.pop(key)
            self._fill_one(collector.for_class(key[0]), key[1], chunks)
            overall.setdefault(key[1], []).extend(chunks)
        for code in list(overall):
            self._fill_one(collector.overall, code, overall.pop(code))
        return collector

    @staticmethod
    def _fill_one(metrics, code: int, chunks: list[tuple]) -> None:
        def column(j: int) -> np.ndarray:
            return np.concatenate([chunk[j] for chunk in chunks])

        status = _STATUS_CODES[code]
        latency = column(0)
        metrics.outcomes[status] += int(latency.size)
        metrics.latencies.extend_array(latency)
        if status is ResponseStatus.SERVED:
            metrics.served_latencies.extend_array(latency)
        del latency
        metrics.scores.add_array(column(1))
        metrics.difficulties.add_array(column(2))
        metrics.attempts.add_array(column(3))


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
    (sampled solutions always verify), so only the *reward* direction
    moves: this is exactly the surface a feedback-poisoning adversary
    farms, and what the ``poison-ramp`` scenario measures.
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
    arguments) is what lets :meth:`~FastSimulation.step` advance a run
    in bounded time windows.

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
    #: Each row's challenge in flight, kept only when terminal outcomes
    #: are settled on the framework's bus (see :meth:`FastSimulation._settle`).
    challenges: list | None = None
    # Closed loop only.
    think: np.ndarray | None = None
    remaining: np.ndarray | None = None
    completed: int = 0


class FastSimulation:
    """Cohort-vectorized simulation over the calendar-queue scheduler.

    Drives three workload shapes through one engine:

    * :meth:`run` — an open-loop :class:`~repro.traffic.trace.Trace`;
    * :meth:`run_fires` — a SoA fire schedule over an
      :class:`AgentPopulation` (the million-agent path: no request
      objects anywhere);
    * :meth:`run_sessions` — closed-loop :class:`SessionSpec` sessions.

    All three build one :class:`_RunState` (``self._open``) and drain
    the calendar queue through the one cohort loop, :meth:`step`, which
    looks each event kind up in a ``{kind: handler}`` table and calls
    ``handler(when, payload)``; handlers read the run state instead of
    receiving it.  Three helpers carry what the handlers share:
    :meth:`_admit` (score + decide one arrival cohort),
    :meth:`_terminal` (record one terminal-outcome cohort) and
    :meth:`_cross` (one uplink crossing per transmission queue).

    ``framework`` is the configured server pipeline (its
    :attr:`~repro.core.config.FrameworkConfig.timing` sets the default
    hash rate and channel delay); ``channel`` the one-way delay model;
    ``server_model`` the FIFO costs; ``seed`` seeds every draw the run
    makes; ``pow_enabled=False`` serves every request directly (the
    no-defence baseline); ``solve_deciders`` / ``hash_rates`` /
    ``patiences`` are per-profile overrides (a decider returning False
    refuses the puzzle, counted ABANDONED; patience defaults to 30 s);
    ``load_reference`` is the backlog in seconds that counts as load
    1.0 for a :class:`~repro.policies.adaptive.LoadAdaptivePolicy`;
    ``recorder`` a :class:`~repro.replay.TraceRecorder` attached to the
    framework's bus; ``links`` per-population access links.  The
    engine knobs are ``tick`` (cohort quantization grid, ``None`` for
    exact times) and ``phase_timer`` (an optional
    :class:`~repro.obs.registry.PhaseTimer` accumulating wall time,
    cohort counts and item counts per event kind — ``arrive``,
    ``xmit``, ``xmitsol``, ``solve``, plus the nested ``fifo``
    sub-phase; ``None`` keeps the hot loop to a single no-op check
    per cohort) and ``decision_log`` (when True, every admission cohort
    appends ``(when, idx, scores, difficulties)`` to :attr:`decisions`
    — the bitwise decision-stream probe equivalence checks compare;
    off by default, zero hot-path cost).
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
        links: LinkSet | None = None,
        phase_timer=None,
        decision_log: bool = False,
    ) -> None:
        if load_reference <= 0:
            raise ValueError(
                f"load_reference must be > 0, got {load_reference}"
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
        #: Batching telemetry: admission cohorts and the largest one.
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
        # the framework settles, and this engine folds outcomes into
        # arrays — scoring every request at admission, before any
        # earlier outcome could move it — so reject loudly.
        if self._stateful_scoring():
            raise ValueError(
                "the model's scores react to response outcomes, which "
                "this engine does not feed back into scoring; model "
                "feedback at scale with ScaleSpec.feedback / "
                "FastFeedback in an agent-driven run (framework-side "
                "feedback at scale is ROADMAP item 7(b))"
            )
        events = self.framework.events
        listened = any(
            events.has_subscribers(kind)
            for kind in (
                EventKind.REQUEST_RECEIVED,
                EventKind.SCORED,
                EventKind.POLICY_APPLIED,
                EventKind.PUZZLE_ISSUED,
                EventKind.RESPONSE_SERVED,
            )
        )
        return "framework" if listened else "array"

    def _settled(self, requests_of, rows: int) -> list | None:
        """Per-row challenge slots when terminal outcomes go on the bus.

        Only framework admission (``requests_of`` set) has challenges
        to settle, and only a ``RESPONSE_SERVED`` subscriber would see
        them.
        """
        if requests_of is not None and self.framework.events.has_subscribers(
            EventKind.RESPONSE_SERVED
        ):
            return [None] * rows
        return None

    def _stateful_scoring(self) -> bool:
        """True when any model in the wrapper chain drifts mid-run.

        A stateful scorer (behavioural feedback) may sit *inside* a
        transparent wrapper (a score cache), and pre-scoring agents
        once would then silently ignore its mid-run offset changes.
        """
        return any(
            getattr(node, "scoring_is_stateful", False)
            for node in model_chain(self.framework.model)
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

        Vectorised form of the scalar FIFO recurrence: every item
        starts at ``max(arrival, busy)`` and the backlog only ever
        grows within a same-instant cohort.  In open-loop runs it
        feeds the backlog signal to a load-adaptive policy exactly
        once per request (the closed-loop server model has no load
        signal, so closed-loop runs skip it).

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
        ordered = np.sort(agents)
        if not (ordered[1:] == ordered[:-1]).any():
            cpu_free[agents] = release
            return solve_end, abandoned
        _, inverse, counts = np.unique(
            agents, return_inverse=True, return_counts=True
        )
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
            if st.challenges is not None:
                for i, challenge in zip(idx.tolist(), challenges):
                    st.challenges[i] = challenge
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
        ts[idx]`` (and on the framework's bus, when the run settles
        outcomes).  ``redeemed_at`` is set by the solution handler
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
        if st.challenges is not None:
            self._settle(idx, finish, status, attempts)
        if redeemed_at is not None and st.feedback is not None:
            st.feedback.observe_served(
                st.agent_ids[idx][status == _SERVED], redeemed_at
            )
        return idx, finish

    def _settle(
        self,
        idx: np.ndarray,
        finish: np.ndarray,
        status: ResponseStatus | np.ndarray,
        attempts: np.ndarray,
    ) -> None:
        """Announce one terminal cohort through the framework, per request.

        A served exchange goes through
        :meth:`~repro.core.framework.AIPoWFramework.settle`, anything
        else through :meth:`~repro.core.framework.AIPoWFramework.deny`,
        each stamped with its completion time — what a tracer closes
        its spans on and a timeline buckets by.  Cohorts settle as the
        engine computes them, so announcements are not in completion
        order.
        """
        framework = self.framework
        challenges = self._open.challenges
        if isinstance(status, ResponseStatus):
            statuses = [status] * int(idx.size)
        else:
            statuses = [_STATUS_CODES[code] for code in status.tolist()]
        for i, at, outcome, tries in zip(
            idx.tolist(), finish.tolist(), statuses, attempts.tolist()
        ):
            challenge = challenges[i]
            if outcome is not ResponseStatus.SERVED:
                framework.deny(challenge, outcome, at, attempts=int(tries))
                continue
            request = challenge.decision.request
            framework.settle(
                ServedResponse(
                    decision=challenge.decision,
                    status=outcome,
                    latency=max(0.0, at - request.timestamp),
                    solve_attempts=int(tries),
                    body=f"resource:{request.resource}",
                ),
                at,
            )

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
        for cid, name in enumerate(class_names):
            decider = self.solve_deciders.get(name)
            if decider is None:
                continue
            mask = class_ids == cid
            if mask.any():
                solve[mask] = decide_batch(decider, difficulties[mask])
        return solve

    # ------------------------------------------------------------------
    # Open-loop: traces and fire schedules
    # ------------------------------------------------------------------
    def run(self, trace, until: float | None = None) -> SimulationReport:
        """Replay an open-loop trace to completion (or ``until``)."""
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
            scores = batch_scores(
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
    # Stepped execution
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
            challenges=self._settled(requests_of, int(ts.size)),
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
        horizon = float("inf") if until is None else until
        limit = horizon if bound is None else min(bound, horizon)
        timer = self.phase_timer
        for when, segments in self._queue.drain_until(limit):
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
        peek = self._queue.peek_time()
        return peek is not None and peek <= horizon

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
        failed, retry_at, retry, can_retry)``: what crossed (a slice or
        positions into ``idx``) and its server-side arrival times, then
        the positions that did not — lost + tail-dropped, in original
        crossing order (a same-instant retry cohort re-enters the queue
        in the order the callback engine would process it) — with
        their next attempt time and number, and whether ``max_retries``
        still allows one (the last three are ``None`` when nothing
        failed).  What to do with a crossing that succeeded, and when
        to give up, is the leg's.

        A cohort on one queue — every cohort, when the run has only
        one — is computed on its columns as they are, without
        splitting it by queue.
        """
        st = self._open
        session = self._link_session
        stats = session.stats
        self.events_processed += int(idx.size)
        stats.crossings += int(idx.size)
        groups = ((0, None),)  # (queue id, positions into idx; None = all)
        if self.links.queue_count() > 1:
            qids = st.link_qids[idx]
            if (qids == qids[0]).all():
                groups = ((int(qids[0]), None),)
            else:
                groups = (
                    (int(qid), (qids == qid).nonzero()[0])
                    for qid in np.unique(qids)
                )
        for qid, pos in groups:
            profile = self.links.profile_of_queue(qid)
            q_idx = idx if pos is None else idx[pos]
            size = int(q_idx.size)
            n_lost = 0
            if profile.loss_rate > 0.0:
                q_att = attempt if pos is None else attempt[pos]
                lost = self.links.crossing_lost(q_idx, q_att, leg, profile.loss_rate)
                n_lost = int(np.count_nonzero(lost))
            stats.lost += n_lost
            exits, accepted = session.cross(qid, when, size - n_lost)
            stats.queue_dropped += size - n_lost - accepted
            if n_lost == 0:
                deliv = slice(0, accepted)
                failed = np.arange(accepted, size)
            else:
                surv = (~lost).nonzero()[0]
                deliv = surv[:accepted]
                lost[surv[accepted:]] = True  # + the tail-drop suffix
                failed = lost.nonzero()[0]
            if pos is not None:
                deliv, failed = pos[deliv], pos[failed]
            if accepted:
                exits = exits + self._base(idx[deliv]) + self._delays(accepted)
            if not failed.size:
                yield deliv, exits, failed, None, None, None
                continue
            f_att = attempt[failed]
            retry_at = when + profile.backoff * 2.0 ** (f_att - 1.0)
            yield deliv, exits, failed, retry_at, f_att + 1, f_att < 1 + profile.max_retries

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
        for deliv, arrive, failed, retry_at, retry, can in self._cross(
            when, idx, attempt, leg=0
        ):
            if arrive.size:
                self._push_grouped(arrive, "arrive", (idx[deliv],))
            if not failed.size:
                continue
            f_idx = idx[failed]
            can &= (retry_at - st.ts[f_idx]) <= st.patience[
                st.class_ids[f_idx]
            ]
            n_can = int(np.count_nonzero(can))
            stats.retries += n_can
            stats.request_give_ups += int(failed.size) - n_can
            if n_can < failed.size:
                retry_at, f_idx, retry = retry_at[can], f_idx[can], retry[can]
            self._push_grouped(retry_at, "xmit", (f_idx, retry))

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
        for deliv, arrive, failed, retry_at, retry, can in self._cross(
            when, idx, attempt, leg=1
        ):
            if arrive.size:
                self._push_grouped(
                    arrive, "solve", tuple(col[deliv] for col in solution)
                )
            if not failed.size:
                continue
            n_can = int(np.count_nonzero(can))
            stats.retries += n_can
            if n_can < failed.size:
                give_up = failed[~can]
                stats.solution_give_ups += int(give_up.size)
                self._terminal(
                    idx[give_up],
                    np.full(give_up.size, when),
                    ResponseStatus.ABANDONED,
                    scores[give_up],
                    difficulties[give_up],
                    attempts[give_up],
                )
                failed, retry_at, retry = failed[can], retry_at[can], retry[can]
            self._push_grouped(
                retry_at,
                "xmitsol",
                tuple(col[failed] for col in solution) + (retry,),
            )

    # ------------------------------------------------------------------
    # Closed loop
    # ------------------------------------------------------------------
    def run_sessions(
        self, sessions: Sequence[SessionSpec], until: float | None = None
    ) -> ClosedLoopReport:
        """Drive closed-loop sessions: request, solve, response, think, again.

        A fire-schedule mode of the same engine: the sessions' first
        exchanges are pushed as ``cl_arrive`` cohorts, two more handlers
        are registered for this run, and :meth:`step` drains them; a
        terminal outcome re-fires its session (:meth:`_finish_sessions`).
        """
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

        # The closed-loop server model has no load signal.
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
            challenges=self._settled(requests_of, m),
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
        tick by re-quantizing an already-on-grid value.  Columns are
        stable-sorted by time first; already-sorted times skip the
        sort, and a sorted group inside one bucket is pushed as the
        one segment it is, columns untouched.
        """
        if times.size == 0:
            return
        if times.size > 1 and not (times[1:] >= times[:-1]).all():
            order = times.argsort(kind="stable")
            times = times[order]
            payload = tuple(column[order] for column in payload)
        tick = self.tick
        first, last = float(times[0]), float(times[-1])
        if first == last or tick and math.ceil(first / tick) == math.ceil(last / tick):
            self._queue.push(first, (kind, payload))
            return
        keyed = times if tick is None else np.ceil(times / tick)
        cuts = [0, *((keyed[1:] != keyed[:-1]).nonzero()[0] + 1).tolist(), times.size]
        for lo, hi in zip(cuts, cuts[1:]):
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
    same-instant solutions pushed later, and vice versa.  Each run is
    concatenated once per column.
    """
    runs: list = []
    for kind, payload in segments:
        if runs and runs[-1][0] == kind:
            runs[-1][1].append(payload)
        else:
            runs.append((kind, [payload]))
    return [
        (kind, parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts))))
        for kind, parts in runs
    ]


def _scoring_schema(model):
    """The feature schema of the model that actually scores.

    Transparent wrappers (score caches) declare no ``schema`` but may
    still be the node providing ``score_batch``, so schema and scorer
    must be resolved independently.
    """
    for node in model_chain(model):
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
    for node in model_chain(model):
        if hasattr(node, "score_batch"):
            return node
    raise TypeError(
        f"model {type(model).__name__} exposes no score_batch anywhere "
        "in its wrapper chain; use framework admission"
    )
