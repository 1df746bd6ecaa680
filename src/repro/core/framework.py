"""The adaptive issuer: the paper's core contribution, as a library.

:class:`AIPoWFramework` wires together the five components of Figure 1 of
the paper: the AI model, the policy, puzzle generation, (client-side)
puzzle solving, and puzzle verification.  The server-side flow is split
into two calls mirroring the two network round-trips:

1. :meth:`challenge` — steps (1)–(4): the request arrives, the AI model
   scores it, the policy maps the score to a difficulty, and an
   authenticated puzzle is issued.
2. :meth:`redeem` — steps (5)–(7): the client's solution is verified and,
   if valid, the resource is served.

:meth:`process` runs the whole exchange in-process with a supplied solver
and clock — the backbone of the examples and of the wall-clock benches.

Batch admission
---------------
Concurrent arrivals do not need to walk the pipeline one at a time:
:meth:`challenge_batch` scores a whole batch through the model's
vectorised path, maps all scores through the policy in one call, and
issues the puzzles through :meth:`PuzzleGenerator.generate_batch` —
while still producing one :class:`IssuerDecision`, one
:class:`~repro.pow.puzzle.Puzzle` and the same per-request events as the
scalar path.  The simulator drains same-timestep arrivals through this
path, and :meth:`process_batch` does the same for in-process exchanges.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Sequence

import numpy as np

from repro.core.config import FrameworkConfig
from repro.core.errors import PuzzleError, PuzzleExpiredError
from repro.core.events import EventBus, EventKind
from repro.core.interfaces import Policy, PuzzleSolver, ReputationModel
from repro.core.records import (
    ClientRequest,
    IssuerDecision,
    ResponseStatus,
    ServedResponse,
)
from repro.pow.generator import PuzzleGenerator
from repro.pow.puzzle import Puzzle, Solution
from repro.pow.verifier import PuzzleVerifier, ReplayCache
from repro.state import AdmissionStateStore, InMemoryStateStore

__all__ = ["AIPoWFramework", "Challenge"]


class Challenge:
    """An outstanding puzzle issued to one client.

    Bundles the :class:`IssuerDecision` (why the puzzle was this hard)
    with the :class:`Puzzle` itself so transports can relay both and the
    metrics layer can tie the eventual outcome back to the decision.
    """

    __slots__ = ("decision", "puzzle")

    def __init__(self, decision: IssuerDecision, puzzle: Puzzle) -> None:
        self.decision = decision
        self.puzzle = puzzle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Challenge(ip={self.decision.request.client_ip!r}, "
            f"score={self.decision.reputation_score:.2f}, "
            f"difficulty={self.decision.difficulty})"
        )


class AIPoWFramework:
    """The policy-driven, AI-assisted PoW server pipeline.

    Parameters
    ----------
    model:
        Reputation model implementing :class:`ReputationModel` (e.g.
        :class:`repro.reputation.dabr.DAbRModel`).
    policy:
        Score → difficulty mapping (e.g.
        :class:`repro.policies.linear.LinearPolicy`).
    config:
        Framework configuration; defaults are the calibrated paper setup.
    events:
        Optional :class:`EventBus` receiving one event per pipeline stage.
    rng:
        RNG used by randomized policies; defaults to a generator seeded
        from ``config.policy_seed`` for reproducibility.
    store:
        Admission state store for the framework's own mutable state
        (the verifier's replay cache); a private in-memory store is
        created when omitted.  Builders that want *every* stateful
        component behind one snapshot (feedback offsets, score cache,
        adaptive load) pass the same store into those components — see
        :class:`repro.core.spec.FrameworkSpec`.
    """

    def __init__(
        self,
        model: ReputationModel,
        policy: Policy,
        config: FrameworkConfig | None = None,
        *,
        events: EventBus | None = None,
        rng: random.Random | None = None,
        store: AdmissionStateStore | None = None,
    ) -> None:
        self.config = config or FrameworkConfig()
        self.model = model
        self.policy = policy
        self.events = events or EventBus()
        self.store = store if store is not None else InMemoryStateStore()
        self._rng = rng or random.Random(self.config.policy_seed)
        self._generator = PuzzleGenerator(self.config.pow)
        self._verifier = PuzzleVerifier(self.config.pow)
        self._replay = ReplayCache(store=self.store)
        #: The one writer of outcomes into admission state, set by
        #: ``FeedbackReputationModel.attach`` (None: nothing learns).
        self.feedback = None
        # Stateful policies (the load-adaptive wrapper, possibly nested
        # inside other wrappers) re-home their state into the
        # framework's store so snapshot()/restore() covers them even
        # when the policy was built by the registry or the DSL, which
        # know nothing about stores.  Namespaces are disambiguated in
        # walk order (outermost first) so nested wrappers keep
        # independent estimates — the order is construction-derived,
        # hence identical across workers building the same spec.
        node, seen = policy, set()
        used: set[str] = set()
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            binder = getattr(node, "bind_store", None)
            if callable(binder):
                base = getattr(node, "state_namespace", "policy-load")
                name, suffix = base, 2
                while name in used:
                    name = f"{base}#{suffix}"
                    suffix += 1
                used.add(name)
                binder(self.store, namespace=name)
            node = getattr(node, "inner", None)

    # ------------------------------------------------------------------
    # State layer
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe snapshot of the framework's admission state store."""
        return self.store.snapshot()

    def restore(self, snapshot: dict) -> None:
        """Restore the admission state store from :meth:`snapshot` output."""
        self.store.restore(snapshot)

    # ------------------------------------------------------------------
    # Server-side half 1: request -> puzzle
    # ------------------------------------------------------------------
    def challenge(self, request: ClientRequest, now: float | None = None) -> Challenge:
        """Score ``request`` and issue an appropriately hard puzzle.

        This is steps (1)–(4) of the paper's Figure 1.
        """
        now = time.time() if now is None else now
        self.events.emit(EventKind.REQUEST_RECEIVED, now, request=request)

        score = self.model.score_request(request)
        self.events.emit(EventKind.SCORED, now, request=request, score=score)

        raw_difficulty = self.policy.difficulty_for(score, self._rng)
        difficulty = self.config.clamp_difficulty(raw_difficulty)
        self.events.emit(
            EventKind.POLICY_APPLIED,
            now,
            request=request,
            score=score,
            difficulty=difficulty,
            policy=self.policy.name,
        )

        decision = IssuerDecision(
            request=request,
            reputation_score=score,
            difficulty=difficulty,
            policy_name=self.policy.name,
            model_name=self.model.name,
        )
        puzzle = self._generator.issue(request.client_ip, difficulty, now=now)
        self.events.emit(
            EventKind.PUZZLE_ISSUED, now, decision=decision, puzzle=puzzle
        )
        return Challenge(decision, puzzle)

    def challenge_batch(
        self,
        requests: Sequence[ClientRequest],
        now: float | Sequence[float] | None = None,
    ) -> list[Challenge]:
        """Score and issue puzzles for many requests in one pass.

        The batch equivalent of :meth:`challenge`: each request still
        gets its own :class:`IssuerDecision` and :class:`Challenge`, and
        the per-request scores, difficulties and puzzles are identical
        to running the scalar path request-by-request (randomized
        policies consume the framework RNG in request order, exactly
        like the equivalent loop).  What changes is the cost model —
        scoring runs through the model's vectorised batch path, the
        policy maps all scores at once, and puzzle issuance amortises
        its seed and HMAC setup.

        ``now`` may be one timestamp for the whole batch (the common
        same-timestep case) or one timestamp per request (used by the
        simulator when FIFO queueing staggers issue times within an
        arrival batch).

        Event ordering: the scalar path interleaves stages per request
        (``REQUEST_RECEIVED``, ``SCORED``, ... for request A, then for
        B); the batch path emits stage-major — every ``REQUEST_RECEIVED``
        first, then every ``SCORED``, and so on — preserving request
        order *within* each stage and stamping each event with its
        request's own timestamp.  Models/policies without batch support
        fall back to the scalar loop transparently.
        """
        requests = list(requests)
        if not requests:
            return []
        count = len(requests)
        if now is None:
            now = time.time()
        if isinstance(now, (int, float)):
            times = [float(now)] * count
        else:
            times = [float(t) for t in now]
            if len(times) != count:
                raise ValueError(
                    f"got {len(times)} timestamps for {count} requests"
                )

        events = self.events
        if events.has_subscribers(EventKind.REQUEST_RECEIVED):
            for request, at in zip(requests, times):
                events.emit(
                    EventKind.REQUEST_RECEIVED, at, request=request
                )

        scores = self._score_requests(requests)
        if events.has_subscribers(EventKind.SCORED):
            for request, at, score in zip(requests, times, scores):
                events.emit(
                    EventKind.SCORED, at, request=request, score=float(score)
                )

        difficulties = [int(d) for d in self.difficulties_for_scores(scores)]
        policy_name = self.policy.name
        if events.has_subscribers(EventKind.POLICY_APPLIED):
            for request, at, score, difficulty in zip(
                requests, times, scores, difficulties
            ):
                events.emit(
                    EventKind.POLICY_APPLIED,
                    at,
                    request=request,
                    score=float(score),
                    difficulty=difficulty,
                    policy=policy_name,
                )

        puzzles = self._generator.generate_batch(
            [request.client_ip for request in requests], difficulties, times
        )
        model_name = self.model.name
        score_values = [float(score) for score in scores]
        new = object.__new__
        set_field = object.__setattr__
        challenges: list[Challenge] = []
        for request, score, difficulty, puzzle in zip(
            requests, score_values, difficulties, puzzles
        ):
            # Trusted construction: the difficulty was clamped to a
            # non-negative range above, so IssuerDecision.__post_init__
            # has nothing left to reject — skipping it is measurable at
            # batch sizes in the thousands.
            decision = new(IssuerDecision)
            set_field(decision, "request", request)
            set_field(decision, "reputation_score", score)
            set_field(decision, "difficulty", difficulty)
            set_field(decision, "policy_name", policy_name)
            set_field(decision, "model_name", model_name)
            challenges.append(Challenge(decision, puzzle))

        if events.has_subscribers(EventKind.PUZZLE_ISSUED):
            for at, challenge in zip(times, challenges):
                events.emit(
                    EventKind.PUZZLE_ISSUED,
                    at,
                    decision=challenge.decision,
                    puzzle=challenge.puzzle,
                )
        return challenges

    def _score_requests(self, requests: Sequence[ClientRequest]) -> np.ndarray:
        """Model scores for a batch, vectorised when the model can.

        Uses the model's optional ``score_requests`` batch method (see
        :class:`~repro.core.interfaces.SupportsScoreBatch`); scalar-only
        models are looped.  Mirrors
        ``repro.reputation.base.model_score_requests`` deliberately:
        the core package depends only on the interfaces, never on the
        concrete reputation package, so the three-line dispatch is
        duplicated here rather than imported.
        """
        scorer = getattr(self.model, "score_requests", None)
        if scorer is not None:
            return np.asarray(scorer(requests), dtype=np.float64)
        return np.array(
            [self.model.score_request(request) for request in requests],
            dtype=np.float64,
        )

    def difficulties_for_scores(self, scores: np.ndarray) -> np.ndarray:
        """Clamped difficulties for a score vector — the decision core.

        The array-level admission kernel: policy mapping (vectorised
        when the policy supports it, RNG consumed in score order
        otherwise) followed by the config difficulty clamp, with no
        per-request object construction.  :meth:`challenge_batch` is
        built on it; the vectorized simulator calls it directly when
        nothing is subscribed to admission events, which is what makes
        million-agent campaigns affordable.
        """
        return np.clip(
            self._difficulties_for(scores),
            self.config.min_difficulty,
            self.config.pow.max_difficulty,
        ).astype(np.int64)

    def _difficulties_for(self, scores: np.ndarray) -> np.ndarray:
        """Policy difficulties for a score vector, vectorised when possible.

        Uses the policy's optional ``difficulty_batch`` (see
        :class:`~repro.core.interfaces.SupportsDifficultyBatch`);
        scalar-only policies are looped with the same RNG order.
        """
        batch = getattr(self.policy, "difficulty_batch", None)
        if batch is not None:
            return np.asarray(batch(scores, self._rng))
        return np.array(
            [
                self.policy.difficulty_for(float(score), self._rng)
                for score in scores
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Server-side half 2: solution -> resource
    # ------------------------------------------------------------------
    def redeem(
        self,
        challenge: Challenge,
        solution: Solution,
        now: float | None = None,
        *,
        request_sent_at: float | None = None,
    ) -> ServedResponse:
        """Verify ``solution`` and serve (or deny) the resource.

        This is steps (5)–(7) of the paper's Figure 1.  ``request_sent_at``
        lets the caller attribute end-to-end latency; when omitted, the
        original request timestamp is used.

        After the stateless check, two store calls whatever the outcome
        (plus one per eviction): the replay read set (when the digest
        passed) with the client's feedback entry, then the seed (when
        served) with the folded offset.  Neither reads and writes one
        key, so either is safe to re-send; outcome events follow both.
        """
        now = time.time() if now is None else now
        decision = challenge.decision
        puzzle = challenge.puzzle
        ip = decision.request.client_ip
        sent_at = (
            decision.request.timestamp
            if request_sent_at is None
            else request_sent_at
        )
        latency = max(0.0, now - sent_at)
        events = self.events
        if events.has_subscribers(EventKind.SOLUTION_RECEIVED):
            events.emit(EventKind.SOLUTION_RECEIVED, now,
                        decision=decision, solution=solution)

        status = None
        try:
            self._verifier.check(puzzle, solution, ip, now)
        except PuzzleExpiredError:
            status = ResponseStatus.EXPIRED
        except PuzzleError:
            status = ResponseStatus.REJECTED
        reads = self._replay.read_ops(puzzle.seed) if status is None else []
        checked = len(reads)
        feedback = self.feedback
        if feedback is not None:
            reads += feedback.read_ops(ip)
        results = self.store.execute(reads)
        writes = []
        if status is None:
            writes = self._replay.decide(results[:checked], puzzle.seed, now, ip)
            if writes is None:
                status, writes = ResponseStatus.REPLAYED, []
            else:
                status = ResponseStatus.SERVED
        recorded = len(writes)
        if feedback is not None:
            writes += feedback.fold(results[checked], status, ip, now)
        results = self.store.execute(writes)
        if feedback is not None:
            feedback.folded(ip, status, results[recorded:])

        served = status is ResponseStatus.SERVED
        if served:
            if events.has_subscribers(EventKind.SOLUTION_VERIFIED):
                events.emit(EventKind.SOLUTION_VERIFIED, now, decision=decision)
        elif events.has_subscribers(EventKind.SOLUTION_REJECTED):
            events.emit(
                EventKind.SOLUTION_REJECTED, now, decision=decision, status=status
            )
        response = ServedResponse(
            decision=decision,
            status=status,
            latency=latency,
            solve_attempts=solution.attempts,
            body=f"resource:{decision.request.resource}" if served else "",
        )
        if events.has_subscribers(EventKind.RESPONSE_SERVED):
            events.emit(EventKind.RESPONSE_SERVED, now, response=response)
        return response

    # ------------------------------------------------------------------
    # Whole exchange, in-process
    # ------------------------------------------------------------------
    def process(
        self,
        request: ClientRequest,
        solver: PuzzleSolver,
        clock: Callable[[], float] = time.time,
    ) -> ServedResponse:
        """Run the full challenge/solve/redeem exchange with ``solver``.

        Wall-clock timing comes from ``clock``; pass a fake clock in
        tests for determinism.  The request's own ``timestamp`` marks
        when the client sent it, so latency covers the whole exchange.
        """
        challenge = self.challenge(request, now=clock())
        solution = solver.solve(challenge.puzzle, request.client_ip)
        return self.redeem(
            challenge,
            solution,
            now=clock(),
            request_sent_at=request.timestamp,
        )

    def process_batch(
        self,
        requests: Sequence[ClientRequest],
        solver: PuzzleSolver,
        clock: Callable[[], float] = time.time,
    ) -> list[ServedResponse]:
        """Run full exchanges for many requests, batching the admission.

        Challenges are issued through :meth:`challenge_batch`; solving
        and :meth:`redeem` run per solution in request order — only the
        hash is inherently per-solution, not the state ops or events.
        """
        challenges = self.challenge_batch(requests, now=clock())
        responses: list[ServedResponse] = []
        for request, challenge in zip(requests, challenges):
            solution = solver.solve(challenge.puzzle, request.client_ip)
            responses.append(
                self.redeem(
                    challenge,
                    solution,
                    now=clock(),
                    request_sent_at=request.timestamp,
                )
            )
        return responses

    def deny(
        self,
        challenge: Challenge,
        status: ResponseStatus,
        now: float,
        *,
        attempts: int = 0,
    ) -> ServedResponse:
        """Record a terminal non-served outcome (abandonment, timeout).

        Used by the simulator when a client never returns a solution.
        """
        if status is ResponseStatus.SERVED:
            raise ValueError("deny() cannot produce a SERVED response")
        latency = max(0.0, now - challenge.decision.request.timestamp)
        response = ServedResponse(
            decision=challenge.decision,
            status=status,
            latency=latency,
            solve_attempts=attempts,
        )
        return self.settle(response, now)

    def settle(self, response: ServedResponse, now: float) -> ServedResponse:
        """Fold an outcome decided outside :meth:`redeem`, then announce it.

        Feedback learns it before ``RESPONSE_SERVED`` goes out, so
        subscribers only observe; the simulators settle through here.
        """
        if self.feedback is not None:
            self.feedback.observe(response, now=now)
        if self.events.has_subscribers(EventKind.RESPONSE_SERVED):
            self.events.emit(EventKind.RESPONSE_SERVED, now, response=response)
        return response
