"""Stateful property tests of the replay cache.

Hypothesis drives random interleavings of redemptions and clock
advances against a simple reference model, checking the cache's one
guarantee: within the TTL, a seed is accepted at most once — and drives
whole redemptions through the framework over an in-memory and a
networked store, which must agree step for step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.errors import SolutionInvalidError
from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.policies.linear import policy_1
from repro.pow.puzzle import Solution
from repro.pow.solver import HashSolver
from repro.pow.verifier import PuzzleVerifier, ReplayCache
from repro.reputation.ensemble import ConstantModel
from repro.reputation.feedback import FeedbackConfig, FeedbackReputationModel
from repro.state import InMemoryStateStore, RemoteStateStore, StateServer

TTL = 100.0


class ReplayCacheMachine(RuleBasedStateMachine):
    """Model: dict seed -> last accepted time; cache must agree."""

    @initialize()
    def setup(self) -> None:
        self.cache = ReplayCache(ttl=TTL, max_entries=1000)
        self.now = 0.0
        self.accepted_at: dict[str, float] = {}

    @rule(seed=st.sampled_from([f"seed-{i}" for i in range(8)]))
    def redeem(self, seed: str) -> None:
        accepted = self.cache.check_and_add(seed, self.now)
        last = self.accepted_at.get(seed)
        if last is not None and self.now - last <= TTL:
            # A live entry must be refused...
            assert not accepted, (
                f"{seed} replayed at {self.now} (accepted at {last})"
            )
        if accepted:
            self.accepted_at[seed] = self.now

    @rule(delta=st.floats(min_value=0.1, max_value=60.0))
    def advance_clock(self, delta: float) -> None:
        self.now += delta

    @invariant()
    def cache_never_over_capacity(self) -> None:
        assert len(self.cache) <= 1000


TestReplayCacheStateful = ReplayCacheMachine.TestCase
TestReplayCacheStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class _ScalarReplayCache:
    """The rule written one step at a time — what the cache must equal.

    Evict from the front while the head is stale or the table is at the
    cap, *then* look the seed up and record it.  :class:`ReplayCache`
    reads the size, the head and the verdict in one store call so a
    networked store answers in one frame; this is the order of effects
    it must keep.
    """

    def __init__(self, ttl: float, max_entries: int) -> None:
        self.ttl, self.max_entries = ttl, max_entries
        self.seen: dict[str, list] = {}

    def check_and_add(self, seed: str, now: float, owner=None) -> bool:
        while self.seen:
            head = next(iter(self.seen))
            if (
                self.seen[head][0] >= now - self.ttl
                and len(self.seen) < self.max_entries
            ):
                break
            del self.seen[head]
        if seed in self.seen:
            return False
        self.seen[seed] = [now, owner]
        return True


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from([f"seed-{i}" for i in range(6)]),
            st.floats(min_value=0.0, max_value=70.0),
        ),
        max_size=40,
    ),
    cap=st.integers(min_value=1, max_value=4),
)
def test_read_set_form_equals_the_step_by_step_rule(steps, cap):
    """Same verdicts, same table, same order — TTL and cap both firing."""
    cache = ReplayCache(ttl=TTL, max_entries=cap)
    reference = _ScalarReplayCache(ttl=TTL, max_entries=cap)
    now = 0.0
    for seed, delta in steps:
        now += delta
        assert cache.check_and_add(seed, now, owner="ip") == (
            reference.check_and_add(seed, now, owner="ip")
        ), (seed, now)
        assert list(cache._seen.items()) == list(reference.seen.items())


@pytest.fixture(scope="module")
def state_server():
    with StateServer() as server:
        yield server


def _framework(store) -> AIPoWFramework:
    # A small feedback cap, so the table's eviction runs too.
    model = FeedbackReputationModel(
        ConstantModel(1.0), FeedbackConfig(half_life=50.0),
        max_tracked_ips=3, store=store,
    )
    framework = AIPoWFramework(model, policy_1(), store=store)
    model.attach(framework)
    return framework


def _digest_miss(framework: AIPoWFramework, challenge) -> Solution:
    checker = PuzzleVerifier(framework.config.pow)
    ip = challenge.decision.request.client_ip
    for nonce in range(1 << 16):
        candidate = Solution(puzzle_seed=challenge.puzzle.seed, nonce=nonce)
        try:
            checker.check(challenge.puzzle, candidate, ip, now=0.0)
        except SolutionInvalidError:
            return candidate
    raise AssertionError("no missing nonce found")


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(["honest", "bogus", "replayed", "expired"]),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.0, max_value=200.0),
        ),
        max_size=20,
    )
)
def test_redemptions_agree_across_in_memory_and_remote_stores(
    state_server, steps
):
    """Same statuses, offsets and replay table through either store."""
    remote = RemoteStateStore(state_server.address)
    remote.clear()
    try:
        frameworks = [_framework(InMemoryStateStore()), _framework(remote)]
        issuer = frameworks[0]
        solver = HashSolver()
        redeemed: list[tuple] = []
        now = 0.0
        for kind, client, delta in steps:
            now += delta
            ip = f"203.0.113.{client + 1}"
            if kind == "replayed" and redeemed:
                challenge, solution = redeemed[client % len(redeemed)]
                ip = challenge.decision.request.client_ip
            else:
                request = ClientRequest(
                    client_ip=ip, resource="/r", timestamp=now, features={}
                )
                challenge = issuer.challenge(request, now=now)
                if kind == "bogus":
                    solution = _digest_miss(issuer, challenge)
                else:
                    solution = solver.solve(challenge.puzzle, ip)
                    redeemed.append((challenge, solution))
            if kind == "expired":
                now += issuer.config.pow.ttl + 1.0
            statuses = [
                framework.redeem(challenge, solution, now=now).status
                for framework in frameworks
            ]
            assert statuses[0] is statuses[1], (kind, now)
            offsets = [
                framework.feedback.offset_for(ip, now=now)
                for framework in frameworks
            ]
            assert offsets[0] == offsets[1], (kind, now)
            for name in ("replay", "feedback"):
                local, wired = (
                    framework.store.namespace(name).dump()
                    for framework in frameworks
                )
                assert wired == local, (name, kind, now)
    finally:
        remote.close()
