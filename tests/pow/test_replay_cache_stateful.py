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
from tests.reputation.test_feedback import offset_for

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

    A seed is fresh when it is absent or its entry is stale; a fresh
    seed is (re)recorded at the back.  Then heads are evicted while
    they are stale or the table is over the cap, stopping at the seed
    itself.  :class:`ReplayCache` reads the size and the head and
    claims the seed in one store call so a networked store answers in
    one frame; this is the order of effects it must keep.
    """

    def __init__(self, ttl: float, max_entries: int) -> None:
        self.ttl, self.max_entries = ttl, max_entries
        self.seen: dict[str, list] = {}

    def check_and_add(self, seed: str, now: float, owner=None) -> bool:
        entry = self.seen.get(seed)
        fresh = entry is None or entry[0] < now - self.ttl
        if fresh:
            self.seen.pop(seed, None)
            self.seen[seed] = [now, owner]
        while self.seen:
            head = next(iter(self.seen))
            if head == seed or (
                self.seen[head][0] >= now - self.ttl
                and len(self.seen) <= self.max_entries
            ):
                break
            del self.seen[head]
        return fresh


class _EvictFirstReplayCache(_ScalarReplayCache):
    """The rule before the claim: evict (stale, or *at* the cap), then
    look the seed up.  At the cap it evicts before a replay is seen, so
    a replay of the oldest seed was served again."""

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


def _untokened(table) -> list:
    """``[seed, [redeemed_at, owner]]`` pairs: the claim token masked."""
    return [[seed, list(entry[:2])] for seed, entry in table.items()]


_STEPS = st.lists(
    st.tuples(
        st.sampled_from([f"seed-{i}" for i in range(6)]),
        st.floats(min_value=0.0, max_value=70.0),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(steps=_STEPS, cap=st.integers(min_value=1, max_value=4))
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
        assert _untokened(cache._seen) == _untokened(reference.seen)


@settings(max_examples=100, deadline=None)
@given(steps=_STEPS)
def test_below_the_cap_the_claim_decides_as_evict_first_did(steps):
    """The claim's one decision change is at the cap: below it, the
    verdicts and the table are the evict-first rule's."""
    cache = ReplayCache(ttl=TTL, max_entries=7)  # six seeds never fill it
    reference = _EvictFirstReplayCache(ttl=TTL, max_entries=7)
    now = 0.0
    for seed, delta in steps:
        now += delta
        assert cache.check_and_add(seed, now, owner="ip") == (
            reference.check_and_add(seed, now, owner="ip")
        ), (seed, now)
        assert _untokened(cache._seen) == _untokened(reference.seen)


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
                offset_for(framework.feedback, ip, now=now)
                for framework in frameworks
            ]
            assert offsets[0] == offsets[1], (kind, now)
            local, wired = (
                framework.store.namespace("feedback").dump()
                for framework in frameworks
            )
            assert wired == local, ("feedback", kind, now)
            local, wired = (
                _untokened(framework.store.namespace("replay"))
                for framework in frameworks
            )
            assert wired == local, ("replay", kind, now)
    finally:
        remote.close()
