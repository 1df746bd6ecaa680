"""Tests for the per-IP score cache."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import ClientRequest
from repro.reputation.caching import CachedModel
from repro.reputation.ensemble import ConstantModel
from repro.state import InMemoryStateStore


class CountingModel:
    """Counts score_request calls; returns a configurable value."""

    name = "counting"

    def __init__(self, value: float = 4.0):
        self.value = value
        self.calls = 0

    def score(self, features):
        return self.value

    def score_request(self, request):
        self.calls += 1
        return self.value


def request_at(t: float, ip: str = "23.7.7.7") -> ClientRequest:
    return ClientRequest(
        client_ip=ip, resource="/r", timestamp=t, features={}
    )


class TestCachedModel:
    def test_second_lookup_hits_cache(self):
        inner = CountingModel()
        cached = CachedModel(inner, ttl=100.0)
        assert cached.score_request(request_at(0.0)) == 4.0
        assert cached.score_request(request_at(1.0)) == 4.0
        assert inner.calls == 1
        assert cached.hits == 1
        assert cached.misses == 1
        assert cached.hit_rate == 0.5

    def test_ttl_expiry_recomputes(self):
        inner = CountingModel()
        cached = CachedModel(inner, ttl=10.0)
        cached.score_request(request_at(0.0))
        cached.score_request(request_at(11.0))
        assert inner.calls == 2

    def test_value_change_visible_after_expiry(self):
        inner = CountingModel(value=2.0)
        cached = CachedModel(inner, ttl=10.0)
        assert cached.score_request(request_at(0.0)) == 2.0
        inner.value = 8.0
        assert cached.score_request(request_at(5.0)) == 2.0  # still cached
        assert cached.score_request(request_at(20.0)) == 8.0

    def test_capacity_eviction_lru(self):
        inner = CountingModel()
        cached = CachedModel(inner, ttl=1e9, max_entries=2)
        cached.score_request(request_at(0.0, "1.1.1.1"))
        cached.score_request(request_at(1.0, "2.2.2.2"))
        cached.score_request(request_at(2.0, "1.1.1.1"))  # refresh 1.1.1.1
        cached.score_request(request_at(3.0, "3.3.3.3"))  # evicts 2.2.2.2
        assert len(cached) == 2
        cached.score_request(request_at(4.0, "1.1.1.1"))
        assert inner.calls == 3  # 1.1.1.1 still cached

    def test_invalidate_single_and_all(self):
        inner = CountingModel()
        cached = CachedModel(inner, ttl=1e9)
        cached.score_request(request_at(0.0, "1.1.1.1"))
        cached.score_request(request_at(0.0, "2.2.2.2"))
        cached.invalidate("1.1.1.1")
        assert len(cached) == 1
        cached.invalidate()
        assert len(cached) == 0

    def test_feature_scoring_bypasses_cache(self):
        cached = CachedModel(ConstantModel(3.0))
        assert cached.score({"any": 1.0}) == 3.0
        assert cached.misses == 0

    def test_name_composes(self):
        cached = CachedModel(ConstantModel(1.0))
        assert cached.name == "cached(constant(1))"

    def test_validation(self):
        with pytest.raises(ValueError):
            CachedModel(ConstantModel(1.0), ttl=0.0)
        with pytest.raises(ValueError):
            CachedModel(ConstantModel(1.0), max_entries=0)

    def test_protocol_conformance(self):
        from repro.core.interfaces import ReputationModel

        assert isinstance(CachedModel(ConstantModel(1.0)), ReputationModel)


class _Captured(InMemoryStateStore):
    """An in-memory store that keeps the write sets posted to it."""

    def __init__(self):
        super().__init__()
        self.posted = []

    def post(self, ops):
        self.posted.append(list(ops))
        super().post(ops)


@settings(max_examples=200, deadline=None)
@given(
    cached=st.lists(st.tuples(st.integers(0, 5), st.floats(0.0, 10.0)),
                    max_size=6),
    batch=st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 10.0)),
                   min_size=1, max_size=8),
)
def test_a_write_set_applied_twice_leaves_what_once_does(cached, batch):
    # A frame re-sent after a lost reply applies its posted write set
    # again; entries, values and LRU order must not notice.
    store = _Captured()
    table = store.namespace("score-cache")
    for ip, at in cached:
        table[f"10.0.0.{ip}"] = [at, 1.0]
    before = table.dump()
    model = CachedModel(ConstantModel(2.0), ttl=3.0, store=store)
    at = 10.0
    model.score_requests(
        [request_at(at + offset, f"10.0.0.{ip}") for ip, offset in batch]
    )
    (writes,) = store.posted
    once, twice = InMemoryStateStore(), InMemoryStateStore()
    for copy in (once, twice):
        copy.namespace("score-cache").load(before)
    once.execute(writes)
    twice.execute(writes + writes)
    assert once.namespace("score-cache").dump() == table.dump()
    assert twice.namespace("score-cache").dump() == table.dump()


def test_the_wrapper_chain_passes_an_empty_cache():
    from repro.reputation.base import model_chain
    from repro.reputation.feedback import FeedbackReputationModel

    inner = ConstantModel(2.0)
    cache = CachedModel(inner, ttl=3.0)
    outer = FeedbackReputationModel(cache)
    assert len(cache) == 0
    assert list(model_chain(outer)) == [outer, cache, inner]
