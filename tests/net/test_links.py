"""Unit tests for the vectorized lossy-link layer.

Pins the properties the engine parity claim rests on: hash-derived
delays and losses depend only on (seed, identity), never on evaluation
order or batching, and a same-instant queue cohort computes exits
bit-identical to one-at-a-time sequential crossings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.sim.links import (
    LINK_PROFILES,
    BandwidthTrace,
    LinkProfile,
    LinkSet,
    LinkStats,
    _mix64,
    _norm_ppf,
    _uniform01,
    resolve_link_profile,
)


class TestHashKernels:
    def test_mix64_is_deterministic_and_dispersive(self):
        x = np.arange(1000, dtype=np.uint64)
        h1, h2 = _mix64(x), _mix64(x)
        assert np.array_equal(h1, h2)
        assert len(np.unique(h1)) == x.size

    def test_uniform01_open_interval(self):
        u = _uniform01(_mix64(np.arange(10_000, dtype=np.uint64)))
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_norm_ppf_matches_known_quantiles(self):
        # Round-trip quantiles of the standard normal (to the ~1e-9
        # accuracy of Acklam's approximation), hitting all 3 branches.
        u = np.array([0.001, 0.02425, 0.25, 0.5, 0.841344746, 0.999])
        z = _norm_ppf(u)
        expected = np.array(
            [-3.0902323, -1.9729611, -0.6744898, 0.0, 1.0, 3.0902323]
        )
        assert np.allclose(z, expected, atol=1e-5)

    def test_norm_ppf_scalar_vs_vector_bit_equal(self):
        u = _uniform01(_mix64(np.arange(256, dtype=np.uint64)))
        vector = _norm_ppf(u)
        scalar = np.array([_norm_ppf(np.array([v]))[0] for v in u])
        assert np.array_equal(vector, scalar)


class TestBandwidthTrace:
    def test_validation(self):
        with pytest.raises(ValueError, match="parallel 1-D"):
            BandwidthTrace([0.0, 1.0], [100.0])
        with pytest.raises(ValueError, match="at least one"):
            BandwidthTrace([], [])
        with pytest.raises(ValueError, match="start at t=0"):
            BandwidthTrace([1.0], [100.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            BandwidthTrace([0.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="> 0 requests/s"):
            BandwidthTrace([0.0], [0.0])

    def test_rate_lookup_piecewise(self):
        trace = BandwidthTrace([0.0, 1.0, 3.0], [100.0, 50.0, 200.0])
        assert trace.rate_at(0.0) == 100.0
        assert trace.rate_at(0.999) == 100.0
        assert trace.rate_at(1.0) == 50.0
        assert trace.rate_at(2.5) == 50.0
        assert trace.rate_at(3.0) == 200.0
        assert trace.rate_at(1e9) == 200.0

    def test_constant(self):
        trace = BandwidthTrace.constant(4000.0)
        assert trace.rate_at(0.0) == trace.rate_at(123.4) == 4000.0


class TestLinkProfile:
    def test_validation(self):
        with pytest.raises(ValueError, match="rtt_median"):
            LinkProfile(rtt_median=0.0)
        with pytest.raises(ValueError, match="rtt_sigma"):
            LinkProfile(rtt_sigma=-0.1)
        with pytest.raises(ValueError, match="loss_rate"):
            LinkProfile(loss_rate=1.0)
        with pytest.raises(ValueError, match="queue_seconds"):
            LinkProfile(queue_seconds=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            LinkProfile(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            LinkProfile(backoff=0.0)

    def test_lossless_unlimited(self):
        assert LinkProfile().lossless_unlimited
        assert not LinkProfile(loss_rate=0.01).lossless_unlimited
        assert not LinkProfile(
            bandwidth=BandwidthTrace.constant(100.0)
        ).lossless_unlimited

    def test_catalogue_entries_documented(self):
        for name, profile in LINK_PROFILES.items():
            assert profile.note, f"catalogue entry {name!r} needs a note"

    def test_resolve(self):
        assert resolve_link_profile("lossy-mobile") is LINK_PROFILES[
            "lossy-mobile"
        ]
        custom = LinkProfile(rtt_median=0.002)
        assert resolve_link_profile(custom) is custom
        with pytest.raises(ValueError, match="unknown link profile"):
            resolve_link_profile("dial-up")


class TestLinkSet:
    def test_needs_assignments(self):
        with pytest.raises(ValueError, match="at least one"):
            LinkSet({})

    def test_same_name_shares_a_queue(self):
        links = LinkSet(
            {"benign": "congested-uplink", "malicious": "congested-uplink"}
        )
        assert links.queue_count() == 1
        qids = links.queue_ids(["benign", "malicious", "unassigned"])
        assert qids.tolist() == [0, 0, -1]

    def test_distinct_instances_get_distinct_queues(self):
        profile_a = LinkProfile(bandwidth=BandwidthTrace.constant(100.0))
        profile_b = LinkProfile(bandwidth=BandwidthTrace.constant(100.0))
        links = LinkSet({"a": profile_a, "b": profile_b})
        assert links.queue_count() == 2

    def test_shared_instance_shares_a_queue(self):
        shared = LinkProfile(bandwidth=BandwidthTrace.constant(100.0))
        links = LinkSet({"a": shared, "b": shared})
        assert links.queue_count() == 1

    def test_delay_only(self):
        assert LinkSet({"a": "datacenter"}).delay_only
        assert not LinkSet({"a": "lossy-mobile"}).delay_only
        assert not LinkSet({"a": "congested-uplink"}).delay_only

    def test_base_delays_sigma_zero_pins_median(self):
        links = LinkSet({"a": LinkProfile(rtt_median=0.005)})
        packed = np.arange(100, dtype=np.int64)
        delays = links.base_delays(packed, np.zeros(100, dtype=np.int64))
        assert np.all(delays == 0.005)

    def test_base_delays_depend_only_on_identity(self):
        packed = np.arange(1000, dtype=np.int64) + 0x0A000001
        qids = np.zeros(1000, dtype=np.int64)
        first = LinkSet({"a": "lossy-mobile"}, seed=9)
        second = LinkSet({"a": "lossy-mobile"}, seed=9)
        assert np.array_equal(
            first.base_delays(packed, qids), second.base_delays(packed, qids)
        )
        # Order/batching independence: per-element evaluation matches.
        batch = first.base_delays(packed, qids)
        singles = np.array(
            [
                float(first.base_delays(packed[i : i + 1], qids[:1])[0])
                for i in range(50)
            ]
        )
        assert np.array_equal(batch[:50], singles)
        # A different seed draws different delays.
        other = LinkSet({"a": "lossy-mobile"}, seed=10)
        assert not np.array_equal(
            batch, other.base_delays(packed, qids)
        )

    def test_base_delays_unlinked_agents_get_zero(self):
        links = LinkSet({"a": "lossy-mobile"})
        delays = links.base_delays(
            np.array([1, 2], dtype=np.int64),
            np.array([-1, 0], dtype=np.int64),
        )
        assert delays[0] == 0.0 and delays[1] > 0.0

    def test_base_delays_lognormal_shape(self):
        links = LinkSet({"a": "lossy-mobile"})
        packed = np.arange(20_000, dtype=np.int64)
        delays = links.base_delays(packed, np.zeros(20_000, dtype=np.int64))
        profile = LINK_PROFILES["lossy-mobile"]
        median = float(np.median(delays))
        assert abs(median - profile.rtt_median) / profile.rtt_median < 0.05
        log_sigma = float(np.std(np.log(delays)))
        assert abs(log_sigma - profile.rtt_sigma) / profile.rtt_sigma < 0.05

    def test_crossing_lost_counter_based(self):
        links = LinkSet({"a": "lossy-mobile"}, seed=3)
        rids = np.arange(50_000, dtype=np.int64)
        ones = np.ones(50_000, dtype=np.int64)
        lost = links.crossing_lost(rids, ones, 0, 0.02)
        # Deterministic, batching-independent.
        assert np.array_equal(lost, links.crossing_lost(rids, ones, 0, 0.02))
        singles = np.array(
            [
                bool(
                    links.crossing_lost(
                        rids[i : i + 1], ones[:1], 0, 0.02
                    )[0]
                )
                for i in range(50)
            ]
        )
        assert np.array_equal(lost[:50], singles)
        # Rate roughly matches; retries and the return leg redraw.
        assert 0.015 < lost.mean() < 0.025
        assert not np.array_equal(
            lost, links.crossing_lost(rids, ones + 1, 0, 0.02)
        )
        assert not np.array_equal(
            lost, links.crossing_lost(rids, ones, 1, 0.02)
        )
        assert not links.crossing_lost(rids, ones, 0, 0.0).any()


class TestLinkSession:
    def test_uncapped_exits_immediately(self):
        session = LinkSet({"a": "lossy-mobile"}).session()
        exits, accepted = session.cross(0, 1.5, 4)
        assert accepted == 4
        assert np.all(exits == 1.5)

    def test_empty_cohort(self):
        session = LinkSet({"a": "congested-uplink"}).session()
        exits, accepted = session.cross(0, 1.0, 0)
        assert accepted == 0 and exits.size == 0

    def test_capped_serializes_at_trace_rate(self):
        profile = LinkProfile(
            bandwidth=BandwidthTrace.constant(10.0), queue_seconds=100.0
        )
        session = LinkSet({"a": profile}).session()
        exits, accepted = session.cross(0, 0.0, 3)
        assert accepted == 3
        assert np.allclose(exits, [0.1, 0.2, 0.3])
        # The queue stays busy: a later cohort waits behind it.
        exits, _ = session.cross(0, 0.05, 1)
        assert np.allclose(exits, [0.4])

    def test_full_queue_tail_drops_suffix(self):
        # 2 req/s with a 1 s queue: the backlog crosses 1 s after the
        # third same-instant crossing, so a burst of 6 keeps a prefix.
        profile = LinkProfile(
            bandwidth=BandwidthTrace.constant(2.0), queue_seconds=1.0
        )
        session = LinkSet({"a": profile}).session()
        exits, accepted = session.cross(0, 0.0, 6)
        assert 0 < accepted < 6
        # Backlogs 0, 0.5, 1.0, 1.5, ...: exactly queue_seconds queues.
        assert accepted == 3
        assert exits.size == accepted
        # Dropped crossings left no trace on the queue clock.
        assert float(session.busy[0]) == pytest.approx(accepted * 0.5)

    def test_cohort_bit_identical_to_sequential(self):
        profile = LinkProfile(
            bandwidth=BandwidthTrace([0.0, 0.5], [40.0, 15.0]),
            queue_seconds=0.4,
        )
        rng = np.random.default_rng(42)
        arrivals = np.sort(rng.uniform(0.0, 2.0, size=40))
        # Duplicate some instants to exercise same-instant cohorts.
        arrivals = np.repeat(arrivals, rng.integers(1, 5, size=40))
        cohort_session = LinkSet({"a": profile}).session()
        seq_session = LinkSet({"a": profile}).session()
        for when in np.unique(arrivals):
            count = int(np.sum(arrivals == when))
            cohort_exits, cohort_ok = cohort_session.cross(
                0, float(when), count
            )
            seq_exits, seq_ok = [], 0
            for _ in range(count):
                exits, accepted = seq_session.cross(0, float(when), 1)
                if accepted:
                    seq_exits.append(float(exits[0]))
                    seq_ok += 1
            assert cohort_ok == seq_ok
            assert np.array_equal(cohort_exits, np.array(seq_exits))
            assert cohort_session.busy[0] == seq_session.busy[0]

    def test_matches_plain_fifo_tail_drop_loop(self):
        """Cohort crossings equal the recurrence written as a loop.

        Both engines call :meth:`LinkSession.cross`, so engine parity
        cannot catch a fault in it; this holds it to the plain
        definition: start at ``max(when, busy)``, hold the link
        ``1/rate``, and drop once the backlog ahead exceeds
        ``queue_seconds``.
        """
        trace = BandwidthTrace([0.0, 0.6, 1.2], [40.0, 12.0, 25.0])
        profile = LinkProfile(bandwidth=trace, queue_seconds=0.3)
        session = LinkSet({"a": profile}).session()
        rng = np.random.default_rng(7)
        busy, when, full = 0.0, 0.0, 0
        for _ in range(300):
            when += float(rng.exponential(0.02))
            count = int(rng.integers(0, 12))
            service = 1.0 / trace.rate_at(when)
            want = []
            for _ in range(count):
                if max(0.0, busy - when) > profile.queue_seconds:
                    break
                busy = max(when, busy) + service
                want.append(busy)
            full += count > 0 and not want
            exits, accepted = session.cross(0, when, count)
            assert accepted == len(want)
            assert exits.tolist() == want
            assert float(session.busy[0]) == busy
        assert full > 0, "the queue never turned a whole cohort away"

    def test_stats_shapes(self):
        stats = LinkStats(crossings=3, lost=1, retries=1)
        assert stats.as_dict()["crossings"] == 3
        assert "3 uplink crossings" in stats.summary()
        assert "1 lost" in stats.summary()
