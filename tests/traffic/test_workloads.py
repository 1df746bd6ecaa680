"""Tests for profiles, arrivals, traces and the workload generator."""

from __future__ import annotations

import random

import pytest

from repro.traffic.arrivals import (
    onoff_arrivals,
    poisson_arrivals,
    ramp_arrivals,
    uniform_arrivals,
)
from repro.traffic.generator import WorkloadGenerator, make_population
from repro.traffic.ipaddr import is_valid_ipv4
from repro.traffic.profiles import (
    BENIGN_PROFILE,
    MALICIOUS_PROFILE,
    STEALTH_PROFILE,
    ClientProfile,
)
from repro.traffic.trace import Trace, TraceEntry


def mean_intensity(profile) -> float:
    """Mean of the profile's Beta intensity distribution."""
    return profile.intensity_alpha / (
        profile.intensity_alpha + profile.intensity_beta
    )


class TestProfiles:
    def test_builtin_profiles_valid(self):
        for profile in (BENIGN_PROFILE, MALICIOUS_PROFILE, STEALTH_PROFILE):
            assert profile.hash_rate > 0
            assert 0.0 < mean_intensity(profile) < 1.0

    def test_malicious_more_intense_than_benign(self):
        assert mean_intensity(MALICIOUS_PROFILE) > mean_intensity(BENIGN_PROFILE)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientProfile("", "1.0.0.0/8", 1.0, 1.0)
        with pytest.raises(ValueError):
            ClientProfile("x", "1.0.0.0/8", 0.0, 1.0)
        with pytest.raises(ValueError):
            ClientProfile("x", "1.0.0.0/8", 1.0, 1.0, hash_rate=0)
        with pytest.raises(ValueError):
            ClientProfile("x", "1.0.0.0/8", 1.0, 1.0, request_rate=0)


class TestArrivals:
    def test_poisson_within_duration(self):
        rng = random.Random(1)
        times = list(poisson_arrivals(10.0, 5.0, rng))
        assert all(0.0 < t < 5.0 for t in times)

    def test_poisson_rate_roughly_respected(self):
        rng = random.Random(2)
        times = list(poisson_arrivals(50.0, 100.0, rng))
        assert len(times) == pytest.approx(5000, rel=0.1)

    def test_poisson_start_offset(self):
        rng = random.Random(3)
        times = list(poisson_arrivals(10.0, 2.0, rng, start=100.0))
        assert all(100.0 < t < 102.0 for t in times)

    def test_poisson_validation(self):
        rng = random.Random(4)
        with pytest.raises(ValueError):
            list(poisson_arrivals(0.0, 1.0, rng))
        with pytest.raises(ValueError):
            list(poisson_arrivals(1.0, 0.0, rng))

    def test_uniform_spacing(self):
        times = list(uniform_arrivals(4.0, 1.0))
        assert times == pytest.approx([0.25, 0.5, 0.75])

    def test_onoff_respects_off_windows(self):
        rng = random.Random(5)
        times = list(
            onoff_arrivals(
                100.0, 10.0, rng, on_seconds=1.0, off_seconds=1.0
            )
        )
        # No arrivals should land inside any OFF window [odd, even).
        for t in times:
            phase = t % 2.0
            assert phase < 1.0

    def test_ramp_density_increases(self):
        rng = random.Random(6)
        times = list(ramp_arrivals(100.0, 10.0, rng))
        first_half = sum(1 for t in times if t < 5.0)
        second_half = len(times) - first_half
        assert second_half > first_half

    def test_arrivals_sorted(self):
        rng = random.Random(7)
        for gen in (
            poisson_arrivals(20.0, 5.0, rng),
            onoff_arrivals(20.0, 5.0, rng),
            ramp_arrivals(20.0, 5.0, rng),
        ):
            times = list(gen)
            assert times == sorted(times)


class TestPopulation:
    def test_population_size_and_uniqueness(self):
        rng = random.Random(8)
        clients = make_population(BENIGN_PROFILE, 50, rng)
        assert len(clients) == 50
        assert len({c.ip for c in clients}) == 50
        assert all(is_valid_ipv4(c.ip) for c in clients)

    def test_clients_in_profile_subnet(self):
        rng = random.Random(9)
        clients = make_population(MALICIOUS_PROFILE, 20, rng)
        assert all(c.ip.startswith("110.") for c in clients)

    def test_true_score_matches_intensity(self):
        rng = random.Random(10)
        client = make_population(BENIGN_PROFILE, 1, rng)[0]
        assert client.true_score == pytest.approx(10.0 * client.intensity)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            make_population(BENIGN_PROFILE, 0, random.Random(1))


class TestWorkloadGenerator:
    def test_open_loop_trace_ordering(self):
        generator = WorkloadGenerator(seed=11)
        clients = generator.population(BENIGN_PROFILE, 5)
        trace = generator.open_loop_trace(clients, duration=10.0)
        times = [e.request.timestamp for e in trace]
        assert times == sorted(times)
        assert all(0 <= t <= 10.0 for t in times)

    def test_trace_determinism(self):
        def build():
            generator = WorkloadGenerator(seed=12)
            clients = generator.population(BENIGN_PROFILE, 5)
            return generator.open_loop_trace(clients, duration=5.0)

        a, b = build(), build()
        assert [e.request.client_ip for e in a] == [
            e.request.client_ip for e in b
        ]
        assert [e.request.timestamp for e in a] == [
            e.request.timestamp for e in b
        ]

    def test_request_ids_unique(self):
        generator = WorkloadGenerator(seed=13)
        clients = generator.population(BENIGN_PROFILE, 5)
        trace = generator.open_loop_trace(clients, duration=10.0)
        ids = [e.request.request_id for e in trace]
        assert len(set(ids)) == len(ids)

    def test_mixed_trace_carries_profiles(self):
        generator = WorkloadGenerator(seed=14)
        trace, clients = generator.mixed_trace(
            [(BENIGN_PROFILE, 3), (MALICIOUS_PROFILE, 3)], duration=5.0
        )
        profiles = {e.profile for e in trace}
        assert profiles == {"benign", "malicious"}
        assert len(clients) == 6

    def test_empty_clients_rejected(self):
        generator = WorkloadGenerator(seed=15)
        with pytest.raises(ValueError):
            generator.open_loop_trace([], duration=5.0)


class TestTrace:
    def make_entry(self, timestamp: float, ip: str = "23.1.2.3") -> TraceEntry:
        from repro.core.records import ClientRequest

        return TraceEntry(
            request=ClientRequest(
                client_ip=ip,
                resource="/r",
                timestamp=timestamp,
                features={"f": 1.0},
            ),
            profile="benign",
            true_score=2.0,
        )

    def test_entries_sorted_on_construction(self):
        trace = Trace([self.make_entry(5.0), self.make_entry(1.0)])
        assert [e.request.timestamp for e in trace] == [1.0, 5.0]

    def test_append_keeps_order(self):
        trace = Trace([self.make_entry(1.0), self.make_entry(5.0)])
        trace.append(self.make_entry(3.0))
        assert [e.request.timestamp for e in trace] == [1.0, 3.0, 5.0]

    def test_duration(self):
        trace = Trace([self.make_entry(2.0), self.make_entry(9.0)])
        assert trace.duration() == pytest.approx(7.0)
        assert Trace([]).duration() == 0.0

    def test_jsonl_round_trip(self, tmp_path):
        trace = Trace([self.make_entry(1.0), self.make_entry(2.0, "23.9.9.9")])
        path = tmp_path / "trace.jsonl"
        trace.dump_jsonl(path)
        loaded = Trace.load_jsonl(path)
        assert len(loaded) == 2
        assert loaded[0].request.client_ip == "23.1.2.3"
        assert loaded[1].request.client_ip == "23.9.9.9"
        assert loaded[0].true_score == 2.0

    def test_entry_json_round_trip(self):
        entry = self.make_entry(4.5)
        rebuilt = TraceEntry.from_json(entry.to_json())
        assert rebuilt.request.timestamp == 4.5
        assert rebuilt.profile == "benign"
        assert dict(rebuilt.request.features) == {"f": 1.0}

    def test_true_score_validated(self):
        with pytest.raises(ValueError):
            TraceEntry(
                request=self.make_entry(1.0).request,
                profile="x",
                true_score=11.0,
            )
