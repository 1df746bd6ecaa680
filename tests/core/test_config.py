"""Unit tests for configuration validation and round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FrameworkConfig, PowConfig, TimingConfig
from repro.core.errors import ConfigError
from repro.core.framework import AIPoWFramework
from repro.policies.table import FixedPolicy
from repro.reputation.ensemble import ConstantModel


def clamped(config: FrameworkConfig, policy) -> int:
    """The difficulty the framework issues for ``policy``'s raw output."""
    framework = AIPoWFramework(ConstantModel(5.0), policy, config=config)
    scores = np.array([0.0, 5.0, 10.0])
    (difficulty,) = set(framework.difficulties_for_scores(scores).tolist())
    return difficulty


class TestPowConfig:
    def test_defaults_valid(self):
        config = PowConfig()
        assert config.nonce_bits == 32
        assert config.hash_algorithm == "sha256"

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="secret_key"):
            PowConfig(secret_key=b"")

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ConfigError, match="ttl"):
            PowConfig(ttl=0.0)

    @pytest.mark.parametrize("bits", [0, 65, -1])
    def test_bad_nonce_bits_rejected(self, bits):
        with pytest.raises(ConfigError, match="nonce_bits"):
            PowConfig(nonce_bits=bits)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithm"):
            PowConfig(hash_algorithm="md5-please-no")

    def test_mapping_round_trip(self):
        config = PowConfig(secret_key=b"abc", ttl=10.0, nonce_bits=16)
        rebuilt = PowConfig.from_mapping(config.to_mapping())
        assert rebuilt == config

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            PowConfig.from_mapping({"ttl": 5.0, "bogus": 1})

    def test_from_mapping_encodes_string_key(self):
        config = PowConfig.from_mapping({"secret_key": "hello"})
        assert config.secret_key == b"hello"


class TestTimingConfig:
    def test_defaults_produce_31ms_one_difficult(self):
        timing = TimingConfig()
        assert timing.expected_latency(1) * 1000 == pytest.approx(31.0, abs=1.0)

    def test_expected_latency_monotone(self):
        timing = TimingConfig()
        latencies = [timing.expected_latency(d) for d in range(16)]
        assert latencies == sorted(latencies)

    def test_expected_latency_growth_is_exponential(self):
        timing = TimingConfig(network_overhead=0.0, server_processing=0.0)
        assert timing.expected_latency(10) == pytest.approx(
            2 * timing.expected_latency(9)
        )

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigError):
            TimingConfig(network_overhead=-0.1)

    def test_zero_attempt_cost_rejected(self):
        with pytest.raises(ConfigError):
            TimingConfig(seconds_per_attempt=0.0)

    def test_mapping_round_trip(self):
        timing = TimingConfig(network_overhead=0.01)
        assert TimingConfig.from_mapping(timing.to_mapping()) == timing


class TestFrameworkConfig:
    def test_defaults_valid(self):
        config = FrameworkConfig()
        assert config.min_difficulty == 0

    # The config's range is enforced by the framework's decision core,
    # ``AIPoWFramework.difficulties_for_scores``.
    def test_clamp_below(self):
        config = FrameworkConfig(min_difficulty=2)
        assert clamped(config, FixedPolicy(0)) == 2

    def test_clamp_above(self):
        config = FrameworkConfig()
        assert clamped(config, FixedPolicy(10_000)) == config.pow.max_difficulty

    def test_clamp_identity_inside_range(self):
        config = FrameworkConfig()
        assert clamped(config, FixedPolicy(7)) == 7

    def test_min_above_max_rejected(self):
        with pytest.raises(ConfigError, match="min_difficulty"):
            FrameworkConfig(
                pow=PowConfig(max_difficulty=8), min_difficulty=9
            )

    def test_nested_mapping_round_trip(self):
        config = FrameworkConfig(min_difficulty=1)
        rebuilt = FrameworkConfig.from_mapping(config.to_mapping())
        assert rebuilt.min_difficulty == 1
        assert rebuilt.pow == config.pow
        assert rebuilt.timing == config.timing
