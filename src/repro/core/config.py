"""Validated configuration for the framework and its substrates.

Configuration is plain data: frozen dataclasses with explicit validation
in ``__post_init__`` and ``from_mapping``/``to_mapping`` round-trips so
configs can live in JSON files next to deployment manifests.  There is no
global state; every component receives its config explicitly.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro.core.errors import ConfigError

__all__ = [
    "PowConfig",
    "TimingConfig",
    "FrameworkConfig",
]

#: Reputation scores live on this closed interval throughout the library.
SCORE_MIN = 0.0
SCORE_MAX = 10.0

#: The paper's solver appends a 32-bit string to the immutable prefix.
DEFAULT_NONCE_BITS = 32


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclasses.dataclass(frozen=True, slots=True)
class PowConfig:
    """Parameters of the PoW puzzle subsystem.

    Parameters
    ----------
    secret_key:
        Server-side HMAC key authenticating issued puzzles, so the
        verifier can stay stateless about outstanding puzzles.
    ttl:
        Puzzle time-to-live in seconds; solutions arriving later are
        rejected as expired (mitigates hoarding).
    nonce_bits:
        Width of the client-modifiable nonce; the paper specifies 32.
    max_difficulty:
        Upper clamp applied to any policy output, protecting clients
        from unsolvable puzzles if a policy is misconfigured.
    hash_algorithm:
        Name of the :mod:`hashlib` digest used by solver and verifier.
    """

    secret_key: bytes = b"repro-framework-demo-key"
    ttl: float = 300.0
    nonce_bits: int = DEFAULT_NONCE_BITS
    max_difficulty: int = 40
    hash_algorithm: str = "sha256"

    def __post_init__(self) -> None:
        _require(len(self.secret_key) > 0, "secret_key must be non-empty")
        _require(self.ttl > 0, f"ttl must be > 0, got {self.ttl}")
        _require(
            1 <= self.nonce_bits <= 64,
            f"nonce_bits must be in [1, 64], got {self.nonce_bits}",
        )
        _require(
            0 < self.max_difficulty <= 256,
            f"max_difficulty must be in (0, 256], got {self.max_difficulty}",
        )
        _require(
            self.hash_algorithm in ("sha256", "sha1", "sha512", "blake2b"),
            f"unsupported hash algorithm {self.hash_algorithm!r}",
        )

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "PowConfig":
        """Build a :class:`PowConfig` from a JSON-style mapping."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown PowConfig keys: {sorted(unknown)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("secret_key"), str):
            kwargs["secret_key"] = kwargs["secret_key"].encode("utf-8")
        return cls(**kwargs)

    def to_mapping(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible mapping."""
        return {
            "secret_key": self.secret_key.decode("utf-8", "replace"),
            "ttl": self.ttl,
            "nonce_bits": self.nonce_bits,
            "max_difficulty": self.max_difficulty,
            "hash_algorithm": self.hash_algorithm,
        }


@dataclasses.dataclass(frozen=True, slots=True)
class TimingConfig:
    """Calibrated timing constants for the simulated environment.

    The defaults reproduce the paper's reported numbers: a 1-difficult
    puzzle costs ~31 ms on average, dominated by the fixed network and
    framework overhead (see DESIGN.md §2 for the calibration argument).

    Parameters
    ----------
    network_overhead:
        Fixed round-trip plus framework bookkeeping cost per request,
        in seconds.
    seconds_per_attempt:
        Client-side cost of a single hash evaluation.
    server_processing:
        Server-side cost of scoring, policy lookup, puzzle generation
        and verification, in seconds.
    """

    network_overhead: float = 0.030
    seconds_per_attempt: float = 27e-6
    server_processing: float = 0.0005

    def __post_init__(self) -> None:
        _require(
            self.network_overhead >= 0,
            f"network_overhead must be >= 0, got {self.network_overhead}",
        )
        _require(
            self.seconds_per_attempt > 0,
            f"seconds_per_attempt must be > 0, got {self.seconds_per_attempt}",
        )
        _require(
            self.server_processing >= 0,
            f"server_processing must be >= 0, got {self.server_processing}",
        )

    def expected_latency(self, difficulty: int) -> float:
        """Mean end-to-end latency for a ``difficulty``-bit puzzle.

        The number of hash attempts to find a ``d``-bit zero prefix is
        geometric with success probability ``2**-d``, so its mean is
        ``2**d`` attempts.
        """
        expected_attempts = float(2**difficulty)
        return (
            self.network_overhead
            + self.server_processing
            + expected_attempts * self.seconds_per_attempt
        )

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "TimingConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown TimingConfig keys: {sorted(unknown)}")
        return cls(**data)

    def to_mapping(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True, slots=True)
class FrameworkConfig:
    """Top-level framework configuration.

    Parameters
    ----------
    pow:
        PoW subsystem parameters.
    timing:
        Simulated-environment timing constants.
    policy_seed:
        Seed for the RNG handed to randomized policies (Policy 3).
    min_difficulty:
        Lower clamp on policy outputs.  Zero difficulty means "no
        puzzle": every hash trivially has a 0-bit zero prefix.
    """

    pow: PowConfig = dataclasses.field(default_factory=PowConfig)
    timing: TimingConfig = dataclasses.field(default_factory=TimingConfig)
    policy_seed: int = 0xD5A
    min_difficulty: int = 0

    def __post_init__(self) -> None:
        _require(
            0 <= self.min_difficulty <= self.pow.max_difficulty,
            "min_difficulty must lie in [0, pow.max_difficulty], got "
            f"{self.min_difficulty}",
        )

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "FrameworkConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown FrameworkConfig keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = dict(data)
        if "pow" in kwargs and isinstance(kwargs["pow"], Mapping):
            kwargs["pow"] = PowConfig.from_mapping(kwargs["pow"])
        if "timing" in kwargs and isinstance(kwargs["timing"], Mapping):
            kwargs["timing"] = TimingConfig.from_mapping(kwargs["timing"])
        return cls(**kwargs)

    def to_mapping(self) -> dict[str, Any]:
        return {
            "pow": self.pow.to_mapping(),
            "timing": self.timing.to_mapping(),
            "policy_seed": self.policy_seed,
            "min_difficulty": self.min_difficulty,
        }
