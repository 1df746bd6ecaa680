"""Core framework: the adaptive issuer pipeline and its contracts."""

from repro.core.config import FrameworkConfig, PowConfig, TimingConfig
from repro.core.errors import (
    ConfigError,
    NonceSpaceExhaustedError,
    PolicyDomainError,
    PolicyError,
    PolicySpecError,
    ProtocolError,
    PuzzleError,
    PuzzleExpiredError,
    PuzzleIntegrityError,
    ReplayedSolutionError,
    ReproError,
    ReputationError,
    SimulationError,
    SolutionInvalidError,
)
from repro.core.events import EventBus, EventKind, FrameworkEvent
from repro.core.framework import AIPoWFramework, Challenge
from repro.core.interfaces import (
    Policy,
    PuzzleIssuer,
    PuzzleSolver,
    PuzzleVerifier,
    ReputationModel,
)
from repro.core.records import (
    ClientRequest,
    IssuerDecision,
    ResponseStatus,
    ServedResponse,
)
from repro.core.registry import Registry
from repro.core.spec import FrameworkSpec

__all__ = [
    "AIPoWFramework",
    "Challenge",
    "FrameworkSpec",
    "FrameworkConfig",
    "PowConfig",
    "TimingConfig",
    "ClientRequest",
    "IssuerDecision",
    "ResponseStatus",
    "ServedResponse",
    "EventBus",
    "EventKind",
    "FrameworkEvent",
    "Registry",
    "Policy",
    "ReputationModel",
    "PuzzleIssuer",
    "PuzzleSolver",
    "PuzzleVerifier",
    "ReproError",
    "ConfigError",
    "ReputationError",
    "PolicyError",
    "PolicyDomainError",
    "PolicySpecError",
    "PuzzleError",
    "PuzzleIntegrityError",
    "PuzzleExpiredError",
    "ReplayedSolutionError",
    "SolutionInvalidError",
    "NonceSpaceExhaustedError",
    "SimulationError",
    "ProtocolError",
]
