"""Core framework: the adaptive issuer pipeline and its contracts."""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "AIPoWFramework": "repro.core.framework",
    "Challenge": "repro.core.framework",
    "FrameworkSpec": "repro.core.spec",
    "FrameworkConfig": "repro.core.config",
    "PowConfig": "repro.core.config",
    "TimingConfig": "repro.core.config",
    "ClientRequest": "repro.core.records",
    "IssuerDecision": "repro.core.records",
    "ResponseStatus": "repro.core.records",
    "ServedResponse": "repro.core.records",
    "EventBus": "repro.core.events",
    "EventKind": "repro.core.events",
    "FrameworkEvent": "repro.core.events",
    "Registry": "repro.core.registry",
    "Policy": "repro.core.interfaces",
    "ReputationModel": "repro.core.interfaces",
    "PuzzleIssuer": "repro.core.interfaces",
    "PuzzleSolver": "repro.core.interfaces",
    "PuzzleVerifier": "repro.core.interfaces",
    "ReproError": "repro.core.errors",
    "ConfigError": "repro.core.errors",
    "ReputationError": "repro.core.errors",
    "PolicyError": "repro.core.errors",
    "PolicyDomainError": "repro.core.errors",
    "PolicySpecError": "repro.core.errors",
    "PuzzleError": "repro.core.errors",
    "PuzzleIntegrityError": "repro.core.errors",
    "PuzzleExpiredError": "repro.core.errors",
    "ReplayedSolutionError": "repro.core.errors",
    "SolutionInvalidError": "repro.core.errors",
    "NonceSpaceExhaustedError": "repro.core.errors",
    "SimulationError": "repro.core.errors",
    "ProtocolError": "repro.core.errors",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
