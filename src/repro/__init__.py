"""repro — A Policy Driven AI-Assisted PoW Framework (DSN 2022).

A faithful, fully-offline reproduction of Chakraborty, Mitra, Mittal and
Young's AI-assisted Proof-of-Work framework.  The package implements the
paper's five components — the AI reputation model, the policy module,
puzzle generation, puzzle solving and puzzle verification — plus the
substrates needed to reproduce its evaluation: a synthetic
threat-intelligence corpus, a discrete-event network simulator, traffic
and attack generators, and the benchmark harness regenerating Figure 2.

Quickstart
----------
>>> from repro import (
...     AIPoWFramework, ClientRequest, DAbRModel, HashSolver,
...     generate_corpus, policy_2,
... )
>>> train, _ = generate_corpus(size=1500, seed=7).split()
>>> framework = AIPoWFramework(DAbRModel().fit(train), policy_2())
>>> example = train[0]
>>> request = ClientRequest(
...     client_ip=example.ip, resource="/index.html",
...     timestamp=0.0, features=example.features,
... )
>>> response = framework.process(request, HashSolver())
>>> response.served
True
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Nothing here is imported
#: until first use (module ``__getattr__``), so ``import repro`` and a
#: process that only serves state load no framework and no numpy.
_EXPORTS = {
    "AIPoWFramework": "repro.core.framework",
    "Challenge": "repro.core.framework",
    "FrameworkConfig": "repro.core.config",
    "PowConfig": "repro.core.config",
    "TimingConfig": "repro.core.config",
    "ClientRequest": "repro.core.records",
    "IssuerDecision": "repro.core.records",
    "ResponseStatus": "repro.core.records",
    "ServedResponse": "repro.core.records",
    "EventBus": "repro.core.events",
    "EventKind": "repro.core.events",
    "DAbRModel": "repro.reputation.dabr",
    "KNNReputationModel": "repro.reputation.knn",
    "generate_corpus": "repro.reputation.dataset",
    "evaluate_model": "repro.reputation.evaluation",
    "LinearPolicy": "repro.policies.linear",
    "ErrorRangePolicy": "repro.policies.error_range",
    "policy_1": "repro.policies.linear",
    "policy_2": "repro.policies.linear",
    "policy_3": "repro.policies.error_range",
    "paper_policies": "repro.policies",
    "build_policy": "repro.policies.dsl",
    "Puzzle": "repro.pow.puzzle",
    "Solution": "repro.pow.puzzle",
    "PuzzleGenerator": "repro.pow.generator",
    "PuzzleVerifier": "repro.pow.verifier",
    "HashSolver": "repro.pow.solver",
    "SampledSolver": "repro.pow.solver",
}

__all__ = ["__version__", *_EXPORTS]


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` of a package re-exporting ``exports``.

    A name is imported from its module on first access and then cached
    in the package, so later lookups are plain attribute reads.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(
            importlib.import_module(module), name
        )
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
