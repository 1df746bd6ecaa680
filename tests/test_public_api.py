"""Top-level public-API tests: the README quickstart must keep working."""

from __future__ import annotations

import pytest

import repro


def test_version_exposed():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_readme_quickstart():
    """The exact flow the README advertises."""
    train, _ = repro.generate_corpus(size=1500, seed=7).split()
    framework = repro.AIPoWFramework(
        repro.DAbRModel().fit(train), repro.policy_2()
    )
    example = train[0]
    request = repro.ClientRequest(
        client_ip=example.ip,
        resource="/index.html",
        timestamp=0.0,
        features=example.features,
    )
    response = framework.process(request, repro.HashSolver())
    assert response.served
    assert response.decision.difficulty >= 5


def test_fast_engine_is_chosen_by_class_with_the_same_arguments():
    """DESIGN §1.5: ``FastSimulation`` mirrors the reference constructors."""
    import inspect

    from repro.net.sim import ClosedLoopSimulation, FastSimulation, Simulation

    fast = set(inspect.signature(FastSimulation).parameters)
    # ``timeline`` needs per-response events, which only the callback
    # reference engine emits.
    assert set(inspect.signature(Simulation).parameters) - fast == {"timeline"}
    assert set(inspect.signature(ClosedLoopSimulation).parameters) <= fast
    assert "engine" not in fast


def test_module_docstring_doctest():
    import doctest

    failures, _ = doctest.testmod(repro, verbose=False)
    assert failures == 0


def test_pow_package_doctest():
    import doctest

    import repro.pow

    failures, _ = doctest.testmod(repro.pow, verbose=False)
    assert failures == 0


def test_subpackages_importable():
    import importlib

    for module in (
        "repro.core",
        "repro.pow",
        "repro.reputation",
        "repro.policies",
        "repro.traffic",
        "repro.attacks",
        "repro.net",
        "repro.net.sim",
        "repro.net.live",
        "repro.metrics",
        "repro.bench",
        "repro.replay",
        "repro.cli",
    ):
        assert importlib.import_module(module)


def test_protocol_conformance_of_shipped_components():
    """Shipped components satisfy the framework's runtime protocols."""
    from repro.core.interfaces import Policy, ReputationModel

    train, _ = repro.generate_corpus(size=600, seed=3).split()
    model = repro.DAbRModel().fit(train)
    assert isinstance(model, ReputationModel)
    assert isinstance(repro.KNNReputationModel(), ReputationModel)
    for policy in (
        repro.policy_1(), repro.policy_2(), repro.policy_3(),
    ):
        assert isinstance(policy, Policy)


def test_end_to_end_with_all_three_policies():
    train, test = repro.generate_corpus(size=1200, seed=7).split()
    model = repro.DAbRModel().fit(train)
    example = test[0]
    request = repro.ClientRequest(
        client_ip=example.ip,
        resource="/r",
        timestamp=0.0,
        features=example.features,
    )
    score = model.score(example.features)
    for policy in repro.paper_policies():
        framework = repro.AIPoWFramework(model, policy)
        # Cap worst-case work in case the error-range policy draws high.
        if policy.name == "policy-2" and score > 8:
            continue
        response = framework.process(request, repro.HashSolver())
        assert response.served
