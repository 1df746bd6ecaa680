"""Shared fixtures for the test suite.

Fitting DAbR on a corpus is the most expensive setup step, so the
fitted model and its corpora are session-scoped; tests must treat them
as read-only.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import FrameworkConfig, PowConfig, TimingConfig
from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.policies.linear import policy_2
from repro.pow.difficulty import meets_difficulty
from repro.pow.hashers import get_hasher
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus


@pytest.fixture(scope="session")
def corpus():
    """A mid-sized deterministic corpus shared across the session."""
    return generate_corpus(size=3000, seed=7)


@pytest.fixture(scope="session")
def corpus_split(corpus):
    """The canonical train/test split of the shared corpus."""
    return corpus.split()


@pytest.fixture(scope="session")
def fitted_dabr(corpus_split):
    """A DAbR model fitted on the shared training split (read-only)."""
    train, _ = corpus_split
    return DAbRModel().fit(train)


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return random.Random(0xBEEF)


@pytest.fixture()
def fast_pow_config():
    """Low-difficulty PoW config so tests solve puzzles instantly."""
    return PowConfig(secret_key=b"test-key", ttl=60.0, max_difficulty=20)


@pytest.fixture()
def framework(fitted_dabr, fast_pow_config):
    """A complete framework over the fitted model and Policy 2."""
    config = FrameworkConfig(pow=fast_pow_config, timing=TimingConfig())
    return AIPoWFramework(fitted_dabr, policy_2(), config)


@pytest.fixture()
def failing_nonce():
    """``failing_nonce(puzzle, client_ip)``: the first nonce that misses.

    Puzzle seeds are CSPRNG draws, so a fixed nonce such as 0 solves a
    d-difficult puzzle with probability 2**-d.  Searching for a nonce
    whose digest misses the target makes a bad-nonce test exact.
    """

    def search(puzzle, client_ip: str) -> int:
        hasher = get_hasher(puzzle.algorithm)
        prefix = puzzle.prefix(client_ip)
        nonce = 0
        while meets_difficulty(
            hasher(prefix + nonce.to_bytes(4, "big")), puzzle.difficulty
        ):
            nonce += 1
        return nonce

    return search


@pytest.fixture()
def sample_request(corpus_split):
    """A valid request built from a held-out corpus example."""
    _, test = corpus_split
    example = test[0]
    return ClientRequest(
        client_ip=example.ip,
        resource="/index.html",
        timestamp=0.0,
        features=example.features,
    )
