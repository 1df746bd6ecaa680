"""Solver/verifier integration: the PoW subsystem's core invariant.

For every seed, difficulty and client, ``verify(solve(puzzle)) == ok``
— and every tampering of the exchange is rejected with the right error.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PowConfig
from repro.core.errors import (
    NonceSpaceExhaustedError,
    PuzzleExpiredError,
    PuzzleIntegrityError,
    ReplayedSolutionError,
    SolutionInvalidError,
)
from repro.pow.difficulty import meets_difficulty
from repro.pow.generator import PuzzleGenerator
from repro.pow.hashers import get_hasher
from repro.pow.puzzle import Puzzle, Solution
from repro.pow.seeds import SequentialSeedSource
from repro.pow.solver import HashSolver, SampledSolver
from repro.pow.verifier import PuzzleVerifier, ReplayCache

CLIENT = "198.51.100.23"
CONFIG = PowConfig(secret_key=b"unit-test-key", ttl=100.0)


def fresh_stack(replay: bool = True):
    generator = PuzzleGenerator(CONFIG, seed_source=SequentialSeedSource())
    verifier = PuzzleVerifier(
        CONFIG, replay_cache=ReplayCache(ttl=CONFIG.ttl) if replay else None
    )
    return generator, verifier


class TestSolveVerifyRoundTrip:
    @pytest.mark.parametrize("difficulty", [0, 1, 4, 8, 12])
    def test_round_trip(self, difficulty):
        generator, verifier = fresh_stack()
        puzzle = generator.issue(CLIENT, difficulty, now=0.0)
        solution = HashSolver().solve(puzzle, CLIENT)
        result = verifier.verify(puzzle, solution, CLIENT, now=1.0)
        assert result.difficulty == difficulty
        assert result.zero_bits >= difficulty

    @settings(max_examples=25, deadline=None)
    @given(difficulty=st.integers(0, 10), base=st.integers(0, 2**30))
    def test_round_trip_property(self, difficulty, base):
        generator = PuzzleGenerator(
            CONFIG, seed_source=SequentialSeedSource(base=base)
        )
        verifier = PuzzleVerifier(CONFIG)
        puzzle = generator.issue(CLIENT, difficulty, now=0.0)
        solution = HashSolver().solve(puzzle, CLIENT)
        result = verifier.verify(puzzle, solution, CLIENT, now=0.5)
        assert result.zero_bits >= difficulty

    def test_solution_digest_actually_meets_target(self):
        generator, _ = fresh_stack()
        puzzle = generator.issue(CLIENT, 10, now=0.0)
        solution = HashSolver().solve(puzzle, CLIENT)
        hasher = get_hasher(puzzle.algorithm)
        digest = hasher(
            puzzle.prefix(CLIENT) + solution.nonce.to_bytes(4, "big")
        )
        assert meets_difficulty(digest, 10)

    def test_sampled_solver_solutions_verify(self):
        generator, verifier = fresh_stack()
        import random

        solver = SampledSolver(rng=random.Random(5))
        puzzle = generator.issue(CLIENT, 6, now=0.0)
        solution = solver.solve(puzzle, CLIENT)
        assert verifier.verify(puzzle, solution, CLIENT, now=0.1)
        assert solution.attempts >= 1

    def test_alternative_hash_algorithms(self):
        for algorithm in ("sha1", "sha512", "blake2b"):
            config = dataclasses.replace(CONFIG, hash_algorithm=algorithm)
            generator = PuzzleGenerator(config)
            verifier = PuzzleVerifier(config)
            puzzle = generator.issue(CLIENT, 6, now=0.0)
            assert puzzle.algorithm == algorithm
            solution = HashSolver().solve(puzzle, CLIENT)
            assert verifier.verify(puzzle, solution, CLIENT, now=0.1)


class TestTamperRejection:
    def test_wrong_client_ip_rejected(self):
        generator, verifier = fresh_stack()
        puzzle = generator.issue(CLIENT, 4, now=0.0)
        solution = HashSolver().solve(puzzle, CLIENT)
        with pytest.raises(PuzzleIntegrityError):
            verifier.verify(puzzle, solution, "198.51.100.99", now=0.1)

    def test_tampered_difficulty_rejected(self):
        generator, verifier = fresh_stack()
        puzzle = generator.issue(CLIENT, 12, now=0.0)
        easier = dataclasses.replace(puzzle, difficulty=1)
        solution = HashSolver().solve(easier, CLIENT)
        with pytest.raises(PuzzleIntegrityError):
            verifier.verify(easier, solution, CLIENT, now=0.1)

    def test_forged_tag_rejected(self):
        generator, verifier = fresh_stack()
        puzzle = generator.issue(CLIENT, 4, now=0.0)
        forged = dataclasses.replace(puzzle, tag="00" * 16)
        solution = HashSolver().solve(forged, CLIENT)
        with pytest.raises(PuzzleIntegrityError):
            verifier.verify(forged, solution, CLIENT, now=0.1)

    def test_solution_for_other_puzzle_rejected(self):
        generator, verifier = fresh_stack()
        first = generator.issue(CLIENT, 4, now=0.0)
        second = generator.issue(CLIENT, 4, now=0.0)
        solution = HashSolver().solve(first, CLIENT)
        with pytest.raises(PuzzleIntegrityError):
            verifier.verify(second, solution, CLIENT, now=0.1)

    def test_bad_nonce_rejected(self):
        generator, verifier = fresh_stack()
        puzzle = generator.issue(CLIENT, 16, now=0.0)
        bad = Solution(puzzle_seed=puzzle.seed, nonce=0)
        # Nonce 0 fails a 16-difficult target with prob 1 - 2**-16.
        with pytest.raises(SolutionInvalidError):
            verifier.verify(puzzle, bad, CLIENT, now=0.1)

    def test_keys_must_match(self):
        generator = PuzzleGenerator(CONFIG)
        other = PuzzleVerifier(
            dataclasses.replace(CONFIG, secret_key=b"different-key")
        )
        puzzle = generator.issue(CLIENT, 2, now=0.0)
        solution = HashSolver().solve(puzzle, CLIENT)
        with pytest.raises(PuzzleIntegrityError):
            other.verify(puzzle, solution, CLIENT, now=0.1)


class TestExpiryAndReplay:
    def test_expired_puzzle_rejected(self):
        generator, verifier = fresh_stack()
        puzzle = generator.issue(CLIENT, 2, now=0.0)
        solution = HashSolver().solve(puzzle, CLIENT)
        with pytest.raises(PuzzleExpiredError):
            verifier.verify(puzzle, solution, CLIENT, now=CONFIG.ttl + 1)

    def test_replay_rejected(self):
        generator, verifier = fresh_stack()
        puzzle = generator.issue(CLIENT, 2, now=0.0)
        solution = HashSolver().solve(puzzle, CLIENT)
        verifier.verify(puzzle, solution, CLIENT, now=0.1)
        with pytest.raises(ReplayedSolutionError):
            verifier.verify(puzzle, solution, CLIENT, now=0.2)

    def test_replay_allowed_without_cache(self):
        generator, verifier = fresh_stack(replay=False)
        puzzle = generator.issue(CLIENT, 2, now=0.0)
        solution = HashSolver().solve(puzzle, CLIENT)
        verifier.verify(puzzle, solution, CLIENT, now=0.1)
        assert verifier.verify(puzzle, solution, CLIENT, now=0.2)

    def test_verifier_counts(self):
        generator, verifier = fresh_stack()
        puzzle = generator.issue(CLIENT, 2, now=0.0)
        solution = HashSolver().solve(puzzle, CLIENT)
        verifier.verify(puzzle, solution, CLIENT, now=0.1)
        with pytest.raises(ReplayedSolutionError):
            verifier.verify(puzzle, solution, CLIENT, now=0.2)
        assert verifier.accepted_count == 1
        assert verifier.rejected_count == 1


class TestReplayCache:
    def test_eviction_by_ttl(self):
        cache = ReplayCache(ttl=10.0)
        assert cache.check_and_add("a", now=0.0)
        assert not cache.check_and_add("a", now=5.0)
        # After the TTL the entry is evicted; re-adding succeeds (the
        # freshness check upstream rejects such puzzles anyway).
        assert cache.check_and_add("a", now=20.0)

    def test_eviction_by_capacity(self):
        cache = ReplayCache(ttl=1000.0, max_entries=3)
        for i in range(5):
            assert cache.check_and_add(f"seed-{i}", now=float(i))
        assert len(cache) <= 3

    def test_a_replay_at_the_cap_is_refused(self):
        # The cap evicts the oldest seed only after the redeemed one is
        # claimed: evicting first made room by dropping ``s1`` and then
        # served its replay a second time.
        cache = ReplayCache(ttl=1000.0, max_entries=2)
        assert cache.check_and_add("s1", now=0.0)
        assert cache.check_and_add("s2", now=1.0)
        assert not cache.check_and_add("s1", now=2.0)
        assert [seed for seed, _ in cache._seen.items()] == ["s1", "s2"]
        assert cache.check_and_add("s3", now=3.0)
        assert [seed for seed, _ in cache._seen.items()] == ["s2", "s3"]

    def test_a_replay_in_the_same_instant_is_still_a_replay(self):
        # Same seed, owner and clock: only the claim's token tells the
        # replay's entry from the first redemption's.
        cache = ReplayCache(ttl=10.0)
        assert cache.check_and_add("a", now=1.0, owner="10.0.0.1")
        assert not cache.check_and_add("a", now=1.0, owner="10.0.0.1")

    def test_entries_without_a_claim_token_still_block_their_seed(self):
        # Written as ``[redeemed_at, owner_ip]`` before claims carried a
        # token: restored, it is never taken for this call's own claim.
        from repro.state import InMemoryStateStore

        store = InMemoryStateStore()
        store.restore({
            "format": 1, "kind": "memory",
            "namespaces": {"replay": [["old", [5.0, "10.0.0.1"]]]},
        })
        cache = ReplayCache(ttl=100.0, store=store)
        assert not cache.check_and_add("old", now=10.0, owner="10.0.0.1")
        assert store.get("replay", "old") == [5.0, "10.0.0.1"]
        # Past the TTL it is stale like any entry, and claimed over.
        assert cache.check_and_add("old", now=200.0, owner="10.0.0.1")
        assert store.get("replay", "old")[:2] == [200.0, "10.0.0.1"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayCache(ttl=0)
        with pytest.raises(ValueError):
            ReplayCache(max_entries=0)


class TestNonceExhaustion:
    def test_exhaustion_raises(self):
        generator, _ = fresh_stack()
        puzzle = generator.issue(CLIENT, 20, now=0.0)
        solver = HashSolver(max_attempts=10)
        # 10 attempts at difficulty 20 fail with prob (1 - 2**-20)**10.
        with pytest.raises(NonceSpaceExhaustedError) as excinfo:
            solver.solve(puzzle, CLIENT)
        assert excinfo.value.attempts == 10
        assert excinfo.value.difficulty == 20

    def test_tiny_nonce_space_exhausts(self):
        generator, _ = fresh_stack()
        puzzle = generator.issue(CLIENT, 20, now=0.0)
        solver = HashSolver(nonce_bits=2)
        with pytest.raises(NonceSpaceExhaustedError):
            solver.solve(puzzle, CLIENT)


class TestGenerator:
    def test_unique_seeds(self):
        generator, _ = fresh_stack()
        seeds = {generator.issue(CLIENT, 1, now=0.0).seed for _ in range(50)}
        assert len(seeds) == 50
        assert generator.issued_count == 50

    def test_difficulty_above_max_rejected(self):
        from repro.core.errors import ConfigError

        generator, _ = fresh_stack()
        with pytest.raises(ConfigError):
            generator.issue(CLIENT, CONFIG.max_difficulty + 1, now=0.0)

    def test_empty_ip_rejected(self):
        generator, _ = fresh_stack()
        with pytest.raises(ValueError):
            generator.issue("", 1, now=0.0)

    def test_negative_difficulty_rejected(self):
        generator, _ = fresh_stack()
        with pytest.raises(ValueError):
            generator.issue(CLIENT, -1, now=0.0)
