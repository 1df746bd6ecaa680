"""Tests for fractional (target-based) difficulty."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NonceSpaceExhaustedError, SolutionInvalidError
from repro.policies.fractional import FractionalLinearPolicy
from repro.pow.fractional import (
    FractionalSolver,
    difficulty_for_target,
    expected_attempts_fractional,
    meets_target,
    target_for_difficulty,
    verify_fractional,
)
from repro.pow.generator import PuzzleGenerator
from repro.pow.seeds import SequentialSeedSource

CLIENT = "198.51.100.55"


class TestTargetMath:
    def test_zero_difficulty_accepts_everything(self):
        target = target_for_difficulty(0.0)
        assert meets_target(b"\xff" * 32, target) or target == 1 << 256
        # Max digest is 2**256 - 1 < 2**256 == target.
        assert meets_target(b"\xff" * 32, target)

    def test_each_unit_halves_target(self):
        a = target_for_difficulty(5.0)
        b = target_for_difficulty(6.0)
        assert b == pytest.approx(a / 2, rel=1e-9)

    def test_fractional_between_integers(self):
        mid = target_for_difficulty(10.5)
        assert target_for_difficulty(11.0) < mid < target_for_difficulty(10.0)

    def test_round_trip(self):
        for d in (0.5, 3.25, 10.0, 17.75):
            target = target_for_difficulty(d)
            assert difficulty_for_target(target) == pytest.approx(d, abs=1e-6)

    def test_extreme_difficulty_clamps_to_one(self):
        assert target_for_difficulty(400.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            target_for_difficulty(-1.0)
        with pytest.raises(ValueError):
            difficulty_for_target(0)

    def test_expected_attempts(self):
        assert expected_attempts_fractional(10.5) == pytest.approx(2**10.5)
        with pytest.raises(ValueError):
            expected_attempts_fractional(-0.5)

    @given(st.floats(min_value=0.0, max_value=64.0, allow_nan=False))
    def test_target_monotone_decreasing_property(self, d):
        assert target_for_difficulty(d + 0.5) <= target_for_difficulty(d)


class TestFractionalSolveVerify:
    @pytest.mark.parametrize("difficulty", [0.0, 2.5, 6.25, 9.5])
    def test_round_trip(self, difficulty):
        generator = PuzzleGenerator()
        puzzle = generator.issue(CLIENT, 0, now=0.0)
        solution = FractionalSolver().solve(puzzle, CLIENT, difficulty)
        assert verify_fractional(puzzle, solution, CLIENT, difficulty)

    def test_wrong_difficulty_rejected(self):
        generator = PuzzleGenerator()
        puzzle = generator.issue(CLIENT, 0, now=0.0)
        solution = FractionalSolver().solve(puzzle, CLIENT, 2.0)
        # A 2.0-difficulty solution will essentially never satisfy 16.0.
        with pytest.raises(SolutionInvalidError):
            verify_fractional(puzzle, solution, CLIENT, 16.0)

    def test_wrong_client_rejected(self):
        generator = PuzzleGenerator()
        puzzle = generator.issue(CLIENT, 0, now=0.0)
        solution = FractionalSolver().solve(puzzle, CLIENT, 12.0)
        with pytest.raises(SolutionInvalidError):
            verify_fractional(puzzle, solution, "198.51.100.56", 12.0)

    def test_exhaustion(self):
        generator = PuzzleGenerator()
        puzzle = generator.issue(CLIENT, 0, now=0.0)
        solver = FractionalSolver(max_attempts=5)
        with pytest.raises(NonceSpaceExhaustedError):
            solver.solve(puzzle, CLIENT, 24.0)

    @settings(max_examples=10, deadline=None)
    @given(difficulty=st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
    def test_round_trip_property(self, difficulty):
        generator = PuzzleGenerator()
        puzzle = generator.issue(CLIENT, 0, now=0.0)
        solution = FractionalSolver().solve(puzzle, CLIENT, difficulty)
        assert verify_fractional(puzzle, solution, CLIENT, difficulty)

    def test_mean_attempts_track_fractional_difficulty(self):
        """d = 6.5 costs ~sqrt(2) more than d = 6 on average.

        Every difficulty solves the same deterministic puzzles, so the
        ordering is a fixed fact, not a draw.
        """
        solver = FractionalSolver()

        def mean_attempts(difficulty: float, n: int = 120) -> float:
            generator = PuzzleGenerator(seed_source=SequentialSeedSource())
            total = 0
            for i in range(n):
                puzzle = generator.issue(CLIENT, 0, now=float(i))
                total += solver.solve(puzzle, CLIENT, difficulty).attempts
            return total / n

        low = mean_attempts(6.0)
        high = mean_attempts(7.0)
        mid = mean_attempts(6.5)
        assert low < mid < high


class TestFractionalLinearPolicy:
    def test_fractional_values(self):
        policy = FractionalLinearPolicy(base=1.0, slope=0.7)
        assert policy.fractional_difficulty_for(5.0) == pytest.approx(4.5)

    def test_integer_protocol_rounds_up(self):
        policy = FractionalLinearPolicy(base=1.0, slope=0.7)
        rng = random.Random(0)
        assert policy.difficulty_for(5.0, rng) == math.ceil(4.5)

    def test_domain_enforced(self):
        policy = FractionalLinearPolicy()
        from repro.core.errors import PolicyDomainError

        with pytest.raises(PolicyDomainError):
            policy.fractional_difficulty_for(11.0)

    def test_granularity_beats_integer_quantisation(self):
        """Fractional policies hit intermediate work levels integers miss."""
        policy = FractionalLinearPolicy(base=1.0, slope=0.5)
        works = [
            expected_attempts_fractional(
                policy.fractional_difficulty_for(float(s))
            )
            for s in range(11)
        ]
        ratios = [b / a for a, b in zip(works, works[1:])]
        # Integer-bit policies only produce ratios that are powers of 2;
        # fractional slope 0.5 yields sqrt(2) steps.
        assert all(r == pytest.approx(math.sqrt(2), rel=1e-9) for r in ratios)

    def test_validation(self):
        with pytest.raises(ValueError):
            FractionalLinearPolicy(base=-1.0)
        with pytest.raises(ValueError):
            FractionalLinearPolicy(slope=0.0)
