"""Bench `abl-verify`: PoW micro-costs (DESIGN.md §4/§5).

The paper's §II.5 calls verification "light weight".  These benches
quantify the asymmetry: solving cost doubles per difficulty bit while
verification stays constant — the property the whole defense rests on.
"""

from __future__ import annotations

import pytest

from repro.core.config import PowConfig
from repro.pow.generator import PuzzleGenerator
from repro.pow.seeds import SequentialSeedSource
from repro.pow.solver import HashSolver
from repro.pow.verifier import PuzzleVerifier, ReplayCache

CLIENT = "198.51.100.77"
CONFIG = PowConfig(secret_key=b"bench-key")


@pytest.mark.parametrize("difficulty", [4, 8, 12])
def test_solve_cost_by_difficulty(benchmark, difficulty):
    """Solving cost roughly doubles per extra zero bit."""
    generator = PuzzleGenerator(CONFIG)
    solver = HashSolver()
    counter = iter(range(10_000_000))

    def issue_and_solve():
        puzzle = generator.issue(CLIENT, difficulty, now=float(next(counter)))
        return solver.solve(puzzle, CLIENT)

    solution = benchmark(issue_and_solve)
    assert solution.attempts >= 1


def test_verify_cost_is_flat(benchmark):
    """One verification = 1 HMAC + 1 hash, independent of difficulty."""
    generator = PuzzleGenerator(CONFIG)
    verifier = PuzzleVerifier(CONFIG, replay_cache=None)
    puzzle = generator.issue(CLIENT, 12, now=0.0)
    solution = HashSolver().solve(puzzle, CLIENT)

    result = benchmark(verifier.verify, puzzle, solution, CLIENT, 1.0)
    assert result.difficulty == 12


def test_verify_with_replay_cache(benchmark):
    """Replay protection adds one ordered-dict round trip per verify."""
    generator = PuzzleGenerator(CONFIG)
    cache = ReplayCache(ttl=1e9, max_entries=1_000_000)
    verifier = PuzzleVerifier(CONFIG, replay_cache=cache)
    puzzles = [generator.issue(CLIENT, 2, now=0.0) for _ in range(64)]
    solver = HashSolver()
    solutions = [solver.solve(p, CLIENT) for p in puzzles]
    state = {"i": 0}

    def verify_cycle():
        i = state["i"] % 64
        state["i"] += 1
        # After the first 64 calls every verification takes the replay
        # branch, which is the worst case being measured.
        try:
            return verifier.verify(puzzles[i], solutions[i], CLIENT, 1.0)
        except Exception:
            return None

    benchmark(verify_cycle)


def test_puzzle_generation_throughput(benchmark):
    """Challenge issuance is the hot server path during a flood."""
    generator = PuzzleGenerator(CONFIG)
    counter = iter(range(100_000_000))
    puzzle = benchmark(
        lambda: generator.issue(CLIENT, 15, now=float(next(counter)))
    )
    assert puzzle.difficulty == 15


def test_solve_verify_asymmetry_table():
    """Prints the asymmetry table (work ratio solver/verifier).

    Puzzles come from a sequential seed source, so each difficulty's
    attempt count is fixed; each timing is the best of several repeats,
    so a scheduler stall on a loaded machine cannot invert the ordering.
    """
    import time

    generator = PuzzleGenerator(CONFIG, seed_source=SequentialSeedSource())
    verifier = PuzzleVerifier(CONFIG, replay_cache=None)
    solver = HashSolver()
    repeats = 5
    rows = []
    for difficulty in (4, 8, 12):
        puzzle = generator.issue(CLIENT, difficulty, now=0.0)
        solve_s = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            solution = solver.solve(puzzle, CLIENT)
            solve_s = min(solve_s, time.perf_counter() - started)
        verify_s = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(100):
                verifier.verify(puzzle, solution, CLIENT, 1.0)
            verify_s = min(verify_s, (time.perf_counter() - started) / 100)
        rows.append(
            [difficulty, solve_s * 1e3, verify_s * 1e6,
             solve_s / verify_s if verify_s else float("inf")]
        )
    from repro.metrics.reporting import render_table

    print()
    print(
        render_table(
            ["difficulty", "solve_ms", "verify_us", "asymmetry_x"],
            rows,
            title="PoW asymmetry - solve vs verify cost",
        )
    )
    # Asymmetry must grow with difficulty.
    assert rows[-1][3] > rows[0][3]
