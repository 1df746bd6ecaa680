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


#: Hash evaluations each difficulty's first ``SequentialSeedSource``
#: puzzle takes to solve under ``CONFIG`` — fixed by the seed sequence.
SEQUENTIAL_ATTEMPTS = {4: 1, 8: 47, 12: 1655}


def test_solve_verify_asymmetry_table(monkeypatch):
    """Solve work grows with difficulty; verify work is one hash.

    The assertion counts hash evaluations, so a loaded machine cannot
    flip it: puzzles come from a sequential seed source, so each
    difficulty's attempt count is fixed, and verification is counted
    through the verifier's hasher.  The timed table (best of several
    repeats) is printed for the record, not asserted.
    """
    import time

    from repro.pow import verifier as verifier_module

    verify_hashes = 0
    real_hasher = verifier_module.get_hasher

    def counting_hasher(name):
        hasher = real_hasher(name)

        def counted(data: bytes) -> bytes:
            nonlocal verify_hashes
            verify_hashes += 1
            return hasher(data)

        return counted

    generator = PuzzleGenerator(CONFIG, seed_source=SequentialSeedSource())
    verifier = PuzzleVerifier(CONFIG, replay_cache=None)
    solver = HashSolver()
    repeats = 5
    rows = []
    counts = {}
    for difficulty in SEQUENTIAL_ATTEMPTS:
        puzzle = generator.issue(CLIENT, difficulty, now=0.0)
        solution = solver.solve(puzzle, CLIENT)
        verify_hashes = 0
        with monkeypatch.context() as patch:
            patch.setattr(verifier_module, "get_hasher", counting_hasher)
            assert verifier.verify(puzzle, solution, CLIENT, 1.0)
        counts[difficulty] = (solution.attempts, verify_hashes)

        solve_s = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            solver.solve(puzzle, CLIENT)
            solve_s = min(solve_s, time.perf_counter() - started)
        verify_s = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(100):
                verifier.verify(puzzle, solution, CLIENT, 1.0)
            verify_s = min(verify_s, (time.perf_counter() - started) / 100)
        rows.append(
            [difficulty, solution.attempts, solve_s * 1e3, verify_s * 1e6,
             solve_s / verify_s if verify_s else float("inf")]
        )
    from repro.metrics.reporting import render_table

    print()
    print(
        render_table(
            ["difficulty", "attempts", "solve_ms", "verify_us", "asymmetry_x"],
            rows,
            title="PoW asymmetry - solve vs verify cost",
        )
    )
    # (solve hashes, verify hashes): the asymmetry grows with difficulty.
    assert counts == {
        difficulty: (attempts, 1)
        for difficulty, attempts in SEQUENTIAL_ATTEMPTS.items()
    }
