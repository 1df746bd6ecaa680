"""The PoW asymmetry, counted in hash evaluations.

The paper's §II.5 calls verification "light weight": solving work
doubles per difficulty bit while verification stays one hash.  Counting
hashes instead of timing them makes the claim exact on any machine.
"""

from __future__ import annotations

from repro.core.config import PowConfig
from repro.pow import verifier as verifier_module
from repro.pow.generator import PuzzleGenerator
from repro.pow.seeds import SequentialSeedSource
from repro.pow.solver import HashSolver
from repro.pow.verifier import PuzzleVerifier

CLIENT = "198.51.100.77"
CONFIG = PowConfig(secret_key=b"bench-key")

#: Hash evaluations each difficulty's first ``SequentialSeedSource``
#: puzzle takes to solve under ``CONFIG`` — fixed by the seed sequence.
SEQUENTIAL_ATTEMPTS = {4: 1, 8: 47, 12: 1655}


def test_solve_verify_asymmetry_table(monkeypatch):
    """Solve work grows with difficulty; verify work is one hash.

    Puzzles come from a sequential seed source, so each difficulty's
    attempt count is fixed, and verification is counted through the
    verifier's hasher.
    """
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
    counts = {}
    for difficulty in SEQUENTIAL_ATTEMPTS:
        puzzle = generator.issue(CLIENT, difficulty, now=0.0)
        solution = solver.solve(puzzle, CLIENT)
        verify_hashes = 0
        with monkeypatch.context() as patch:
            patch.setattr(verifier_module, "get_hasher", counting_hasher)
            assert verifier.verify(puzzle, solution, CLIENT, 1.0)
        counts[difficulty] = (solution.attempts, verify_hashes)
    # (solve hashes, verify hashes): the asymmetry grows with difficulty.
    assert counts == {
        difficulty: (attempts, 1)
        for difficulty, attempts in SEQUENTIAL_ATTEMPTS.items()
    }
