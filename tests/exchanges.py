"""A stateful challenge/redeem campaign shared by the parity tests.

Per-client exchange sequences that move behavioural feedback both
ways, so a store or a sharding that drops, reorders or misroutes state
shows up as a different decision stream.  Used by the cluster's shard
parity (``tests/net/test_cluster.py``) and the networked store's
parity drill (``tests/state/test_netstore_drills.py``).
"""

from __future__ import annotations

from repro.core.records import ClientRequest
from repro.pow.puzzle import Solution
from repro.pow.solver import HashSolver
from repro.reputation.dataset import generate_corpus


def spread_examples(corpus_size: int = 1200, count: int = 6):
    """Held-out examples with a spread of reputations.

    Low enough that honest solving stays fast.
    """
    _, test = generate_corpus(size=corpus_size, seed=7).split()
    ranked = sorted(test, key=lambda example: example.true_score)
    return ranked[:: max(1, len(ranked) // 8)][:count]


def hostile_solution(challenge) -> Solution:
    """A solution that is *deterministically* rejected.

    Naming a different puzzle seed fails the integrity check on every
    run; a merely-wrong nonce would accidentally satisfy a low
    difficulty with probability ``2**-d``, making outcomes depend on
    the (random) puzzle seed.
    """
    wrong_seed = "00" * (len(challenge.puzzle.seed) // 2)
    if wrong_seed == challenge.puzzle.seed:  # pragma: no cover
        wrong_seed = "ff" * (len(challenge.puzzle.seed) // 2)
    return Solution(
        puzzle_seed=wrong_seed, nonce=0, attempts=1, elapsed=0.0
    )


def replay_trace(framework, trace):
    """Drive (ip, features, honest) exchanges; return the decisions.

    ``honest`` exchanges are solved for real (SERVED feeds the reward
    path); dishonest ones submit a guaranteed-invalid solution
    (REJECTED feeds the penalty path).  Returns one
    (score, difficulty) pair per request — exact floats, no rounding.
    """
    solver = HashSolver()
    decisions = []
    for index, (ip, features, honest) in enumerate(trace):
        request = ClientRequest(
            client_ip=ip,
            resource="/index.html",
            timestamp=1_000.0 + index,
            features=features,
        )
        challenge = framework.challenge(request, now=request.timestamp)
        decision = challenge.decision
        decisions.append(
            (decision.reputation_score, decision.difficulty)
        )
        if honest and challenge.puzzle.difficulty <= 12:
            solution = solver.solve(challenge.puzzle, ip)
        else:
            solution = hostile_solution(challenge)
        framework.redeem(challenge, solution, now=request.timestamp + 0.5)
    return decisions


def build_trace(examples, rounds=4):
    """Per-IP request sequences with mixed honest/hostile behaviour."""
    trace = []
    for round_index in range(rounds):
        for client, example in enumerate(examples):
            ip = f"10.42.0.{client + 1}"
            honest = (client + round_index) % 3 != 0
            trace.append((ip, example.features, honest))
    return trace
