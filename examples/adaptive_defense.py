#!/usr/bin/env python3
"""Adaptive defense: behavioural feedback plus synthesized policies.

Two extensions the paper's conclusion points toward, working together:

1. **Behavioural feedback** — a client that keeps submitting junk
   solutions drifts toward untrustworthy, so its puzzles escalate even
   though its *static* traffic features never change.
2. **Policy synthesis** — instead of hand-picking difficulties, the
   operator states latency budgets per score and the policy is derived
   from the calibrated latency model.

Run:  python examples/adaptive_defense.py
"""

from __future__ import annotations

from repro.analysis.synthesis import price_out_policy, synthesize_table_policy
from repro.attacks import AdaptiveAttacker
from repro.core.framework import AIPoWFramework
from repro.core.records import ClientRequest
from repro.metrics.reporting import render_table
from repro.pow.puzzle import Solution
from repro.reputation.ensemble import ConstantModel
from repro.reputation.feedback import FeedbackConfig, FeedbackReputationModel


def feedback_escalation() -> None:
    """A junk-solution client watches its own puzzles escalate."""
    print("=== behavioural feedback ===")
    model = FeedbackReputationModel(
        ConstantModel(3.0),  # static features say: mildly suspicious
        FeedbackConfig(penalty_step=1.5),
    )
    # Budgets: ~31 ms for trusted scores, ~1 s at score 10.
    policy = synthesize_table_policy(
        [0.031, 0.031, 0.04, 0.05, 0.07, 0.1, 0.15, 0.25, 0.4, 0.65, 1.0]
    )
    framework = AIPoWFramework(model, policy)
    model.attach(framework)

    ip = "110.8.8.8"
    rows = []
    for i in range(5):
        request = ClientRequest(
            client_ip=ip, resource="/r", timestamp=float(i), features={}
        )
        challenge = framework.challenge(request, now=float(i))
        # The client submits garbage every time.
        junk = Solution(puzzle_seed=challenge.puzzle.seed, nonce=0)
        response = framework.redeem(challenge, junk, now=float(i) + 0.05)
        rows.append(
            [
                i,
                f"{challenge.decision.reputation_score:.2f}",
                challenge.decision.difficulty,
                response.status.value,
            ]
        )
    print(
        render_table(
            ["exchange", "effective_score", "difficulty", "outcome"],
            rows,
            title="same client, same features - score driven by behaviour",
        )
    )


def synthesis_and_economics() -> None:
    """Derive the gentlest policy that prices out a known adversary."""
    print("\n=== policy synthesis vs attacker economics ===")
    attacker = AdaptiveAttacker(value_per_request=0.25, hash_rate=37_000.0)
    print(
        f"adversary: willing to burn {attacker.value_per_request}s/request "
        f"at {attacker.hash_rate:,.0f} hashes/s "
        f"-> break-even difficulty {attacker.break_even_difficulty()}"
    )
    policy = price_out_policy(attacker, threshold_score=8.0)
    print(f"derived policy: {policy.describe()}")
    rows = []
    import random

    rng = random.Random(0)
    for score in range(11):
        d = policy.difficulty_for(float(score), rng)
        rows.append(
            [
                score,
                d,
                f"{attacker.expected_cost_seconds(d):.3f}",
                "walks away" if not attacker.should_solve(d) else "solves",
            ]
        )
    print(
        render_table(
            ["score", "difficulty", "attacker_cost_s", "attacker_reaction"],
            rows,
        )
    )


if __name__ == "__main__":
    feedback_escalation()
    synthesis_and_economics()
