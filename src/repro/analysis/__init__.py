"""Analytics: closed-form latency math, comparison, policy synthesis."""

from repro.analysis.comparison import compare_policies
from repro.analysis.latency import (
    difficulty_distribution,
    latency_curve,
    latency_quantile,
    mean_latency,
)
from repro.analysis.synthesis import (
    difficulty_for_latency,
    price_out_policy,
    synthesize_table_policy,
)

__all__ = [
    "difficulty_distribution",
    "mean_latency",
    "latency_quantile",
    "latency_curve",
    "compare_policies",
    "difficulty_for_latency",
    "synthesize_table_policy",
    "price_out_policy",
]
