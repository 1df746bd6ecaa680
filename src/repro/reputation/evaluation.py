"""Classifier and regression metrics for reputation models.

The paper reports DAbR at "an accuracy of 80 %" treating scoring as a
binary decision (malicious iff score ≥ threshold).  These helpers
compute that accuracy, its companion metrics, and the score error ε that
Policy 3 needs — all from a fitted model and a held-out corpus.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.interfaces import ReputationModel
from repro.reputation.base import model_score_batch
from repro.reputation.dataset import ThreatIntelCorpus

__all__ = [
    "ConfusionMatrix",
    "EvaluationReport",
    "evaluate_model",
    "estimate_epsilon",
    "roc_auc",
]

#: Scores at or above this value classify an IP as malicious.
DEFAULT_THRESHOLD = 5.0


@dataclasses.dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """Binary confusion counts (positive class = malicious)."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


@dataclasses.dataclass(frozen=True, slots=True)
class EvaluationReport:
    """Full evaluation of one model on one corpus."""

    model_name: str
    threshold: float
    confusion: ConfusionMatrix
    epsilon: float
    """Mean absolute error between predicted and ground-truth scores."""
    epsilon_p90: float
    """90th percentile of the absolute score error."""
    auc: float
    """Area under the ROC curve of the score as a malicious detector."""

    @property
    def accuracy(self) -> float:
        return self.confusion.accuracy

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.model_name}: accuracy={self.accuracy:.1%} "
            f"precision={self.confusion.precision:.1%} "
            f"recall={self.confusion.recall:.1%} "
            f"auc={self.auc:.3f} eps={self.epsilon:.2f}"
        )


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC via the rank-statistic (Mann–Whitney) formulation.

    Ties receive half credit, matching the standard definition.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same shape")
    positives = scores[labels == 1]
    negatives = scores[labels == 0]
    if positives.size == 0 or negatives.size == 0:
        return 0.5
    greater = (positives[:, None] > negatives[None, :]).sum()
    ties = (positives[:, None] == negatives[None, :]).sum()
    return float((greater + 0.5 * ties) / (positives.size * negatives.size))


def evaluate_model(
    model: ReputationModel,
    corpus: ThreatIntelCorpus,
    threshold: float = DEFAULT_THRESHOLD,
) -> EvaluationReport:
    """Score every example in ``corpus`` and compute the full report.

    One ``score_batch`` pass over the corpus feature matrix (a
    scalar-only model is looped by
    :func:`~repro.reputation.base.model_score_batch`).
    """
    if len(corpus) == 0:
        raise ValueError("cannot evaluate on an empty corpus")
    scores = model_score_batch(model, corpus.feature_matrix())
    labels = corpus.labels()
    truth = corpus.true_scores()

    predicted_malicious = scores >= threshold
    actual_malicious = labels == 1
    confusion = ConfusionMatrix(
        tp=int(np.sum(predicted_malicious & actual_malicious)),
        fp=int(np.sum(predicted_malicious & ~actual_malicious)),
        tn=int(np.sum(~predicted_malicious & ~actual_malicious)),
        fn=int(np.sum(~predicted_malicious & actual_malicious)),
    )
    errors = np.abs(scores - truth)
    return EvaluationReport(
        model_name=model.name,
        threshold=threshold,
        confusion=confusion,
        epsilon=float(errors.mean()),
        epsilon_p90=float(np.percentile(errors, 90)),
        auc=roc_auc(scores, labels),
    )


def estimate_epsilon(
    model: ReputationModel, corpus: ThreatIntelCorpus
) -> float:
    """The DAbR error ε consumed by Policy 3: mean |predicted − truth|."""
    report = evaluate_model(model, corpus)
    return report.epsilon
