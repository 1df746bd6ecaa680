"""AI subsystem: reputation scoring of incoming IP traffic.

The canonical model is :class:`DAbRModel` — the Euclidean-distance
scorer the paper uses — trained on a synthetic threat-intelligence
corpus that substitutes for the proprietary feed (DESIGN.md §3):

>>> from repro.reputation import DAbRModel, generate_corpus
>>> corpus = generate_corpus(size=3000, seed=7)
>>> train, test = corpus.split()
>>> model = DAbRModel().fit(train)
>>> 0.0 <= model.score(test[0].features) <= 10.0
True
"""

from repro.reputation.base import BaseReputationModel, clamp_score
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import (
    CorpusParams,
    LabeledExample,
    ThreatIntelCorpus,
    generate_corpus,
)
from repro.reputation.dataset import synthesize_features
from repro.reputation.ensemble import (
    AverageEnsemble,
    ConstantModel,
    MaxEnsemble,
    NoisyModel,
)
from repro.reputation.evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    estimate_epsilon,
    evaluate_model,
    roc_auc,
)
from repro.reputation.features import (
    DEFAULT_SCHEMA,
    FEATURE_NAMES,
    FeatureSchema,
    FeatureSpec,
)
from repro.reputation.caching import CachedModel
from repro.reputation.feedback import FeedbackConfig, FeedbackReputationModel
from repro.reputation.knn import KNNReputationModel
from repro.reputation.logistic import LogisticReputationModel

__all__ = [
    "DAbRModel",
    "KNNReputationModel",
    "LogisticReputationModel",
    "FeedbackReputationModel",
    "FeedbackConfig",
    "CachedModel",
    "BaseReputationModel",
    "clamp_score",
    "AverageEnsemble",
    "MaxEnsemble",
    "NoisyModel",
    "ConstantModel",
    "synthesize_features",
    "ThreatIntelCorpus",
    "LabeledExample",
    "CorpusParams",
    "generate_corpus",
    "FeatureSchema",
    "FeatureSpec",
    "DEFAULT_SCHEMA",
    "FEATURE_NAMES",
    "ConfusionMatrix",
    "EvaluationReport",
    "evaluate_model",
    "estimate_epsilon",
    "roc_auc",
]
