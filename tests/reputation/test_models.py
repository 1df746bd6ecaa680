"""Tests for DAbR, k-NN, ensembles and the evaluation metrics."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelNotFittedError
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import generate_corpus, synthesize_features
from repro.reputation.ensemble import (
    AverageEnsemble,
    ConstantModel,
    MaxEnsemble,
    NoisyModel,
)
from repro.reputation.evaluation import (
    ConfusionMatrix,
    estimate_epsilon,
    evaluate_model,
    roc_auc,
)
from repro.reputation.features import FEATURE_NAMES
from repro.reputation.knn import KNNReputationModel


def features_at(value: float) -> dict[str, float]:
    return {name: value for name in FEATURE_NAMES}


class TestDAbR:
    def test_unfitted_scoring_raises(self):
        with pytest.raises(ModelNotFittedError):
            DAbRModel().score(features_at(5.0))

    def test_scores_in_range(self, corpus_split, fitted_dabr):
        _, test = corpus_split
        for example in test.examples[:200]:
            assert 0.0 <= fitted_dabr.score(example.features) <= 10.0

    def test_malicious_score_higher_on_average(self, corpus_split, fitted_dabr):
        _, test = corpus_split
        malicious = np.mean(
            [fitted_dabr.score(e.features) for e in test.malicious]
        )
        benign = np.mean([fitted_dabr.score(e.features) for e in test.benign])
        assert malicious > benign + 2.0

    def test_score_monotone_in_distance(self, fitted_dabr, corpus_split):
        _, test = corpus_split
        pairs = [
            (fitted_dabr.distance(e.features), fitted_dabr.score(e.features))
            for e in test.examples[:100]
        ]
        pairs.sort()
        scores = [s for _, s in pairs]
        assert all(b <= a + 1e-9 for a, b in zip(scores, scores[1:]))

    def test_centroid_scores_ten(self, fitted_dabr):
        # The exact centroid is distance 0 => score 10 by construction.
        centroid_features = fitted_dabr.schema.to_mapping(
            fitted_dabr._centroid * 10.0  # denormalise: spans are [0, 10]
        )
        assert fitted_dabr.score(centroid_features) == pytest.approx(10.0)

    def test_accuracy_near_paper_figure(self, corpus_split, fitted_dabr):
        _, test = corpus_split
        report = evaluate_model(fitted_dabr, test)
        # The paper reports 80%; the synthetic corpus is calibrated to
        # land in the same band.
        assert 0.74 <= report.accuracy <= 0.88

    def test_requires_malicious_examples(self):
        corpus = generate_corpus(size=400, seed=3)
        benign_only = type(corpus)(
            corpus.benign, corpus.schema, corpus.params, corpus.seed
        )
        with pytest.raises(ValueError, match="malicious"):
            DAbRModel().fit(benign_only)

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            DAbRModel(scale_percentile=0.0)
        with pytest.raises(ValueError):
            DAbRModel(gamma=0.0)

    def test_fit_returns_self(self, corpus_split):
        train, _ = corpus_split
        model = DAbRModel()
        assert model.fit(train) is model
        assert 0.0 <= model.score(next(iter(train)).features) <= 10.0


class TestKNN:
    def test_scores_in_range(self, corpus_split):
        train, test = corpus_split
        model = KNNReputationModel(k=9).fit(train)
        for example in test.examples[:100]:
            assert 0.0 <= model.score(example.features) <= 10.0

    def test_pure_neighbourhood_scores_extreme(self, corpus_split):
        train, _ = corpus_split
        model = KNNReputationModel(k=5).fit(train)
        # A point far in the benign corner should have all-benign
        # neighbours => score ~0.
        assert model.score(features_at(0.0)) < 2.0
        assert model.score(features_at(10.0)) > 8.0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KNNReputationModel(k=0)

    def test_beats_chance(self, corpus_split):
        train, test = corpus_split
        model = KNNReputationModel().fit(train)
        report = evaluate_model(model, test)
        assert report.accuracy > 0.7


class TestEnsembles:
    def test_average_between_members(self, corpus_split):
        train, test = corpus_split
        members = [ConstantModel(2.0), ConstantModel(8.0)]
        ensemble = AverageEnsemble(members)
        assert ensemble.score(features_at(1.0)) == pytest.approx(5.0)

    def test_weighted_average(self):
        ensemble = AverageEnsemble(
            [ConstantModel(0.0), ConstantModel(10.0)], weights=[3.0, 1.0]
        )
        assert ensemble.score(features_at(1.0)) == pytest.approx(2.5)

    def test_max_ensemble(self):
        ensemble = MaxEnsemble([ConstantModel(2.0), ConstantModel(7.0)])
        assert ensemble.score(features_at(1.0)) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AverageEnsemble([])
        with pytest.raises(ValueError):
            AverageEnsemble([ConstantModel(1.0)], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            AverageEnsemble([ConstantModel(1.0)], weights=[0.0])
        with pytest.raises(ValueError):
            MaxEnsemble([])

    def test_noisy_model_bounded(self):
        noisy = NoisyModel(
            ConstantModel(5.0), epsilon=2.0, rng=random.Random(1)
        )
        for _ in range(100):
            assert 3.0 <= noisy.score(features_at(1.0)) <= 7.0

    def test_noisy_model_clamps_to_scale(self):
        noisy = NoisyModel(
            ConstantModel(9.5), epsilon=2.0, rng=random.Random(2)
        )
        scores = [noisy.score(features_at(1.0)) for _ in range(100)]
        assert max(scores) <= 10.0

    def test_names_describe_structure(self):
        ensemble = AverageEnsemble([ConstantModel(1.0), ConstantModel(2.0)])
        assert ensemble.name.startswith("avg(")
        noisy = NoisyModel(ConstantModel(1.0), epsilon=1.0)
        assert "eps=1" in noisy.name


class TestEvaluation:
    def test_confusion_metrics(self):
        confusion = ConfusionMatrix(tp=40, fp=10, tn=45, fn=5)
        assert confusion.total == 100
        assert confusion.accuracy == pytest.approx(0.85)
        assert confusion.precision == pytest.approx(0.8)
        assert confusion.recall == pytest.approx(8 / 9)
        assert 0 < confusion.f1 < 1

    def test_confusion_degenerate(self):
        empty = ConfusionMatrix(tp=0, fp=0, tn=0, fn=0)
        assert empty.accuracy == 0.0
        assert empty.precision == 0.0
        assert empty.f1 == 0.0

    def test_roc_auc_perfect_separation(self):
        scores = np.array([1.0, 2.0, 8.0, 9.0])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 1.0

    def test_roc_auc_inverted(self):
        scores = np.array([9.0, 8.0, 1.0, 2.0])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 0.0

    def test_roc_auc_ties_half_credit(self):
        scores = np.array([5.0, 5.0])
        labels = np.array([0, 1])
        assert roc_auc(scores, labels) == 0.5

    def test_roc_auc_degenerate_single_class(self):
        assert roc_auc(np.array([1.0, 2.0]), np.array([1, 1])) == 0.5

    def test_epsilon_nonnegative(self, corpus_split, fitted_dabr):
        _, test = corpus_split
        assert estimate_epsilon(fitted_dabr, test) >= 0.0

    def test_evaluate_empty_corpus_rejected(self, corpus_split, fitted_dabr):
        corpus, _ = corpus_split
        empty = type(corpus)((), corpus.schema, corpus.params, corpus.seed)
        with pytest.raises(ValueError):
            evaluate_model(fitted_dabr, empty)


class TestConstantModel:
    def test_constant_everywhere(self):
        model = ConstantModel(4.2)
        assert model.score(features_at(0.0)) == 4.2
        assert model.score(features_at(10.0)) == 4.2

    def test_clamped_to_scale(self):
        assert ConstantModel(99.0).score(features_at(1.0)) == 10.0


@settings(max_examples=30, deadline=None)
@given(intensity=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_dabr_score_defined_on_whole_intensity_range(intensity):
    """Property: any synthesizable traffic is scoreable."""
    train, _ = generate_corpus(size=600, seed=21).split()
    model = DAbRModel().fit(train)
    features = synthesize_features(intensity, random.Random(3))
    assert 0.0 <= model.score(features) <= 10.0
