"""The columnar corpus draws what the scalar generator drew, bit for bit.

``_scalar_corpus`` below is the row-at-a-time generator the corpus used
before it was stored as columns: one dict and one ``LabeledExample``
per row, the same ``random.Random(seed)`` stream.  It is kept here,
and only here, as the oracle: every example, every split and the DAbR
fit that ``FrameworkSpec.build`` serves must equal what it gives.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.spec import FrameworkSpec
from repro.reputation.base import model_chain
from repro.reputation.dabr import DAbRModel
from repro.reputation.dataset import (
    CorpusParams,
    LabeledExample,
    generate_corpus,
    synthesize_features,
    train_rows,
)
from repro.reputation.features import DEFAULT_SCHEMA

#: The per-feature weights as the scalar generator had them.
_WEIGHTS = {
    "blacklist_score": 1.00,
    "spam_volume": 0.90,
    "scan_activity": 0.85,
    "malware_hosting": 0.80,
    "botnet_affinity": 0.95,
    "geo_risk": 0.55,
    "asn_reputation": 0.65,
    "conn_rate": 0.60,
    "failed_auth_rate": 0.75,
    "payload_entropy": 0.45,
}


def _scalar_features(intensity, rng, noise_sd=3.4, schema=DEFAULT_SCHEMA):
    features = {}
    for spec in schema.specs:
        weight = _WEIGHTS.get(spec.name, 0.7)
        mean = spec.low + weight * intensity * spec.span
        value = rng.gauss(mean, noise_sd)
        features[spec.name] = min(max(value, spec.low), spec.high)
    return features


def _scalar_ip(rng, malicious):
    first = rng.randint(100, 126) if malicious else rng.randint(11, 99)
    return (
        f"{first}.{rng.randint(0, 255)}."
        f"{rng.randint(0, 255)}.{rng.randint(1, 254)}"
    )


def _scalar_corpus(size, seed, params=CorpusParams()):
    rng = random.Random(seed)
    examples = []
    for _ in range(size):
        malicious = rng.random() < params.malicious_fraction
        if malicious:
            intensity = rng.betavariate(
                params.malicious_alpha, params.malicious_beta
            )
        else:
            intensity = rng.betavariate(params.benign_alpha, params.benign_beta)
        features = _scalar_features(intensity, rng, params.noise_sd)
        examples.append(
            LabeledExample(
                ip=_scalar_ip(rng, malicious),
                features=features,
                malicious=malicious,
                true_score=10.0 * intensity,
            )
        )
    return examples


def _scalar_split(examples, train_fraction=2 / 3):
    cut = int(round(len(examples) * train_fraction))
    cut = min(max(cut, 1), len(examples) - 1)
    return examples[:cut], examples[cut:]


def _rows(examples):
    return [
        (e.ip, e.features, e.malicious, e.true_score) for e in examples
    ]


@pytest.mark.parametrize(
    "size, seed", [(4000, 7), (1200, 7), (1500, 7), (50, 3)]
)
def test_every_example_and_split_equal_the_scalar_generators(size, seed):
    expected = _scalar_corpus(size, seed)
    corpus = generate_corpus(size=size, seed=seed)
    assert _rows(corpus) == _rows(expected)
    train, test = corpus.split()
    want_train, want_test = _scalar_split(expected)
    assert _rows(train) == _rows(want_train)
    assert _rows(test) == _rows(want_test)
    assert len(train) == train_rows(size)
    assert [type(v) for v in corpus[0].features.values()] == [float] * 10


def test_the_columns_are_the_examples():
    corpus = generate_corpus(size=300, seed=5)
    examples = list(corpus)
    assert corpus.feature_matrix().tolist() == [
        [e.features[name] for name in DEFAULT_SCHEMA.names] for e in examples
    ]
    assert corpus.labels().tolist() == [int(e.malicious) for e in examples]
    assert corpus.true_scores().tolist() == [e.true_score for e in examples]


def test_a_training_prefix_is_the_training_split():
    for size in (4000, 1500, 7, 2):
        prefix = generate_corpus(size=train_rows(size), seed=7)
        assert _rows(prefix) == _rows(generate_corpus(size, 7).split()[0])


def test_the_built_framework_fits_the_same_dabr_model():
    train, _ = _scalar_split(_scalar_corpus(4000, 7))
    normalized = DEFAULT_SCHEMA.normalize(
        DEFAULT_SCHEMA.vectorize_many(e.features for e in train if e.malicious)
    )
    centroid = normalized.mean(axis=0)
    scale = max(
        float(
            np.percentile(
                np.linalg.norm(normalized - centroid, axis=1), 82.0
            )
        ),
        1e-6,
    )
    built = [
        m for m in model_chain(FrameworkSpec().build().model)
        if isinstance(m, DAbRModel)
    ]
    assert len(built) == 1
    fitted = DAbRModel().fit(generate_corpus(4000, 7).split()[0])
    for model in (built[0], fitted):
        assert model._centroid.tobytes() == centroid.tobytes()
        assert model.scale == scale


@pytest.mark.parametrize("seed", [0, 1, 99])
def test_synthesize_features_draws_what_it_drew(seed):
    new, old = random.Random(seed), random.Random(seed)
    for intensity in (0.0, 0.25, 0.5, 0.99, 1.0):
        for noise_sd in (0.0, 3.4):
            assert synthesize_features(
                intensity, new, noise_sd=noise_sd
            ) == _scalar_features(intensity, old, noise_sd)
    assert new.random() == old.random()


def test_indexing_and_slicing_read_rows_as_the_tuple_did():
    expected = _scalar_corpus(60, 4)
    corpus = generate_corpus(size=60, seed=4)
    assert corpus[-1] == expected[-1]
    assert corpus[10:20:3] == tuple(expected[10:20:3])
    assert corpus[:0] == ()


def test_examples_built_twice_share_the_drawn_floats():
    # What a caller keeps of an example costs what it did when the
    # corpus stored examples: no float is minted per access.
    corpus = generate_corpus(size=20, seed=1)
    for a, b in zip(corpus[3].features.values(), corpus[3].features.values()):
        assert a is b
