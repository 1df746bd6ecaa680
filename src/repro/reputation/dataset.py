"""Synthetic threat-intelligence corpus (the DAbR training substitute).

DAbR was trained on attributes of previously-known malicious IPs from a
commercial threat-intelligence feed — data we cannot redistribute.  This
module generates a *structurally faithful* substitute (DESIGN.md §3):

* each example models one IP address with a latent **maliciousness
  intensity** in [0, 1] (benign addresses cluster near 0, malicious near
  1, with genuine overlap);
* every schema feature tracks the intensity linearly, scaled by a fixed
  per-feature weight and perturbed by Gaussian noise, then clipped to the
  feature's valid range;
* the ground-truth reputation score of an example is ``10 * intensity``,
  which lets us measure both classification accuracy (the paper's 80 %
  figure) and the score error ε that Policy 3 consumes.

Generation is fully deterministic given a seed.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from typing import Iterator, Sequence

import numpy as np

from repro.reputation.features import DEFAULT_SCHEMA, FeatureSchema

__all__ = [
    "LabeledExample",
    "CorpusParams",
    "ThreatIntelCorpus",
    "feature_weights",
    "generate_corpus",
    "synthesize_features",
    "synthesize_feature_matrix",
    "train_rows",
]


@dataclasses.dataclass(frozen=True, slots=True)
class LabeledExample:
    """One labelled IP observation.

    ``true_score`` is the latent ground-truth reputation (``10 *
    intensity``); ``malicious`` is the binary label derived from which
    population the example was drawn from.
    """

    ip: str
    features: dict[str, float]
    malicious: bool
    true_score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.true_score <= 10.0:
            raise ValueError(
                f"true_score must be in [0, 10], got {self.true_score}"
            )


@dataclasses.dataclass(frozen=True, slots=True)
class CorpusParams:
    """Knobs controlling the synthetic population.

    The defaults are calibrated so that the DAbR scorer achieves ≈80 %
    accuracy at threshold 5.0 (the paper's reported figure); the `acc80`
    bench pins this.

    Parameters
    ----------
    malicious_fraction:
        Share of malicious examples in the corpus.
    benign_alpha / benign_beta:
        Beta parameters of benign intensity (skewed toward 0).
    malicious_alpha / malicious_beta:
        Beta parameters of malicious intensity (skewed toward 1).
    noise_sd:
        Gaussian feature noise, in feature units; the main overlap knob.
    """

    malicious_fraction: float = 0.5
    benign_alpha: float = 2.0
    benign_beta: float = 6.0
    malicious_alpha: float = 6.0
    malicious_beta: float = 2.0
    noise_sd: float = 3.4

    def __post_init__(self) -> None:
        if not 0.0 < self.malicious_fraction < 1.0:
            raise ValueError(
                "malicious_fraction must be in (0, 1), got "
                f"{self.malicious_fraction}"
            )
        for name in (
            "benign_alpha",
            "benign_beta",
            "malicious_alpha",
            "malicious_beta",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")


#: Per-feature sensitivity to the latent intensity.  Fixed (not random)
#: so corpora with different seeds describe the same "world".
_FEATURE_WEIGHTS: dict[str, float] = {
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


def synthesize_features(
    intensity: float,
    rng: random.Random,
    noise_sd: float = 3.4,
    schema: FeatureSchema | None = None,
) -> dict[str, float]:
    """Feature vector for a client of the given latent ``intensity``.

    Shared by the corpus generator and the live traffic generator, so
    the model is evaluated on the same feature process it was trained
    on — the property that makes the synthetic substitution sound.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    schema = schema or DEFAULT_SCHEMA
    return dict(zip(schema.names, _draw(intensity, rng, noise_sd, schema)))


@functools.cache
def _draw_specs(schema: FeatureSchema) -> tuple[tuple[float, ...], ...]:
    """``(low, weight, span, high)`` per feature, in schema column order."""
    return tuple(
        (s.low, _FEATURE_WEIGHTS.get(s.name, 0.7), s.span, s.high) for s in schema.specs
    )


def _draw(intensity: float, rng: random.Random, noise_sd: float, schema) -> list[float]:
    """The one draw rule: Gaussian around ``low + weight * intensity * span``, clipped."""
    return [
        min(max(rng.gauss(low + weight * intensity * span, noise_sd), low), high)
        for low, weight, span, high in _draw_specs(schema)
    ]


def feature_weights(schema: FeatureSchema | None = None) -> np.ndarray:
    """Per-feature intensity weights in ``schema`` column order.

    The weights :func:`synthesize_features` draws with (unknown
    features use the same 0.7 default), so matrix synthesis describes
    the same world.
    """
    specs = _draw_specs(schema or DEFAULT_SCHEMA)
    return np.array([weight for _, weight, _, _ in specs], dtype=np.float64)


def synthesize_feature_matrix(
    intensities: np.ndarray,
    rng: np.random.Generator,
    noise_sd: float = 3.4,
    schema: FeatureSchema | None = None,
) -> np.ndarray:
    """Feature rows for many clients in one vectorised pass.

    The matrix sibling of :func:`synthesize_features`: row ``i`` is
    drawn from the same per-feature Gaussian (mean
    ``low + weight * intensity * span``, clipped to the valid range)
    as the scalar path, but the whole ``(n, k)`` block is produced by
    numpy — what lets the large-scale simulator mint a million agents
    in well under a second.  Draws come from the *numpy* generator, so
    matrices are deterministic per seed but not bit-identical to the
    ``random.Random`` scalar stream.
    """
    intensities = np.asarray(intensities, dtype=np.float64)
    if intensities.ndim != 1:
        raise ValueError("intensities must be a 1-d array")
    if intensities.size and (
        intensities.min() < 0.0 or intensities.max() > 1.0
    ):
        raise ValueError("intensities must lie in [0, 1]")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    schema = schema or DEFAULT_SCHEMA
    lows = np.array([s.low for s in schema.specs])
    spans = np.array([s.span for s in schema.specs])
    highs = np.array([s.high for s in schema.specs])
    weights = feature_weights(schema)
    means = lows + np.outer(intensities, weights * spans)
    matrix = rng.normal(means, noise_sd)
    np.clip(matrix, lows, highs, out=matrix)
    return matrix


def _random_ip(rng: random.Random, malicious: bool) -> str:
    """A plausible IPv4 literal; populations use disjoint leading octets.

    Disjoint prefixes are a convenience for readable traces and for the
    traffic generator's per-subnet bookkeeping — the models never look
    at the address itself.
    """
    first = rng.randint(100, 126) if malicious else rng.randint(11, 99)
    return (
        f"{first}.{rng.randint(0, 255)}."
        f"{rng.randint(0, 255)}.{rng.randint(1, 254)}"
    )


def train_rows(size: int, train_fraction: float = 2 / 3) -> int:
    """How many leading rows :meth:`ThreatIntelCorpus.split` trains on.

    Row ``i`` of a seeded corpus never depends on its size, so
    ``generate_corpus(train_rows(n), seed)`` is ``generate_corpus(n, seed).split()[0]``.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    cut = int(round(size * train_fraction))
    return min(max(cut, 1), size - 1)


class ThreatIntelCorpus:
    """A generated corpus with train/test split helpers.

    Stored as read-only columns (addresses, a float64 feature matrix in
    schema order, labels, true scores); examples are built on access.
    Their feature dicts reuse the drawn floats (``_rows``), so a caller
    that keeps them holds no more than when examples were stored.
    """

    def __init__(
        self,
        examples: Sequence[LabeledExample],
        schema: FeatureSchema,
        params: CorpusParams,
        seed: int,
    ) -> None:
        examples = tuple(examples)
        matrix = schema.vectorize_many(e.features for e in examples)
        self._hold(
            schema, params, seed, tuple(e.ip for e in examples), matrix.tolist(), matrix,
            np.array([e.malicious for e in examples], dtype=int),
            np.array([e.true_score for e in examples], dtype=np.float64),
        )

    @classmethod
    def _from_columns(cls, *args) -> "ThreatIntelCorpus":
        corpus = cls.__new__(cls)
        corpus._hold(*args)
        return corpus

    def _hold(self, schema, params, seed, ips, rows, matrix, labels, true_scores) -> None:
        for column in (matrix, labels, true_scores):
            column.flags.writeable = False
        self.schema, self.params, self.seed = schema, params, seed
        self._ips, self._rows, self._matrix, self._labels, self._true_scores = (
            ips, rows, matrix, labels, true_scores
        )

    def __len__(self) -> int:
        return len(self._ips)

    def __iter__(self) -> Iterator[LabeledExample]:
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        return LabeledExample(
            ip=self._ips[index],
            features=dict(zip(self.schema.names, self._rows[index])),
            malicious=bool(self._labels[index]),
            true_score=float(self._true_scores[index]),
        )

    @property
    def examples(self) -> tuple[LabeledExample, ...]:
        return tuple(self)

    @property
    def malicious(self) -> tuple[LabeledExample, ...]:
        """Only the malicious examples (DAbR trains on these)."""
        return tuple(e for e in self if e.malicious)

    @property
    def benign(self) -> tuple[LabeledExample, ...]:
        return tuple(e for e in self if not e.malicious)

    def split(self, train_fraction: float = 2 / 3) -> tuple[
        "ThreatIntelCorpus", "ThreatIntelCorpus"
    ]:
        """Deterministic train/test split preserving generation order."""
        cut = train_rows(len(self), train_fraction)
        return self._slice(slice(None, cut)), self._slice(slice(cut, None))

    def _slice(self, rows: slice) -> "ThreatIntelCorpus":
        return self._from_columns(
            self.schema, self.params, self.seed, self._ips[rows], self._rows[rows],
            self._matrix[rows], self._labels[rows], self._true_scores[rows],
        )

    def feature_matrix(self) -> np.ndarray:
        """All examples vectorised per the schema, one row each."""
        return self._matrix

    def labels(self) -> np.ndarray:
        """Binary labels as an int array (1 = malicious)."""
        return self._labels

    def true_scores(self) -> np.ndarray:
        """Ground-truth scores as a float array."""
        return self._true_scores


def generate_corpus(
    size: int,
    seed: int = 7,
    params: CorpusParams | None = None,
    schema: FeatureSchema | None = None,
) -> ThreatIntelCorpus:
    """Generate ``size`` labelled examples, deterministically from ``seed``.

    One ``random.Random(seed)`` stream, drawn row by row into columns.
    """
    if size <= 0:
        raise ValueError(f"size must be > 0, got {size}")
    params = params or CorpusParams()
    schema = schema or DEFAULT_SCHEMA
    rng = random.Random(seed)

    ips, rows, labels, intensities = [], [], [], []
    for _ in range(size):
        malicious = rng.random() < params.malicious_fraction
        if malicious:
            intensity = rng.betavariate(
                params.malicious_alpha, params.malicious_beta
            )
        else:
            intensity = rng.betavariate(params.benign_alpha, params.benign_beta)
        rows.append(_draw(intensity, rng, params.noise_sd, schema))
        ips.append(_random_ip(rng, malicious))
        labels.append(malicious)
        intensities.append(intensity)
    return ThreatIntelCorpus._from_columns(
        schema, params, seed, tuple(ips), rows, np.array(rows, dtype=np.float64),
        np.array(labels, dtype=int), 10.0 * np.array(intensities, dtype=np.float64),
    )
