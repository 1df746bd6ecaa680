"""The IP-traffic feature schema consumed by reputation models.

DAbR (Renjan et al., ISI 2018) scores an IP from threat-intelligence
*attributes* of the address — not packet payloads.  The original system
drew those attributes from a commercial feed; this reproduction defines a
synthetic but structurally faithful schema (see DESIGN.md §3): ten
numeric attributes capturing the signals the DAbR paper describes
(blacklist presence, spam volume, scanning behaviour, hosting reputation,
traffic shape).

A :class:`FeatureSchema` validates and vectorises feature mappings; the
canonical schema instance is :data:`DEFAULT_SCHEMA`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping

import numpy as np

from repro.core.errors import FeatureSchemaError

__all__ = ["FeatureSpec", "FeatureSchema", "DEFAULT_SCHEMA", "FEATURE_NAMES"]


@dataclasses.dataclass(frozen=True, slots=True)
class FeatureSpec:
    """One named numeric feature with an inclusive valid range."""

    name: str
    low: float
    high: float
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("feature name must be non-empty")
        if not self.low < self.high:
            raise ValueError(
                f"feature {self.name!r}: low {self.low} must be < high {self.high}"
            )

    def validate(self, value: float) -> float:
        """Return ``value`` as float; raise if outside the valid range."""
        value = float(value)
        if not np.isfinite(value):
            raise FeatureSchemaError(
                f"feature {self.name!r} must be finite, got {value!r}"
            )
        if not self.low <= value <= self.high:
            raise FeatureSchemaError(
                f"feature {self.name!r} value {value} outside "
                f"[{self.low}, {self.high}]"
            )
        return value

    @property
    def span(self) -> float:
        """Width of the valid range, used for normalisation."""
        return self.high - self.low


class FeatureSchema:
    """An ordered collection of :class:`FeatureSpec`.

    The ordering fixes the layout of vectorised features, so models can
    persist centroids/weights as plain arrays.
    """

    def __init__(self, specs: Iterable[FeatureSpec]) -> None:
        specs = tuple(specs)
        if not specs:
            raise ValueError("schema needs at least one feature")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate feature names in schema: {names}")
        self._specs = specs
        self._index = {spec.name: i for i, spec in enumerate(specs)}
        self._lows = np.array([s.low for s in specs], dtype=np.float64)
        self._highs = np.array([s.high for s in specs], dtype=np.float64)
        self._spans = np.array([s.span for s in specs], dtype=np.float64)

    @property
    def names(self) -> tuple[str, ...]:
        """Feature names in vector order."""
        return tuple(spec.name for spec in self._specs)

    @property
    def specs(self) -> tuple[FeatureSpec, ...]:
        return self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def spec(self, name: str) -> FeatureSpec:
        """The spec registered under ``name``."""
        try:
            return self._specs[self._index[name]]
        except KeyError:
            raise FeatureSchemaError(f"unknown feature {name!r}") from None

    def vectorize(self, features: Mapping[str, float]) -> np.ndarray:
        """Validate ``features`` and return them as a float array.

        Every schema feature must be present; unknown keys are rejected
        (silently dropping data is how scoring bugs hide).
        """
        unknown = set(features) - set(self._index)
        if unknown:
            raise FeatureSchemaError(f"unknown features: {sorted(unknown)}")
        missing = set(self._index) - set(features)
        if missing:
            raise FeatureSchemaError(f"missing features: {sorted(missing)}")
        out = np.empty(len(self._specs), dtype=np.float64)
        for i, spec in enumerate(self._specs):
            out[i] = spec.validate(features[spec.name])
        return out

    def vectorize_many(
        self, rows: Iterable[Mapping[str, float]]
    ) -> np.ndarray:
        """Vectorise an iterable of feature mappings into a 2-D array."""
        vectors = [self.vectorize(row) for row in rows]
        if not vectors:
            return np.empty((0, len(self._specs)), dtype=np.float64)
        return np.stack(vectors)

    def vectorize_batch(self, rows) -> np.ndarray:
        """Vectorise many feature mappings in one pass.

        Semantically identical to :meth:`vectorize_many` — same result,
        same :class:`FeatureSchemaError` conditions — but validation is
        amortised over the whole batch instead of paid per element,
        which is what makes the framework's batch admission path cheap.
        Any row that fails the fast checks is re-validated through
        :meth:`vectorize` so error messages stay exact.
        """
        rows = list(rows)
        if not rows:
            return np.empty((0, len(self._specs)), dtype=np.float64)
        names = self.names
        width = len(names)
        try:
            out = np.array(
                [[row[name] for name in names] for row in rows],
                dtype=np.float64,
            )
        except (KeyError, TypeError, ValueError):
            return self.vectorize_many(rows)  # raises the precise error
        if (
            any(len(row) != width for row in rows)
            or not np.isfinite(out).all()
            or ((out < self._lows) | (out > self._highs)).any()
        ):
            return self.vectorize_many(rows)  # raises the precise error
        return out

    def normalize(self, matrix: np.ndarray) -> np.ndarray:
        """Scale columns into [0, 1] using each spec's declared range.

        Range-based (not data-based) normalisation keeps scoring stable
        under distribution shift — the ranges are part of the contract.
        """
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if matrix.shape[1] != len(self._specs):
            raise FeatureSchemaError(
                f"expected {len(self._specs)} columns, got {matrix.shape[1]}"
            )
        return (matrix - self._lows) / self._spans

    def to_mapping(self, vector: np.ndarray) -> dict[str, float]:
        """Inverse of :meth:`vectorize` for one row."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (len(self._specs),):
            raise FeatureSchemaError(
                f"expected shape ({len(self._specs)},), got {vector.shape}"
            )
        return {spec.name: float(v) for spec, v in zip(self._specs, vector)}


#: Canonical feature set for the synthetic threat-intelligence corpus.
#: Names follow the attribute categories described in the DAbR paper.
DEFAULT_SCHEMA = FeatureSchema(
    [
        FeatureSpec("blacklist_score", 0.0, 10.0, "aggregated DNSBL presence"),
        FeatureSpec("spam_volume", 0.0, 10.0, "observed spam emission rate"),
        FeatureSpec("scan_activity", 0.0, 10.0, "port/address scanning rate"),
        FeatureSpec("malware_hosting", 0.0, 10.0, "malware distribution score"),
        FeatureSpec("botnet_affinity", 0.0, 10.0, "C2/botnet association"),
        FeatureSpec("geo_risk", 0.0, 10.0, "geolocation risk index"),
        FeatureSpec("asn_reputation", 0.0, 10.0, "origin-AS badness index"),
        FeatureSpec("conn_rate", 0.0, 10.0, "normalised connection rate"),
        FeatureSpec("failed_auth_rate", 0.0, 10.0, "failed-login intensity"),
        FeatureSpec("payload_entropy", 0.0, 10.0, "request payload entropy"),
    ]
)

#: Convenience tuple of the canonical feature names.
FEATURE_NAMES = DEFAULT_SCHEMA.names
