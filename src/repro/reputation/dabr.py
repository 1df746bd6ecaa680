"""DAbR: Dynamic Attribute-based Reputation scoring (paper §II.1).

DAbR (Renjan et al., ISI 2018) is "a Euclidean distance-based technique
that generates a reputation score for an IP address by learning from
previously known malicious IP addresses and their attributes".  This
implementation follows that recipe:

1. **Learning** — take the *malicious* rows of the training matrix, normalise
   each attribute into [0, 1], and summarise the malicious population by
   its centroid plus a distance scale (a high percentile of in-cluster
   distances).
2. **Scoring** — for an incoming IP's attribute vector, compute the
   Euclidean distance to the malicious centroid and map it smoothly onto
   the paper's [0, 10] scale, with 10 at the centroid (most
   untrustworthy) falling off as the vector moves away:

   ``score(x) = 10 / (1 + (dist(x) / scale) ** gamma)``

   ``scale`` makes the score 5 exactly at the learned cluster boundary;
   ``gamma`` controls how sharp that boundary is.

The mapping is monotone in distance, so the model's ordering of clients
is exactly the ordering by similarity to known-malicious traffic — the
property the adaptive issuer relies on.
"""

from __future__ import annotations

import numpy as np

from repro.reputation.base import BaseReputationModel
from repro.reputation.dataset import ThreatIntelCorpus
from repro.reputation.features import FeatureSchema

__all__ = ["DAbRModel"]


class DAbRModel(BaseReputationModel):
    """Euclidean-distance reputation scorer learned from malicious IPs.

    Parameters
    ----------
    schema:
        Feature schema; defaults to the canonical ten-attribute schema.
    scale_percentile:
        Percentile of malicious-to-centroid distances used as the
        score-5 boundary.  Higher values are more forgiving to
        borderline-malicious traffic.
    gamma:
        Sharpness of the distance → score fall-off (> 0).
    """

    model_name = "dabr"

    def __init__(
        self,
        schema: FeatureSchema | None = None,
        scale_percentile: float = 82.0,
        gamma: float = 3.2,
    ) -> None:
        super().__init__(schema)
        if not 0.0 < scale_percentile <= 100.0:
            raise ValueError(
                f"scale_percentile must be in (0, 100], got {scale_percentile}"
            )
        if gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {gamma}")
        self.scale_percentile = scale_percentile
        self.gamma = gamma
        self._centroid: np.ndarray | None = None
        self._scale: float = 1.0

    # ------------------------------------------------------------------
    # Fitted state introspection (used by tests and calibration)
    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """Distance at which the score crosses 5.0."""
        return self._scale

    # ------------------------------------------------------------------
    # BaseReputationModel hooks
    # ------------------------------------------------------------------
    def _fit(self, corpus: ThreatIntelCorpus) -> None:
        malicious = corpus.feature_matrix()[corpus.labels() == 1]
        if not len(malicious):
            raise ValueError(
                "DAbR learns from known-malicious IPs; corpus has none"
            )
        matrix = self.schema.normalize(malicious)
        self._centroid = matrix.mean(axis=0)
        distances = np.linalg.norm(matrix - self._centroid, axis=1)
        scale = float(np.percentile(distances, self.scale_percentile))
        # A degenerate single-point cluster still needs a usable scale.
        self._scale = max(scale, 1e-6)

    def _score_matrix(self, matrix: np.ndarray) -> np.ndarray:
        # One vectorised pass; the scalar path scores a one-row matrix
        # through this same code, so both paths are bit-identical.
        assert self._centroid is not None  # guarded by BaseReputationModel
        diff = matrix - self._centroid
        distance = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        return 10.0 / (1.0 + (distance / self._scale) ** self.gamma)

    def distance(self, features) -> float:
        """Euclidean distance of ``features`` to the malicious centroid.

        Exposed for analysis and tests; scoring is a monotone transform
        of this value.
        """
        if self._centroid is None:
            from repro.core.errors import ModelNotFittedError

            raise ModelNotFittedError("DAbRModel must be fit() first")
        vector = self.schema.normalize(self.schema.vectorize(features))[0]
        return float(np.linalg.norm(vector - self._centroid))
