"""Client population profiles.

A *profile* describes one class of clients the workload generator can
mint: where their addresses come from, how malicious they are (the
latent intensity driving their traffic features), and how fast they
hash.  Profiles let benches build the paper's implicit populations —
"authentic requests" vs "untrustworthy connections" — and richer mixes
for the throttling experiment.
"""

from __future__ import annotations

import dataclasses

__all__ = ["ClientProfile", "BENIGN_PROFILE", "MALICIOUS_PROFILE", "STEALTH_PROFILE"]


@dataclasses.dataclass(frozen=True, slots=True)
class ClientProfile:
    """One class of clients in a workload.

    Parameters
    ----------
    name:
        Profile label used in metrics breakdowns.
    subnet:
        CIDR block client addresses are drawn from.
    intensity_alpha / intensity_beta:
        Beta distribution of each client's latent maliciousness
        intensity (matches the corpus generator's convention:
        ground-truth score = 10 × intensity).
    hash_rate:
        Client hash evaluations per second (solve speed).
    request_rate:
        Mean requests per second *per client* (exponential inter-arrival
        times in open-loop workloads).
    patience:
        Seconds a client will grind on one puzzle before abandoning.
    """

    name: str
    subnet: str
    intensity_alpha: float
    intensity_beta: float
    hash_rate: float = 37_000.0
    request_rate: float = 1.0
    patience: float = 30.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("profile name must be non-empty")
        if self.intensity_alpha <= 0 or self.intensity_beta <= 0:
            raise ValueError("intensity beta parameters must be > 0")
        if self.hash_rate <= 0:
            raise ValueError(f"hash_rate must be > 0, got {self.hash_rate}")
        if self.request_rate <= 0:
            raise ValueError(f"request_rate must be > 0, got {self.request_rate}")
        if self.patience <= 0:
            raise ValueError(f"patience must be > 0, got {self.patience}")

#: Ordinary users: low maliciousness, human-paced request rates.  The
#: default hash rate (≈37 k evaluations/s) matches the calibrated
#: 27 µs/attempt of TimingConfig.
BENIGN_PROFILE = ClientProfile(
    name="benign",
    subnet="23.0.0.0/8",
    intensity_alpha=2.0,
    intensity_beta=6.0,
    request_rate=0.5,
)

#: Flood attackers: high maliciousness, machine-paced request rates.
MALICIOUS_PROFILE = ClientProfile(
    name="malicious",
    subnet="110.0.0.0/8",
    intensity_alpha=6.0,
    intensity_beta=2.0,
    request_rate=20.0,
    patience=10.0,
)

#: Stealthy attackers: feature footprint overlapping the benign
#: population (hard for the AI model), moderate request rates.
STEALTH_PROFILE = ClientProfile(
    name="stealth",
    subnet="77.0.0.0/8",
    intensity_alpha=3.5,
    intensity_beta=3.5,
    request_rate=5.0,
    patience=20.0,
)
