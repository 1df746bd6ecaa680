"""Seeded workload inputs: the only thing that reaches the program.

The client *population* (which feature vectors exist, and which are
benign) comes from one fixed synthetic corpus, so the paper's result —
hostile clients get harder puzzles — is the same quantity on every
seed.  The seed decides everything else: which source address carries
which feature vector, the arrival schedule, who asks when, and which
hostile requests answer with a bogus solution.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.spec import FrameworkSpec
from repro.net.live import protocol
from repro.reputation.dataset import generate_corpus

__all__ = [
    "ServeClient",
    "serve_clients",
    "poisson_schedule",
    "AdmitStream",
    "FLUSH_SIZE",
]

#: Feature vectors available to the populations.
_CORPUS_SIZE = 8192
_CORPUS_SEED = 7

#: Source addresses per serving pool.  Connect-per-request leaves one
#: TIME_WAIT socket per exchange on the client's (address, port) pair;
#: binding each exchange to one of 4096 loopback addresses gives every
#: address its own ~28k ephemeral ports, so back-to-back runs at
#: several thousand exchanges/s never run out.
POOL_SIZE = 2048
_BENIGN_NET, _HOSTILE_NET = 16, 32  # 127.16.x.y and 127.32.x.y

#: Requests per ``challenge_batch`` flush in the admit workloads.
FLUSH_SIZE = 16
#: Distinct client addresses in the admit workloads.
ADMIT_CLIENTS = 8192
#: Share of admit clients that are benign (solve honestly).
_ADMIT_BENIGN_SHARE = 0.6


def _features_by_score() -> list[dict[str, float]]:
    """The corpus's feature vectors, lowest model score first.

    Ranked by the score the served model gives them (the DAbR fit every
    ``FrameworkSpec`` builds), not by the latent truth: the feature
    noise is large, and a "benign" client the model mistakes for a bot
    would spend the generator's one thread grinding a hard puzzle.
    """
    corpus = generate_corpus(size=_CORPUS_SIZE, seed=_CORPUS_SEED)
    model = FrameworkSpec(feedback=False, cache_ttl=None).build().model
    scores = model.score_batch(corpus.feature_matrix())
    return [
        corpus[int(i)].features for i in np.argsort(scores, kind="stable")
    ]


def _loopback_pool(net: int, count: int) -> list[str]:
    return [f"127.{net}.{i // 254}.{i % 254 + 1}" for i in range(count)]


@dataclasses.dataclass(frozen=True, slots=True)
class ServeClient:
    """One source address of a serving pool and the frame it sends."""

    ip: str
    benign: bool
    request_line: bytes


def serve_clients(seed: int) -> tuple[list[ServeClient], list[ServeClient]]:
    """(benign pool, hostile pool): lowest- and highest-score features."""
    features = _features_by_score()
    rng = np.random.default_rng([seed, 1])
    pools = []
    for benign, net, rows in (
        (True, _BENIGN_NET, features[:POOL_SIZE]),
        (False, _HOSTILE_NET, features[-POOL_SIZE:]),
    ):
        order = rng.permutation(POOL_SIZE)
        pools.append(
            [
                ServeClient(
                    ip=ip,
                    benign=benign,
                    request_line=protocol.encode_request(
                        "/index.html", rows[int(j)]
                    ).encode("ascii") + b"\n",
                )
                for ip, j in zip(_loopback_pool(net, POOL_SIZE), order)
            ]
        )
    return pools[0], pools[1]


def pick_clients(
    seed: int, count: int, benign_share: float
) -> list[ServeClient]:
    """``count`` seeded draws from the two pools, in request order."""
    benign, hostile = serve_clients(seed)
    rng = np.random.default_rng([seed, 2])
    is_benign = rng.random(count) < benign_share
    index = rng.integers(0, POOL_SIZE, count)
    return [
        (benign if b else hostile)[int(i)] for b, i in zip(is_benign, index)
    ]


def poisson_schedule(seed: int, rate: float, duration: float) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process over ``duration``."""
    rng = np.random.default_rng([seed, 3])
    # 20% head-room over the expected count, then cut at the horizon.
    gaps = rng.exponential(1.0 / rate, int(rate * duration * 1.2) + 64)
    times = np.cumsum(gaps)
    return times[times < duration].tolist()


class AdmitStream:
    """The request stream both admit workloads drive, flush by flush.

    8192 distinct clients; each pass visits every client once in a
    seeded order, 16 per flush.  Benign clients (60%) solve and redeem;
    each hostile request either submits a bogus solution or never
    answers (a seeded coin, 20% / 20% overall).  Timestamps are
    synthetic — one millisecond per request — so decisions do not
    depend on how fast the harness runs.
    """

    #: Flushes in one pass over the population.
    PASS_FLUSHES = ADMIT_CLIENTS // FLUSH_SIZE
    #: Synthetic seconds between flushes.
    FLUSH_INTERVAL = FLUSH_SIZE * 0.001
    _T0 = 1_700_000_000.0

    def __init__(self, seed: int) -> None:
        features = _features_by_score()
        rng = np.random.default_rng([seed, 4])
        order = rng.permutation(ADMIT_CLIENTS)
        benign_count = int(ADMIT_CLIENTS * _ADMIT_BENIGN_SHARE)
        self.seed = seed
        self.ips = [
            f"10.{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}"
            for i in range(1, ADMIT_CLIENTS + 1)
        ]
        #: Client i carries the feature vector ranked ``order[i]``.
        self.features = [features[int(j)] for j in order]
        self.benign = [bool(j < benign_count) for j in order]
        self._pass = -1
        self._order: np.ndarray | None = None
        self._bogus: np.ndarray | None = None

    def flush(self, index: int) -> tuple[float, list[int], list[bool]]:
        """(timestamp, client indices, bogus-coin per slot) of flush ``index``."""
        which, slot = divmod(index, self.PASS_FLUSHES)
        if which != self._pass:
            rng = np.random.default_rng([self.seed, 5, which])
            self._order = rng.permutation(ADMIT_CLIENTS)
            self._bogus = rng.random(ADMIT_CLIENTS) < 0.5
            self._pass = which
        lo = slot * FLUSH_SIZE
        clients = self._order[lo:lo + FLUSH_SIZE].tolist()
        bogus = self._bogus[lo:lo + FLUSH_SIZE].tolist()
        return self._T0 + index * self.FLUSH_INTERVAL, clients, bogus
