"""Struct-of-arrays agent populations for the vectorized simulator.

The object-per-client :class:`~repro.traffic.generator.SimClientSpec`
path mints a Python dict of features per client — fine for hundreds,
hopeless for a million.  :class:`AgentPopulation` keeps the same world
model (per-profile Beta intensities, the corpus feature process, one
fixed feature vector per client) as parallel numpy arrays: column ``i``
of every array describes agent ``i``.

Agents carry no Python identity on the hot path; IP strings are
materialised lazily (:meth:`ip_strings`) only when something needs
interop with the object world — recording a trace, or building a
:class:`~repro.traffic.trace.Trace` so the callback reference engine
the tests keep (``tests/oracle``) can run the identical workload
(:meth:`to_trace`).
"""

from __future__ import annotations

import dataclasses
import ipaddress
from typing import Iterable, Sequence

import numpy as np

from repro.reputation.dataset import synthesize_feature_matrix
from repro.reputation.features import DEFAULT_SCHEMA, FeatureSchema
from repro.traffic.profiles import ClientProfile

__all__ = ["AgentPopulation"]


@dataclasses.dataclass
class AgentPopulation:
    """A mixed client population as struct-of-arrays.

    Attributes
    ----------
    profiles:
        The distinct :class:`ClientProfile` objects, indexed by the
        values in :attr:`profile_id`.
    profile_id:
        ``int32[n]`` — which profile each agent belongs to.
    intensity:
        ``float64[n]`` — latent maliciousness in [0, 1] (ground-truth
        score is ``10 * intensity``).
    features:
        ``float64[n, k]`` — raw feature rows in schema column order,
        fixed at mint time exactly like ``SimClientSpec.features``.
    ip_index:
        ``int64[n]`` — offset of each agent's address inside its
        profile's subnet; strings are derived on demand.
    """

    profiles: tuple[ClientProfile, ...]
    profile_id: np.ndarray
    intensity: np.ndarray
    features: np.ndarray
    ip_index: np.ndarray
    schema: FeatureSchema = dataclasses.field(default_factory=lambda: DEFAULT_SCHEMA)

    def __post_init__(self) -> None:
        n = len(self.profile_id)
        for name in ("intensity", "ip_index"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have one entry per agent")
        if self.features.shape != (n, len(self.schema)):
            raise ValueError(
                f"features must be ({n}, {len(self.schema)}), "
                f"got {self.features.shape}"
            )
        if n and (self.profile_id.min() < 0 or self.profile_id.max() >= len(self.profiles)):
            raise ValueError("profile_id out of range")

    # ------------------------------------------------------------------
    # Minting
    # ------------------------------------------------------------------
    @classmethod
    def make(
        cls,
        populations: Iterable[tuple[ClientProfile, int]],
        seed: int = 42,
        schema: FeatureSchema | None = None,
        noise_sd: float = 3.4,
    ) -> "AgentPopulation":
        """Mint ``(profile, count)`` populations in one vectorised pass.

        Addresses are unique within each profile's subnet (sampled
        without replacement), matching
        :func:`~repro.traffic.generator.make_population`'s invariant.
        """
        schema = schema or DEFAULT_SCHEMA
        rng = np.random.default_rng(seed)
        profiles: list[ClientProfile] = []
        pid_blocks: list[np.ndarray] = []
        intensity_blocks: list[np.ndarray] = []
        ip_blocks: list[np.ndarray] = []
        for profile, count in populations:
            if count < 1:
                raise ValueError(f"population count must be >= 1, got {count}")
            pid = len(profiles)
            profiles.append(profile)
            pid_blocks.append(np.full(count, pid, dtype=np.int32))
            intensity_blocks.append(
                rng.beta(profile.intensity_alpha, profile.intensity_beta, count)
            )
            ip_blocks.append(_sample_host_offsets(profile.subnet, count, rng))
        profile_id = np.concatenate(pid_blocks)
        intensity = np.concatenate(intensity_blocks)
        features = synthesize_feature_matrix(
            intensity, rng, noise_sd=noise_sd, schema=schema
        )
        return cls(
            profiles=tuple(profiles),
            profile_id=profile_id,
            intensity=intensity,
            features=features,
            ip_index=np.concatenate(ip_blocks),
            schema=schema,
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.profile_id)

    @property
    def true_scores(self) -> np.ndarray:
        """Ground-truth reputation per agent (``10 * intensity``)."""
        return 10.0 * self.intensity

    @property
    def profile_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.profiles)

    def per_agent(self, attribute: str) -> np.ndarray:
        """Broadcast a numeric profile attribute onto agents.

        ``population.per_agent("hash_rate")`` is the ``float64[n]``
        vector of each agent's profile hash rate; same for
        ``patience`` and ``request_rate``.
        """
        table = np.array(
            [float(getattr(p, attribute)) for p in self.profiles]
        )
        return table[self.profile_id]

    def score_with(self, model) -> np.ndarray:
        """Model scores for every agent in one vectorised pass.

        Requires a model with the ``score_batch`` raw-matrix API (all
        shipped :class:`~repro.reputation.base.BaseReputationModel`
        subclasses).  Features are fixed per agent, so one pass gives
        the agent's score for the whole run — the key admission-cost
        amortisation of the vectorized simulator.
        """
        scorer = getattr(model, "score_batch", None)
        if scorer is None:
            raise TypeError(
                f"model {type(model).__name__} has no score_batch; "
                "stateful wrappers must be scored per request via the "
                "framework admission path"
            )
        model_schema = getattr(model, "schema", None)
        if model_schema is not None and model_schema.names != self.schema.names:
            # Feature rows are consumed positionally; a column-order
            # mismatch would silently score garbage.
            raise ValueError(
                "population schema does not match the model's: "
                f"{self.schema.names} vs {model_schema.names}"
            )
        return np.asarray(scorer(self.features), dtype=np.float64)

    def packed_ips(self) -> np.ndarray:
        """Integer-packed address per agent (``int64[n]``), vectorised.

        ``int(ipaddress.ip_address(ip_strings()[i]))`` for every agent
        without minting a single string: the profile subnet's network
        address plus the agent's host offset.  This is the hash input
        for per-agent link delays (:mod:`repro.net.sim.links`) — both
        engines derive the same integers, so hash-keyed draws agree
        bit-for-bit.
        """
        bases = np.array(
            [
                int(ipaddress.ip_network(p.subnet).network_address)
                for p in self.profiles
            ],
            dtype=np.int64,
        )
        return bases[self.profile_id] + self.ip_index.astype(np.int64)

    def ip_strings(self, agents: Sequence[int] | None = None) -> list[str]:
        """Dotted-quad addresses for ``agents`` (default: everyone).

        Deliberately lazy — a million-agent run only pays for string
        addresses when something (a recorder, a Trace export) needs
        them.
        """
        if agents is None:
            indices = range(len(self))
        else:
            indices = [int(a) for a in agents]
        bases = [
            int(ipaddress.ip_network(p.subnet).network_address)
            for p in self.profiles
        ]
        out = []
        for i in indices:
            packed = bases[self.profile_id[i]] + int(self.ip_index[i])
            out.append(str(ipaddress.ip_address(packed)))
        return out

    def to_trace(self, fire_times: np.ndarray, fire_agents: np.ndarray):
        """Materialise a fire schedule as an object-world ``Trace``.

        One :class:`~repro.traffic.trace.TraceEntry` per fire, with the
        agent's fixed feature mapping — how the scale-workload tests
        hand the *identical* workload to the callback reference engine
        (``tests/oracle``), or :meth:`FastSimulation.run
        <repro.net.sim.fastsim.FastSimulation.run>`.  Cost is
        linear in fires; intended for parity runs, not the hot path.
        """
        from repro.core.records import ClientRequest
        from repro.traffic.trace import Trace, TraceEntry

        ips = self.ip_strings()
        names = self.schema.names
        rows = self.features
        true = self.true_scores
        profile_names = self.profile_names
        entries = []
        for order, (when, agent) in enumerate(
            zip(fire_times.tolist(), fire_agents.tolist()), start=1
        ):
            entries.append(
                TraceEntry(
                    request=ClientRequest(
                        client_ip=ips[agent],
                        resource="/index.html",
                        timestamp=float(when),
                        features=dict(zip(names, rows[agent].tolist())),
                        request_id=f"fire-{order}",
                    ),
                    profile=profile_names[self.profile_id[agent]],
                    true_score=float(true[agent]),
                )
            )
        return Trace(entries)


def _sample_host_offsets(
    subnet: str, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct host offsets within ``subnet`` (no .0 host).

    For blocks much larger than ``count`` this samples with a retry
    loop (collisions are rare); for tight blocks it falls back to a
    partial permutation.  Either way the result is deterministic per
    generator state.
    """
    network = ipaddress.ip_network(subnet)
    space = network.num_addresses - 2  # skip network/broadcast-ish hosts
    if space < count:
        raise ValueError(
            f"subnet {subnet} has {space} usable hosts, need {count}"
        )
    if count * 4 >= space:
        return rng.permutation(space)[:count] + 1
    picks = rng.integers(1, space + 1, size=int(count * 1.1) + 16)
    unique = np.unique(picks)
    while unique.size < count:
        extra = rng.integers(1, space + 1, size=count)
        unique = np.unique(np.concatenate([unique, extra]))
    chosen = rng.permutation(unique)[:count]
    return chosen.astype(np.int64)
