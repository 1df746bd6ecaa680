"""Vectorized lossy-link layer: per-agent RTT, capacity, loss, retries.

Channels (:mod:`repro.net.sim.channel`) model the *backbone*: one
delay distribution shared by every client.  Real client populations
are heterogeneous — a datacenter bot sits microseconds from the
server while a cell-edge phone adds tens of milliseconds, drops
packets, and shares a congested uplink with its whole cell.  This
module models that access network, shaped like the trace-driven
``Link`` of congestion-control simulators (SNIPPETS.md Snippet 1):

* **per-agent propagation delay** — a lognormal one-way RTT share,
  derived deterministically from the agent's packed IP address
  (:meth:`LinkSet.base_delays`), so the SoA fast engine and the scalar
  callback engine agree bit-for-bit without coordinating a sampling
  order;
* **trace-driven capacity** — a piecewise-constant uplink rate
  (:class:`BandwidthTrace`) with a FIFO transmission queue; queued
  work adds bufferbloat delay and a full queue tail-drops
  (:meth:`LinkSession.cross`);
* **random loss** — each client→server crossing is lost with the
  profile's ``loss_rate``, decided by a counter-based hash of
  ``(request id, leg, attempt)`` rather than an RNG stream, again so
  both engines draw identical losses;
* **retransmission** — lost or dropped crossings are retried with
  exponential backoff up to ``max_retries``; request-leg retries also
  give up once the next attempt would land past the client's patience
  window, and solution-leg retries race the puzzle TTL (a late
  redemption expires server-side).

A :class:`LinkSet` assigns one :class:`LinkProfile` per population
profile.  Two populations assigned the same *named* profile share one
transmission queue — the shared-bottleneck case where an attack's own
volume congests the benign clients (and the attacker's own solution
submissions, degrading its solver turnaround).

Engine contract
---------------
All state lives in :class:`LinkSession` (per-run) as plain floats per
queue; per-agent state is struct-of-arrays.  The scalar engines call
the same vectorized kernels with one-element arrays, which is what
makes fast-vs-callback decision parity bit-exact: there is exactly one
implementation of every arithmetic path.  See DESIGN.md §1.6 for the
parity envelope (what is bit-identical, what drifts and why).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np

__all__ = [
    "BandwidthTrace",
    "LinkProfile",
    "LinkSet",
    "LinkSession",
    "LinkStats",
    "LINK_PROFILES",
    "resolve_link_profile",
]


# ----------------------------------------------------------------------
# Deterministic hashing: the engines' shared randomness
# ----------------------------------------------------------------------
_SPLIT_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLIT_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLIT_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = (x + _SPLIT_GAMMA).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _SPLIT_M1
    x ^= x >> np.uint64(27)
    x *= _SPLIT_M2
    x ^= x >> np.uint64(31)
    return x


def _uniform01(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes onto the open interval (0, 1)."""
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _norm_ppf(u: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Max absolute error ~1.15e-9 — far below what an RTT draw can
    resolve — and, crucially, a *deterministic* pure-numpy expression:
    both engines evaluate the identical float path, so sampled delays
    are bit-equal between scalar and vector callers.
    """
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    low, high = 0.02425, 1.0 - 0.02425

    lo = u < low
    if lo.any():
        q = np.sqrt(-2.0 * np.log(u[lo]))
        out[lo] = (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    hi = u > high
    if hi.any():
        q = np.sqrt(-2.0 * np.log(1.0 - u[hi]))
        out[hi] = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    mid = ~(lo | hi)
    if mid.any():
        q = u[mid] - 0.5
        r = q * q
        out[mid] = (
            ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        ) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    return out


# ----------------------------------------------------------------------
# Capacity traces
# ----------------------------------------------------------------------
class BandwidthTrace:
    """Piecewise-constant uplink capacity in requests per second.

    ``rates[j]`` holds for ``t in [times[j], times[j+1])``; the final
    rate extends forever.  The vectorized engine looks the rate up
    once per cohort (at the cohort instant), which is exact for
    ``tick=None`` runs — a cohort then *is* a single instant — and a
    documented cohort-level approximation under a quantization tick.
    """

    def __init__(self, times, rates) -> None:
        self.times = np.asarray(times, dtype=np.float64)
        self.rates = np.asarray(rates, dtype=np.float64)
        if self.times.ndim != 1 or self.times.shape != self.rates.shape:
            raise ValueError("times and rates must be parallel 1-D arrays")
        if self.times.size == 0:
            raise ValueError("trace needs at least one segment")
        if self.times[0] != 0.0:
            raise ValueError(
                f"trace must start at t=0, got {self.times[0]}"
            )
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trace times must be strictly increasing")
        if np.any(self.rates <= 0):
            raise ValueError("trace rates must be > 0 requests/s")

    @classmethod
    def constant(cls, rate: float) -> "BandwidthTrace":
        """A flat-capacity link."""
        return cls([0.0], [float(rate)])

    def rate_at(self, t: float) -> float:
        """Capacity holding at time ``t`` (requests per second)."""
        j = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.rates[max(j, 0)])


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LinkProfile:
    """Access-network parameters for one client population.

    Parameters
    ----------
    rtt_median / rtt_sigma:
        Per-agent one-way propagation delay: lognormal with the given
        median and log-space sigma, derived deterministically from the
        agent's packed IP (``sigma=0`` pins every agent to the
        median).  Applied to every leg the agent's traffic crosses, on
        top of the run's channel delay — links *compose with*
        channels, they do not replace them.
    loss_rate:
        Probability an individual client→server crossing is lost
        (request and solution legs; server→client legs are modelled
        lossless — the uplink is the constrained direction).
    bandwidth / queue_seconds:
        Optional shared uplink capacity (:class:`BandwidthTrace`) with
        a FIFO transmission queue holding at most ``queue_seconds`` of
        queued work; deeper backlog tail-drops the crossing.  ``None``
        means uncapped (no queueing, no bufferbloat).
    max_retries / backoff:
        Lost or dropped crossings retry after
        ``backoff * 2**(attempt-1)`` seconds, at most ``max_retries``
        times.  Request-leg retries additionally give up once the next
        attempt would start later than the client's patience window;
        solution-leg retries race the puzzle TTL instead.
    note:
        One-line description for catalogues (CLI ``--list-links``).
    """

    rtt_median: float = 0.001
    rtt_sigma: float = 0.0
    loss_rate: float = 0.0
    bandwidth: BandwidthTrace | None = None
    queue_seconds: float = 0.25
    max_retries: int = 3
    backoff: float = 0.2
    note: str = ""

    def __post_init__(self) -> None:
        if self.rtt_median <= 0:
            raise ValueError(f"rtt_median must be > 0, got {self.rtt_median}")
        if self.rtt_sigma < 0:
            raise ValueError(f"rtt_sigma must be >= 0, got {self.rtt_sigma}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if self.queue_seconds <= 0:
            raise ValueError(
                f"queue_seconds must be > 0, got {self.queue_seconds}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff <= 0:
            raise ValueError(f"backoff must be > 0, got {self.backoff}")

    @property
    def lossless_unlimited(self) -> bool:
        """True when the profile only adds propagation delay."""
        return self.loss_rate == 0.0 and self.bandwidth is None


#: Built-in link profiles, the catalogue behind ``ScaleSpec.links``
#: and ``repro campaign --link``.  Two populations naming the *same*
#: profile share one transmission queue (the shared-bottleneck case).
LINK_PROFILES: dict[str, LinkProfile] = {
    "datacenter": LinkProfile(
        rtt_median=0.0005,
        rtt_sigma=0.1,
        note="sub-millisecond wired clients; no loss, no cap",
    ),
    "broadband": LinkProfile(
        rtt_median=0.008,
        rtt_sigma=0.3,
        loss_rate=0.001,
        note="residential last mile: ~8 ms one-way, rare loss",
    ),
    "lossy-mobile": LinkProfile(
        rtt_median=0.040,
        rtt_sigma=0.5,
        loss_rate=0.02,
        max_retries=3,
        backoff=0.2,
        note="cellular clients: 40 ms median one-way, heavy-tailed, "
        "2% loss with backoff retries",
    ),
    "congested-uplink": LinkProfile(
        rtt_median=0.020,
        rtt_sigma=0.35,
        loss_rate=0.005,
        bandwidth=BandwidthTrace.constant(4000.0),
        queue_seconds=0.3,
        max_retries=3,
        backoff=0.25,
        note="shared 4000 req/s uplink with a 300 ms queue: "
        "bufferbloat, tail drops, congestion coupling",
    ),
}


def resolve_link_profile(profile: "LinkProfile | str") -> LinkProfile:
    """A :class:`LinkProfile` from an instance or a catalogue name."""
    if isinstance(profile, LinkProfile):
        return profile
    try:
        return LINK_PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown link profile {profile!r}; "
            f"builtins: {', '.join(sorted(LINK_PROFILES))}"
        ) from None


# ----------------------------------------------------------------------
# Run state
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LinkStats:
    """Network-layer outcomes of one run.

    Requests the network swallowed before any admission happened are
    counted here, *not* in the simulation's metrics — a never-admitted
    request has no score or difficulty to aggregate.  Solution-leg
    give-ups do reach the metrics (as ABANDONED: the puzzle was issued
    and solved), and are mirrored here for the network-side view.
    """

    crossings: int = 0
    lost: int = 0
    queue_dropped: int = 0
    retries: int = 0
    request_give_ups: int = 0
    solution_give_ups: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def publish(self, registry) -> None:
        """Fold these outcomes into ``link_*_total`` registry counters.

        Call once per finished run: counters only ever increase, so a
        second publish of the same stats would double-count.
        """
        from repro.obs.registry import METRIC_CATALOG

        for field, metric in (
            ("crossings", "link_crossings_total"),
            ("lost", "link_lost_total"),
            ("queue_dropped", "link_queue_dropped_total"),
            ("retries", "link_retries_total"),
            ("request_give_ups", "link_request_give_ups_total"),
            ("solution_give_ups", "link_solution_give_ups_total"),
        ):
            counter = registry.counter(metric, METRIC_CATALOG[metric])
            value = getattr(self, field)
            if value:
                counter.inc(value)

    def summary(self) -> str:
        return (
            f"{self.crossings:,} uplink crossings: {self.lost:,} lost, "
            f"{self.queue_dropped:,} queue-dropped, "
            f"{self.retries:,} retries, "
            f"{self.request_give_ups:,} requests given up in the "
            f"network, {self.solution_give_ups:,} solutions given up"
        )


class LinkSet:
    """Immutable per-population link assignment.

    Parameters
    ----------
    assignments:
        ``population profile name -> LinkProfile | catalogue name``.
        Profiles without an entry keep the ideal (channel-only) path.
        Assignments sharing a catalogue *name* (or the same
        :class:`LinkProfile` instance) share one transmission queue.
    seed:
        Salt for the per-agent delay and per-crossing loss hashes.
    """

    def __init__(
        self,
        assignments: Mapping[str, "LinkProfile | str"],
        seed: int = 0,
    ) -> None:
        if not assignments:
            raise ValueError("LinkSet needs at least one assignment")
        self.seed = int(seed)
        self._delay_salt = np.uint64((self.seed * 2 + 1) & 0xFFFFFFFFFFFFFFFF)
        self._loss_salt = np.uint64((self.seed * 2 + 2) & 0xFFFFFFFFFFFFFFFF)
        self.assignments: dict[str, LinkProfile] = {}
        tokens: dict[object, int] = {}
        self._queue_profiles: list[LinkProfile] = []
        self._queue_of: dict[str, int] = {}
        for population, profile in assignments.items():
            resolved = resolve_link_profile(profile)
            token = profile if isinstance(profile, str) else id(resolved)
            if token not in tokens:
                tokens[token] = len(self._queue_profiles)
                self._queue_profiles.append(resolved)
            self.assignments[population] = resolved
            self._queue_of[population] = tokens[token]
        self._scalar_links: dict[tuple[str, str], tuple[int, float]] = {}

    # -- catalogue ----------------------------------------------------
    @property
    def delay_only(self) -> bool:
        """True when every assigned profile only adds propagation delay."""
        return all(
            p.lossless_unlimited for p in self.assignments.values()
        )

    def queue_count(self) -> int:
        return len(self._queue_profiles)

    def profile_of_queue(self, queue_id: int) -> LinkProfile:
        return self._queue_profiles[queue_id]

    def queue_ids(self, class_names) -> np.ndarray:
        """Per-class transmission-queue id (``-1`` = no link)."""
        return np.array(
            [self._queue_of.get(name, -1) for name in class_names],
            dtype=np.int64,
        )

    # -- per-agent state ----------------------------------------------
    def base_delays(
        self, packed_ips: np.ndarray, queue_ids: np.ndarray
    ) -> np.ndarray:
        """Per-agent one-way propagation delays, hash-derived.

        ``exp(log(median) + sigma * ppf(u))`` with ``u`` a SplitMix64
        hash of the packed IP — a lognormal sample that depends only
        on (seed, address, profile), never on visit order, so the SoA
        population mint and the callback engine's lazy per-IP lookup
        produce identical floats.  Agents with ``queue_id < 0`` get 0.
        """
        packed = np.asarray(packed_ips, dtype=np.uint64)
        qids = np.asarray(queue_ids, dtype=np.int64)
        delays = np.zeros(packed.shape, dtype=np.float64)
        for qid, profile in enumerate(self._queue_profiles):
            mask = qids == qid
            if not mask.any():
                continue
            if profile.rtt_sigma == 0.0:
                delays[mask] = profile.rtt_median
                continue
            u = _uniform01(_mix64(packed[mask] ^ self._delay_salt))
            delays[mask] = profile.rtt_median * np.exp(
                profile.rtt_sigma * _norm_ppf(u)
            )
        return delays

    def link_of(self, profile: str, ip: str) -> tuple[int, float]:
        """``(queue_id, base_delay)`` of one client — the scalar engines' lookup.

        Evaluates :meth:`queue_ids` and :meth:`base_delays` on
        one-element arrays, so a callback engine's per-client delay is
        bit-identical to the SoA path's by construction.  Cached: the
        assignment is immutable and the delay depends only on (seed,
        address, profile).
        """
        key = (profile, ip)
        hit = self._scalar_links.get(key)
        if hit is None:
            import ipaddress

            qids = self.queue_ids([profile])
            packed = np.array([int(ipaddress.ip_address(ip))], dtype=np.int64)
            hit = (int(qids[0]), float(self.base_delays(packed, qids)[0]))
            self._scalar_links[key] = hit
        return hit

    def crossing_lost(
        self,
        request_ids: np.ndarray,
        attempts: np.ndarray,
        leg: int,
        loss_rate: float,
    ) -> np.ndarray:
        """Deterministic per-crossing loss decisions.

        Hash of ``(seed, request id, leg, attempt)`` compared against
        ``loss_rate`` — a counter-based draw, so the decision for a
        given crossing is identical regardless of which engine (or
        cohort batching) evaluates it.
        """
        if loss_rate <= 0.0:
            return np.zeros(np.asarray(request_ids).shape, dtype=bool)
        key = (
            np.asarray(request_ids, dtype=np.uint64) * np.uint64(2)
            + np.uint64(leg)
        )
        h = _mix64(
            _mix64(key ^ self._loss_salt)
            ^ np.asarray(attempts, dtype=np.uint64)
        )
        return _uniform01(h) < loss_rate

    def session(self) -> "LinkSession":
        """Fresh mutable queue state for one run."""
        return LinkSession(self)


class LinkSession:
    """Mutable per-run transmission-queue state (one float per queue).

    The FIFO recurrence mirrors the server model's: a crossing
    arriving at ``t`` starts transmitting at ``max(t, busy)`` and
    holds the link for ``1/rate`` seconds.  A crossing that would find
    more than ``queue_seconds`` of backlog already queued is
    tail-dropped.  :meth:`cross` computes a whole same-instant cohort
    with one seeded running sum — the same left-associated additions
    the one-at-a-time scalar caller performs — so exits and drop
    decisions are bit-identical between cohort and sequential
    evaluation (``tests/net/test_links.py`` pins this).
    """

    def __init__(self, links: LinkSet) -> None:
        self.links = links
        self.busy = np.zeros(links.queue_count(), dtype=np.float64)
        self.stats = LinkStats()

    def cross(
        self, queue_id: int, when: float, count: int
    ) -> tuple[np.ndarray, int]:
        """Transmit ``count`` crossings entering queue ``queue_id`` at ``when``.

        Returns ``(exits, accepted)``: link-exit times for the first
        ``accepted`` crossings (in entry order) and the count accepted;
        the remainder are tail-dropped.  Uncapped links exit
        immediately (``exits == when``) and never drop.
        """
        profile = self.links.profile_of_queue(queue_id)
        if profile.bandwidth is None:
            return np.full(count, when, dtype=np.float64), count
        if count == 0:
            return np.empty(0, dtype=np.float64), 0
        service = 1.0 / profile.bandwidth.rate_at(when)
        busy = float(self.busy[queue_id])
        seeded = np.empty(count + 1)
        seeded[0] = max(when, busy)
        seeded[1:] = service
        dones = np.cumsum(seeded)[1:]
        # Backlog seen by crossing i is what is still queued when it
        # arrives: the previous crossing's completion minus ``when``
        # (clamped at zero).  Within a same-instant cohort backlog only
        # grows, so the accepted set is a prefix.
        busy_before = np.empty(count)
        busy_before[0] = busy
        busy_before[1:] = dones[:-1]
        backlog = np.maximum(0.0, busy_before - when)
        over = backlog > profile.queue_seconds
        accepted = int(np.argmax(over)) if over.any() else count
        if accepted > 0:
            self.busy[queue_id] = float(dones[accepted - 1])
        return dones[:accepted], accepted
