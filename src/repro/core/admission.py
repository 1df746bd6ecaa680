"""Admission control: protecting the challenge path itself.

PoW moves the expensive *resource* behind a puzzle, but issuing a
challenge still costs the server real work (scoring + generation).  A
determined flood can attack that path.  The standard complement is a
cheap stateful pre-filter in front of the framework:

* :class:`TokenBucket` — the classic rate limiter primitive;
* :class:`AdmissionControl` — per-address buckets with an allowlist
  (infrastructure that must never be puzzled or dropped) and a global
  bucket bounding total challenge throughput.

Placement: transport → admission → framework.  The gateway and the
WSGI middleware both accept an optional controller.  Dropping at
admission is deliberately crude (no puzzle, no response) — its job is
to bound the *cost* of abuse, not to be fair; fairness is the
framework's job.
"""

from __future__ import annotations

import dataclasses

__all__ = ["TokenBucket", "AdmissionControl", "AdmissionDecision"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``capacity`` burst.

    Time is supplied by the caller, so the same bucket works under the
    simulator's clock and wall-clock alike.
    """

    def __init__(self, rate: float, capacity: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.rate = rate
        self.capacity = capacity
        self._tokens = capacity
        self._updated = 0.0

    @property
    def tokens(self) -> float:
        """Tokens available as of the last :meth:`consume` call."""
        return self._tokens

    def consume(self, now: float, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens at time ``now``; False when starved."""
        if amount <= 0:
            raise ValueError(f"amount must be > 0, got {amount}")
        if now > self._updated:
            self._tokens = min(
                self.capacity, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False


def _refill_eta(bucket: TokenBucket) -> float:
    """Seconds until ``bucket`` accrues one whole token."""
    return max(0.0, (1.0 - bucket.tokens) / bucket.rate)


@dataclasses.dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``retry_after`` is a hint, in seconds, for when the dropping bucket
    will next have a token — transports that can express it (the WSGI
    middleware's ``Retry-After`` header) relay it to the client; 0.0
    for admitted requests.
    """

    admitted: bool
    reason: str
    retry_after: float = 0.0


class AdmissionControl:
    """Per-address and global rate limiting ahead of the framework.

    Parameters
    ----------
    per_ip_rate / per_ip_burst:
        Token rate and burst per client address.
    global_rate / global_burst:
        Bounds on total admitted requests across all clients.
    allowlist:
        Addresses that bypass both buckets entirely.
    max_tracked_ips:
        Bound on the per-address bucket table; the least-recently
        active bucket is evicted at the cap.
    """

    def __init__(
        self,
        per_ip_rate: float = 10.0,
        per_ip_burst: float = 20.0,
        global_rate: float = 2000.0,
        global_burst: float = 4000.0,
        allowlist: set[str] | None = None,
        max_tracked_ips: int = 100_000,
    ) -> None:
        if max_tracked_ips <= 0:
            raise ValueError(
                f"max_tracked_ips must be > 0, got {max_tracked_ips}"
            )
        self.per_ip_rate = per_ip_rate
        self.per_ip_burst = per_ip_burst
        self._global = TokenBucket(global_rate, global_burst)
        self.allowlist = set(allowlist or ())
        self.max_tracked_ips = max_tracked_ips
        self._buckets: dict[str, TokenBucket] = {}
        self._last_seen: dict[str, float] = {}
        self.admitted_count = 0
        self.dropped_count = 0

    def check(self, client_ip: str, now: float) -> AdmissionDecision:
        """Admit or drop one request from ``client_ip`` at ``now``."""
        if client_ip in self.allowlist:
            self.admitted_count += 1
            return AdmissionDecision(True, "allowlisted")

        bucket = self._buckets.get(client_ip)
        if bucket is None:
            if len(self._buckets) >= self.max_tracked_ips:
                victim = min(self._last_seen, key=self._last_seen.get)
                del self._buckets[victim]
                del self._last_seen[victim]
            bucket = TokenBucket(self.per_ip_rate, self.per_ip_burst)
            self._buckets[client_ip] = bucket
        self._last_seen[client_ip] = now

        if not bucket.consume(now):
            self.dropped_count += 1
            return AdmissionDecision(
                False, "per-ip rate exceeded", _refill_eta(bucket)
            )
        if not self._global.consume(now):
            self.dropped_count += 1
            return AdmissionDecision(
                False, "global rate exceeded", _refill_eta(self._global)
            )
        self.admitted_count += 1
        return AdmissionDecision(True, "admitted")

    @property
    def tracked_ips(self) -> int:
        """Number of addresses with live buckets."""
        return len(self._buckets)
