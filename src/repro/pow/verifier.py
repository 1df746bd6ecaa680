"""The puzzle verification module (paper §II.5).

Verification is deliberately lightweight: one HMAC to authenticate the
puzzle, one hash to check the solution — constant work regardless of the
puzzle's difficulty, which is the asymmetry PoW defenses rely on.

The verifier enforces four properties:

1. **Integrity** — the puzzle (and the IP it is bound to) was really
   issued by this server: HMAC tag check.
2. **Freshness** — the puzzle's TTL has not elapsed.
3. **Correctness** — hashing ``prefix || nonce`` yields at least
   ``difficulty`` leading zero bits.
4. **Single redemption** — a seed can be redeemed once; replays are
   rejected (:class:`ReplayCache`).
"""

from __future__ import annotations

import dataclasses
import hmac as hmac_mod
import itertools
import os

from repro.core.config import PowConfig
from repro.core.errors import (
    PuzzleExpiredError,
    PuzzleIntegrityError,
    ReplayedSolutionError,
    SolutionInvalidError,
)
from repro.pow.difficulty import count_leading_zero_bits, meets_difficulty
from repro.pow.generator import compute_tag
from repro.pow.hashers import get_hasher
from repro.pow.puzzle import Puzzle, Solution, nonce_bytes

__all__ = ["PuzzleVerifier", "ReplayCache", "VerificationResult"]


class ReplayCache:
    """Remembers redeemed puzzle seeds until their TTL would expire anyway.

    The cache is bounded two ways: entries older than ``ttl`` are evicted
    lazily (an expired puzzle is rejected by the freshness check before
    the replay check can matter), and a hard ``max_entries`` cap evicts
    oldest-first so a flood of redemptions cannot exhaust memory.

    Redeemed seeds live in an :class:`~repro.state.AdmissionStateStore`
    namespace (``replay``, entries ``seed -> [redeemed_at, owner_ip,
    token]``), so the single-redemption property survives a
    snapshot/restore cycle — restarting a warmed server must not reopen
    already-redeemed puzzles.  The owner IP is recorded because it is
    the entry's *shard-affinity* key: a redeemed seed lives on the shard
    serving that client, and ``repro.state.snapshot.split_snapshot``
    uses the owner (not the seed) to put it back there when a cluster
    state directory is re-split.  A ring store reads the entry by seed,
    so it places it by seed.

    A redemption is decided in one store call that reads the table's
    size and head and *claims* the seed: ``setdefault(seed, [now,
    owner, token])``.  The seed is fresh exactly when the stored entry
    is the one this call sent; the token (a random per-cache prefix and
    a counter) makes it unique, so a call re-sent after a lost reply
    still finds its own claim and stays fresh.  An entry written before
    tokens existed (``[redeemed_at, owner_ip]``) never matches, so it
    still blocks its seed; a stale one is claimed over.  Stale or
    over-cap heads are evicted after the claim, never the seed being
    decided.
    """

    def __init__(
        self,
        ttl: float = 300.0,
        max_entries: int = 100_000,
        *,
        store=None,
        namespace: str = "replay",
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if max_entries <= 0:
            raise ValueError(f"max_entries must be > 0, got {max_entries}")
        self.ttl = ttl
        self.max_entries = max_entries
        if store is None:
            from repro.state import InMemoryStateStore

            store = InMemoryStateStore()
        self.store = store
        self._seen = store.namespace(namespace)
        self._head = ((namespace, "len"), (namespace, "first"))
        # Not drawn from the puzzle seed source: issuing stays unchanged.
        self._token = os.urandom(6).hex() + "-"
        self._claims = itertools.count()

    def __len__(self) -> int:
        return len(self._seen)

    def check_and_add(
        self, seed: str, now: float, owner: str | None = None
    ) -> bool:
        """Record ``seed``; return False if it was already present (replay).

        ``owner`` is the client IP the puzzle was bound to — recorded
        so sharded deployments can route the entry with the client's
        other state when splitting snapshots.
        """
        claim = self.claim_ops(seed, now, owner)
        return self.claimed(self.store.execute(claim), claim)

    # Read set and claim in one call, split so ``redeem`` sends these
    # ops in the same call as the feedback read.
    def claim_ops(
        self, seed: str, now: float, owner: str | None = None
    ) -> list[tuple]:
        """``[len, first, setdefault(seed, [now, owner, token])]``."""
        entry = [now, owner, f"{self._token}{next(self._claims):x}"]
        return [*self._head, (self._seen.name, "setdefault", seed, entry)]

    def claimed(self, results: list, claim: list[tuple]) -> bool:
        """Whether ``claim`` won its seed, given its results.

        A seed whose stored entry is stale is claimed over (one more
        call, moving it to the back).  Then stale or over-cap heads are
        evicted: a store call per evicted entry.
        """
        size, head, stored = results
        name, _, seed, entry = claim[-1]
        cutoff = entry[0] - self.ttl
        fresh = stored == entry
        if fresh:
            size += 1
        elif stored[0] < cutoff:  # an expired redemption: claim over it
            fresh = True
            _, _, size, head = self.store.execute([
                (name, "put", seed, entry), (name, "move_to_end", seed),
                *self._head,
            ])
        while head is not None and head[0] != seed and (
            head[1][0] < cutoff or size > self.max_entries
        ):
            _, size, head = self.store.execute(
                [(name, "delete", head[0]), *self._head]
            )
        return fresh


@dataclasses.dataclass(frozen=True, slots=True)
class VerificationResult:
    """Successful verification outcome, with the checked zero-bit count."""

    puzzle_seed: str
    difficulty: int
    zero_bits: int


class PuzzleVerifier:
    """Stateless-by-design verifier with optional replay protection.

    Parameters
    ----------
    config:
        Must match the generator's config (same key, algorithm, TTL).
    replay_cache:
        Optional :class:`ReplayCache`; pass ``None`` to disable the
        single-redemption property (ablation `abl-verify` measures the
        cost of keeping it).
    """

    def __init__(
        self,
        config: PowConfig | None = None,
        replay_cache: ReplayCache | None = None,
    ) -> None:
        self.config = config or PowConfig()
        self.replay_cache = replay_cache
        self.accepted_count = 0
        self.rejected_count = 0

    def verify(
        self,
        puzzle: Puzzle,
        solution: Solution,
        client_ip: str,
        now: float,
    ) -> VerificationResult:
        """Validate ``solution`` for ``puzzle``; raise on any failure.

        Raises
        ------
        PuzzleIntegrityError
            Tag mismatch — the puzzle was tampered with or forged, or the
            solution names a different puzzle.
        PuzzleExpiredError
            The puzzle aged past the configured TTL.
        SolutionInvalidError
            The nonce's digest misses the difficulty target.
        ReplayedSolutionError
            The seed was already redeemed.
        """
        try:
            digest = self.check(puzzle, solution, client_ip, now)
            if self.replay_cache is not None:
                if not self.replay_cache.check_and_add(
                    puzzle.seed, now, owner=client_ip
                ):
                    raise ReplayedSolutionError(
                        f"seed {puzzle.seed} already redeemed"
                    )
        except Exception:
            self.rejected_count += 1
            raise
        self.accepted_count += 1
        return VerificationResult(
            puzzle_seed=puzzle.seed,
            difficulty=puzzle.difficulty,
            zero_bits=count_leading_zero_bits(digest),
        )

    def check(
        self,
        puzzle: Puzzle,
        solution: Solution,
        client_ip: str,
        now: float,
    ) -> bytes:
        """The stateless part of :meth:`verify`; returns the digest.

        Seed match, tag, TTL and digest, raised alike — no replay step
        (``AIPoWFramework.redeem`` runs it itself), no counters.
        """
        if solution.puzzle_seed != puzzle.seed:
            raise PuzzleIntegrityError(
                "solution references a different puzzle seed"
            )

        expected_tag = compute_tag(
            self.config.secret_key, puzzle.signing_payload(client_ip)
        )
        if not hmac_mod.compare_digest(expected_tag, puzzle.tag):
            raise PuzzleIntegrityError("puzzle tag mismatch")

        age = puzzle.age(now)
        if age > self.config.ttl:
            raise PuzzleExpiredError(age, self.config.ttl)

        hasher = get_hasher(puzzle.algorithm)
        digest = hasher(
            puzzle.prefix(client_ip)
            + nonce_bytes(solution.nonce, self.config.nonce_bits)
        )
        if not meets_difficulty(digest, puzzle.difficulty):
            raise SolutionInvalidError(
                f"digest has {count_leading_zero_bits(digest)} leading zero "
                f"bits, needs {puzzle.difficulty}"
            )
        return digest
