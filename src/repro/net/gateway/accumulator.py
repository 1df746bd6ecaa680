"""The micro-batching accumulator at the heart of the admission gateway.

Concurrent ``REQUEST`` arrivals are individually cheap to *receive* but
expensive to *admit* (score → policy → puzzle issuance).  The
accumulator turns the per-request admission cost into a per-batch one:
arrivals queue as :class:`~repro.net.gateway.shedding.PendingAdmission`
entries, a single dispatcher coroutine coalesces them — flushing as
soon as one event-loop pass adds nothing to the queue, when
``max_batch`` requests have gathered, or when the batch has been open
for ``batch_window`` seconds, whichever comes first — and the whole
batch is admitted through one ``admit_batch`` call (the gateway wires
this to :meth:`AIPoWFramework.challenge_batch`, whose decisions are
bit-identical to the scalar path).

Nothing waits on a timer: a lone request is admitted a couple of loop
passes after it arrives, and batches form by themselves under load,
because every request that arrived while the previous ``admit_batch``
held the loop is enqueued in the passes that follow it.

Overload is explicit, not accidental: the queue is bounded at
``queue_limit`` and a pluggable :class:`ShedPolicy` picks the victim
when it is full.  Shed requests resolve to a :class:`ShedOutcome`
instead of a challenge — every submitted request gets exactly one
resolution, admitted or shed, including at shutdown.

Single-threaded by design: ``submit`` and the dispatcher both run on
the gateway's event loop, so no locks guard the queue.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Sequence

from repro.core.records import ClientRequest
from repro.net.gateway.shedding import (
    DropNewest,
    PendingAdmission,
    ShedOutcome,
    ShedPolicy,
)

__all__ = ["MicroBatcher"]

#: admit_batch: list of requests -> one result per request, same order.
AdmitBatch = Callable[[Sequence[ClientRequest]], Sequence[object]]
#: on_shed: (pending, reason, queue_depth) -> None
ShedHook = Callable[[PendingAdmission, str, int], None]
#: on_flush: (batch_size, queue_depth_before_flush, results,
#: seconds each request of the batch waited in the queue) -> None
FlushHook = Callable[[int, int, Sequence[object], Sequence[float]], None]


class MicroBatcher:
    """Coalesces submitted requests into bounded admission batches.

    Parameters
    ----------
    admit_batch:
        Synchronous callable admitting a whole batch; returns one
        result per request in order.  Runs on the event loop — it is
        the serial section, everything else overlaps with I/O.
    max_batch:
        Flush as soon as this many requests are waiting.
    batch_window:
        Maximum seconds a batch stays open after its first request
        arrives.  A batch normally closes sooner — at the first loop
        pass that brings no new arrival — so this only cuts a trickle
        that would otherwise keep it open one request per pass.  ``0``
        flushes whatever is queued when the dispatcher wakes.
    queue_limit:
        Bound on requests waiting for admission; beyond it the shed
        policy picks a victim.
    shed_policy:
        Victim selection when full; defaults to :class:`DropNewest`.
    on_shed / on_flush:
        Observability hooks (events, metrics).  Exceptions propagate —
        wire them through :class:`~repro.core.events.EventBus` or
        another isolating layer if observers may fail.
    """

    def __init__(
        self,
        admit_batch: AdmitBatch,
        *,
        max_batch: int = 64,
        batch_window: float = 0.002,
        queue_limit: int = 256,
        shed_policy: ShedPolicy | None = None,
        on_shed: ShedHook | None = None,
        on_flush: FlushHook | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window < 0:
            raise ValueError(
                f"batch_window must be >= 0, got {batch_window}"
            )
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.admit_batch = admit_batch
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.queue_limit = queue_limit
        self.shed_policy: ShedPolicy = shed_policy or DropNewest()
        self.on_shed = on_shed
        self.on_flush = on_flush
        self._pending: deque[PendingAdmission] = deque()
        self._arrival: asyncio.Event = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False
        self.submitted_count = 0
        self.admitted_count = 0
        self.shed_count = 0
        self.flush_count = 0

    # ------------------------------------------------------------------
    # Producer side (connection handlers)
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently waiting for admission."""
        return len(self._pending)

    def submit(self, request: ClientRequest) -> "asyncio.Future":
        """Queue ``request`` for batched admission.

        Returns a future resolving to the ``admit_batch`` result for
        this request, or to a :class:`ShedOutcome` when the request (or
        a queued victim, whose own future gets the outcome) is shed.
        """
        loop = asyncio.get_running_loop()
        pending = PendingAdmission(
            request=request, future=loop.create_future(),
            enqueued_at=loop.time(),
        )
        if self._closed:
            self._resolve_shed(pending, "gateway shutting down")
            return pending.future
        self.submitted_count += 1
        if len(self._pending) >= self.queue_limit:
            victim = self.shed_policy.select_victim(self._pending, pending)
            if victim is not pending:
                try:
                    self._pending.remove(victim)
                except ValueError:  # pragma: no cover - policy bug guard
                    victim = pending
            self._resolve_shed(victim, "admission queue full")
            if victim is pending:
                return pending.future
        self._pending.append(pending)
        self._arrival.set()
        return pending.future

    def _resolve_shed(self, pending: PendingAdmission, reason: str) -> None:
        self.shed_count += 1
        if not pending.future.done():
            pending.future.set_result(
                ShedOutcome(reason=reason, policy=self.shed_policy.name)
            )
        if self.on_shed is not None:
            self.on_shed(pending, reason, len(self._pending))

    # ------------------------------------------------------------------
    # Dispatcher side
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher coroutine on the running loop.

        Recreates the internal wakeup event so a batcher stopped on one
        event loop can be restarted on another (the gateway does this
        on a start → stop → start cycle).
        """
        if self._task is not None:
            raise RuntimeError("dispatcher already started")
        self._closed = False
        self._arrival = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="gateway-micro-batcher"
        )

    async def stop(self) -> None:
        """Stop dispatching; outstanding requests resolve as shed."""
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while self._pending:
            self._resolve_shed(
                self._pending.popleft(), "gateway shutting down"
            )

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._arrival.wait()
            self._arrival.clear()
            # Hold the batch open while arrivals keep coming: yield one
            # loop pass at a time and flush once a pass added nothing.
            deadline = loop.time() + self.batch_window
            seen = 0
            while (
                seen < len(self._pending) < self.max_batch
                and loop.time() < deadline
            ):
                seen = len(self._pending)
                await asyncio.sleep(0)
            while self._pending:
                self.flush_once()

    def flush_once(self) -> int:
        """Admit one batch of up to ``max_batch`` queued requests.

        Exposed for the flush edge-case tests; the dispatcher calls it
        in a drain loop, so an oversize burst becomes several
        back-to-back full batches followed by the remainder.  Returns
        the number of requests admitted (0 when the queue is empty —
        an empty batch never reaches ``admit_batch``).
        """
        if not self._pending:
            return 0
        depth_before = len(self._pending)
        size = min(depth_before, self.max_batch)
        batch = [self._pending.popleft() for _ in range(size)]
        waits: Sequence[float] = ()
        if self.on_flush is not None:
            now = asyncio.get_running_loop().time()
            waits = [now - pending.enqueued_at for pending in batch]
        try:
            results = self.admit_batch([p.request for p in batch])
        except Exception as exc:  # noqa: BLE001 - fail the whole batch
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return size
        if len(results) != size:  # pragma: no cover - admit contract guard
            mismatch = RuntimeError(
                f"admit_batch returned {len(results)} results "
                f"for {size} requests"
            )
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(mismatch)
            return size
        for pending, result in zip(batch, results):
            if not pending.future.done():
                pending.future.set_result(result)
        self.admitted_count += size
        self.flush_count += 1
        if self.on_flush is not None:
            self.on_flush(size, depth_before, results, waits)
        return size
