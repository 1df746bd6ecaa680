"""Host-speed calibration: what lets runs on a noisy host agree.

The reference box does not run at one speed.  A fixed single-threaded
kernel takes anything from 1.0x to 1.7x its best time, flipping in
bursts of 0.2-20 s and drifting over minutes, whatever the benchmark
does (other tenants of the same physical host).  Identical runs of a
CPU-bound workload therefore differ by 20-40% - more than any bound
worth gating on, and not something a longer window or a median fixes.

So every run measures the host while it measures the program: a small
fixed kernel (interpreter dispatch, dict updates, SHA-256 - the
instruction mix of the admission pipeline) is timed every few
milliseconds, interleaved with the workload, and each timing metric is
scaled by ``nominal / measured`` kernel time over the same interval -
reported "at nominal host speed".  The kernel is part of the benchmark,
never of the program, so the scale is the same for a parent commit and
its change; what is compared is each one's cost relative to the host's
momentary speed.  On a quiet host the factor is ~1 and the numbers are
plain measurements.
"""

from __future__ import annotations

import hashlib
import signal
import time
from typing import Callable, TypeVar

T = TypeVar("T")

__all__ = ["Calibrator", "NOMINAL_SECONDS"]

#: Kernel time on the reference box at its undisturbed speed
#: (2-CPU Xeon 2.1 GHz, Python 3.11).
NOMINAL_SECONDS = 0.000220
#: Kernel runs on each side of a bracketed call (~2 ms a side).
_BRACKET_SAMPLES = 8


def _kernel() -> None:
    table: dict[int, int] = {}
    digest = hashlib.sha256
    for i in range(350):
        table[i & 63] = digest(b"x%d" % i).digest()[0] + len(table)


class Calibrator:
    """Times the kernel repeatedly; answers "how slow was the host in [a, b]".

    Either call :meth:`sample` between timed regions, or let
    :meth:`every` interrupt the workload on a timer (SIGALRM - the
    handler runs in the main thread between bytecodes, so this works
    for code the harness cannot interleave with, like ``run_campaign``).
    Interval endpoints are :attr:`clock` instants.
    """

    clock = staticmethod(time.monotonic)

    def __init__(self) -> None:
        #: (end instant, kernel seconds, seconds consumed) per sample.
        self.samples: list[tuple[float, float, float]] = []

    def sample(self, warm: bool = False) -> float:
        """Time the kernel once; returns the slowdown it saw.

        ``warm`` runs it once untimed first: a kernel that interrupts a
        workload with a large footprint otherwise times the cache refill
        the interruption caused (+10% on a quiet host, far more next to
        a cache-hungry neighbour) rather than the speed of the CPU.
        """
        opened = self.clock()
        if warm:
            _kernel()
        began = self.clock()
        _kernel()
        ended = self.clock()
        self.samples.append((ended, ended - began, ended - opened))
        return (ended - began) / NOMINAL_SECONDS

    def bracket(self, call: Callable[[], T]) -> tuple[T, float]:
        """``call()`` and its duration at nominal speed.

        For one-off stretches (a set-up) too short to interleave with:
        the host is sampled just before and just after instead.
        """
        opened = self.clock()
        for _ in range(_BRACKET_SAMPLES):
            self.sample()
        began = self.clock()
        result = call()
        ended = self.clock()
        for _ in range(_BRACKET_SAMPLES):
            self.sample()
        return result, (ended - began) / self.slowdown(opened, self.clock())

    def every(self, interval: float) -> None:
        """Sample every ``interval`` seconds until :meth:`stop`."""
        signal.signal(
            signal.SIGALRM, lambda _signum, _frame: self.sample(warm=True)
        )
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, began: float, ended: float) -> float:
        """Mean kernel time in [began, ended] over nominal (1.0 = nominal).

        Multiply a rate by it, divide a duration by it.
        """
        within = [s for at, s, _ in self.samples if began <= at <= ended]
        if not within:
            raise ValueError("no calibration sample in the interval")
        return sum(within) / len(within) / NOMINAL_SECONDS

    def spent(self, began: float, ended: float) -> float:
        """Seconds the sampling itself consumed in [began, ended]."""
        return sum(cost for at, _, cost in self.samples if began <= at <= ended)
