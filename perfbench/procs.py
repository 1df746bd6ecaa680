"""Child processes of the program under test, and what they leave behind.

Every child is a ``python -m repro ...`` CLI started on port 0; its
address is parsed from the banner it prints (with a timeout), it is
stopped with SIGTERM and reaped with ``wait4`` so its rusage is the
kernel's own accounting, and it is killed if it outlives the grace
period.  Scratch files (child logs, span dumps) live in one directory
inside the checkout that is removed when the run ends, on any exit path.
"""

from __future__ import annotations

import contextlib
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Iterator

from perfbench import ROOT, SRC

__all__ = ["Child", "scratch_dir", "terminate_on_sigterm", "self_peak_rss_mb"]

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Seconds a child gets to print its banner before the run is abandoned.
BANNER_TIMEOUT = 30.0
#: Seconds between SIGTERM and SIGKILL.
STOP_GRACE = 10.0


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A private directory inside the checkout, removed on exit."""
    parent = ROOT / ".perfbench_tmp"
    parent.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()  # only when no concurrent run still uses it


def terminate_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks reap children."""

    def _raise(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _raise)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Child:
    """One ``python -m repro <args>`` process.

    Use as a context manager: leaving the block stops and reaps the
    child whatever happened inside.  ``banner`` is a regex whose first
    group is captured from the child's output into :attr:`match`.
    """

    def __init__(self, args: list[str], banner: str, scratch: str) -> None:
        self.args = args
        self._banner = re.compile(banner)
        self._log_path = os.path.join(
            scratch, f"child-{time.monotonic_ns()}.log"
        )
        self._proc: subprocess.Popen | None = None
        self.match: re.Match | None = None
        self.rusage: resource.struct_rusage | None = None
        self.exit_status: int | None = None

    def __enter__(self) -> "Child":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        with open(self._log_path, "wb") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *self.args],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=ROOT,
            )
        try:
            self._await_banner()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def output(self) -> str:
        """Everything the child has printed so far."""
        with open(self._log_path, encoding="utf-8", errors="replace") as log:
            return log.read()

    def find(self, pattern: str) -> re.Match | None:
        """Search the child's output (e.g. for the metrics-port banner)."""
        return re.search(pattern, self.output())

    def _await_banner(self) -> None:
        deadline = time.monotonic() + BANNER_TIMEOUT
        while time.monotonic() < deadline:
            self.match = self._banner.search(self.output())
            if self.match is not None:
                return
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"repro {' '.join(self.args)} exited with "
                    f"{self._proc.returncode} before its banner:\n"
                    f"{self.output()}"
                )
            time.sleep(0.005)
        raise TimeoutError(
            f"repro {' '.join(self.args)} printed no banner within "
            f"{BANNER_TIMEOUT:g}s:\n{self.output()}"
        )

    def cpu_seconds(self) -> float:
        """User + system CPU the child has consumed so far (/proc)."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as stat:
            # Fields after the parenthesised command name; utime and
            # stime are fields 14 and 15 of the full line.
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> None:
        """SIGTERM, reap with wait4 (SIGKILL after the grace); idempotent."""
        proc = self._proc
        if proc is None or self.exit_status is not None:
            return
        if proc.returncode is not None:  # died before its banner; reaped
            self.exit_status = proc.returncode
            return
        with contextlib.suppress(ProcessLookupError):
            proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + STOP_GRACE
        killed = False
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    proc.kill()
                killed = True
            time.sleep(0.005)
        self.exit_status = os.waitstatus_to_exitcode(status)
        self.rusage = rusage
        # Popen must not try to reap (or warn about) a reaped pid.
        proc.returncode = self.exit_status

    @property
    def peak_rss_mb(self) -> float:
        """Peak resident set of the reaped child, in MiB."""
        assert self.rusage is not None, "child not stopped yet"
        return self.rusage.ru_maxrss / 1024.0
