"""Serving state and printing help import no numpy.

``repro``, ``repro.core`` and ``repro.obs`` re-export lazily, and the
metrics registry imports numpy only inside its bulk path, so a process
that hosts the state store (or only prints a usage text) never loads
the framework.  Each check runs a fresh interpreter and reads its
``sys.modules``: a structural check, not a stopwatch.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Runs ``repro.cli.main`` on the arguments after ``-c`` and reports,
#: as the process exits, whether numpy was ever imported.
_PROBE = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('numpy imported:', 'numpy' in "
    "sys.modules, flush=True))\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _probe(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _help_output(*argv: str) -> str:
    proc = _probe(*argv, "--help")
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0, out
    return out


def test_help_imports_no_numpy():
    out = _help_output()
    assert "usage: repro-pow" in out
    assert out.rstrip().endswith("numpy imported: False")


def test_state_serve_help_imports_no_numpy():
    out = _help_output("state", "serve")
    assert "--bind" in out
    assert out.rstrip().endswith("numpy imported: False")


def test_a_state_server_starts_and_stops_without_numpy():
    proc = _probe("state", "serve", "--bind", "127.0.0.1:0")
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving admission state on 127.0.0.1:"), (
            banner + proc.stdout.read()
        )
        proc.send_signal(signal.SIGTERM)
        rest, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, rest
    assert rest.rstrip().endswith("numpy imported: False"), rest
