"""perfbench: the repo's end-to-end + per-layer performance benchmark.

Standalone harness (nothing under ``src/`` imports it) that drives the
program through its public surface only — the ``repro serve`` /
``repro state serve`` CLIs as child processes, and
``FrameworkSpec.build``, ``AIPoWFramework.challenge_batch``/``redeem``,
``RemoteStateStore`` and ``run_campaign`` in-process.  See
``perfbench/README.md`` for every workload, metric and prediction.
"""

import pathlib
import sys

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The program under test; child processes get it through PYTHONPATH.
SRC = ROOT / "src"


def import_program() -> None:
    """Put the program under test on ``sys.path`` (idempotent).

    Raises :class:`ModuleNotFoundError` when the checkout holds only the
    benchmark — the harness then exits non-zero without a result.
    """
    if not (SRC / "repro").is_dir():
        # An installed copy elsewhere is not this checkout's program.
        raise ModuleNotFoundError(f"no program under test at {SRC / 'repro'}")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
