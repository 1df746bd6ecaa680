"""Callback reference engines: the oracle the shipped engine is held to.

The shipped simulator is :class:`~repro.net.sim.fastsim.FastSimulation`.
These are the same model written the slow, obvious way — one Python
closure per event over a binary heap (:class:`EventEngine`) — kept only
so the tests and benchmarks can check the fast engine against them:

* :class:`Simulation` — open-loop traces
  (``tests/replay/test_fastsim_parity.py``,
  ``tests/replay/test_links_parity.py``, the ``megasim`` / ``netsim``
  ratio gates under ``benchmarks/``);
* :class:`ClosedLoopSimulation` — closed-loop sessions, against
  :meth:`FastSimulation.run_sessions
  <repro.net.sim.fastsim.FastSimulation.run_sessions>`.

Every keyword these constructors take is a ``FastSimulation`` keyword
too, so one workload drives either.  Nothing under ``src/`` may import
this package (``tests/test_oracle_boundary.py``).
"""

from tests.oracle.closedloop import ClosedLoopSimulation
from tests.oracle.engine import EventEngine, ScheduledEvent
from tests.oracle.simulation import Simulation

__all__ = [
    "ClosedLoopSimulation",
    "EventEngine",
    "ScheduledEvent",
    "Simulation",
]
