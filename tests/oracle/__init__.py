"""Callback reference engines: the oracle the shipped engine is held to.

The shipped simulator is :class:`~repro.net.sim.fastsim.FastSimulation`.
These are the same model written the slow, obvious way — one Python
closure per event over a binary heap (:class:`EventEngine`) — kept only
so the tests can check the fast engine against them:

* :class:`Simulation` — open-loop traces
  (``tests/replay/test_fastsim_parity.py``,
  ``tests/replay/test_links_parity.py``, the scale-workload aggregates
  in ``tests/net/test_scale_budget.py``);
* :class:`ClosedLoopSimulation` — closed-loop sessions, against
  :meth:`FastSimulation.run_sessions
  <repro.net.sim.fastsim.FastSimulation.run_sessions>`;
* :mod:`tests.oracle.cohorts` — the always-sort, pairwise cohort
  grouping the fast engine's shortcuts are held to
  (``tests/net/test_cohort_grouping.py``).

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
