"""Discrete-event simulation of the framework's network environment.

One engine: :class:`FastSimulation` replays open-loop traces
(:meth:`~FastSimulation.run`), drives struct-of-arrays fire schedules
over an :class:`AgentPopulation` (:meth:`~FastSimulation.run_fires`)
and runs closed-loop :class:`SessionSpec` sessions
(:meth:`~FastSimulation.run_sessions`), over a
:class:`CalendarQueue` of same-instant cohorts.  Runs report a
:class:`SimulationReport` or :class:`ClosedLoopReport`; the server's
FIFO costs are a :class:`ServerModel`.
"""

from repro.net.sim.agents import AgentPopulation
from repro.net.sim.calendar import CalendarQueue
from repro.net.sim.channel import (
    Channel,
    FixedDelayChannel,
    LognormalChannel,
    UniformJitterChannel,
)
from repro.net.sim.fastsim import (
    ClosedLoopReport,
    FastFeedback,
    FastSimulation,
    ServerModel,
    SessionSpec,
    SimulationReport,
)

__all__ = [
    "CalendarQueue",
    "Channel",
    "FixedDelayChannel",
    "UniformJitterChannel",
    "LognormalChannel",
    "AgentPopulation",
    "FastFeedback",
    "FastSimulation",
    "SimulationReport",
    "ServerModel",
    "ClosedLoopReport",
    "SessionSpec",
]
