"""Discrete-event simulation of the framework's network environment.

The engine is chosen by class.  :class:`Simulation` (open-loop traces)
and :class:`ClosedLoopSimulation` (sessions) are the callback reference
engines over :class:`EventEngine`; :class:`FastSimulation` is the same
model over struct-of-arrays cohorts, takes the same constructor
arguments, and its ``run`` / ``run_sessions`` are drop-ins for theirs.
"""

from repro.net.sim.agents import AgentPopulation
from repro.net.sim.calendar import CalendarQueue
from repro.net.sim.channel import (
    Channel,
    FixedDelayChannel,
    LognormalChannel,
    UniformJitterChannel,
)
from repro.net.sim.closedloop import (
    ClosedLoopReport,
    ClosedLoopSimulation,
    SessionSpec,
)
from repro.net.sim.engine import EventEngine, ScheduledEvent
from repro.net.sim.fastsim import FastFeedback, FastSimulation
from repro.net.sim.simulation import ServerModel, Simulation, SimulationReport
from repro.net.sim.solvetime import SolveSample, SolveTimeModel

__all__ = [
    "EventEngine",
    "ScheduledEvent",
    "CalendarQueue",
    "Channel",
    "FixedDelayChannel",
    "UniformJitterChannel",
    "LognormalChannel",
    "SolveTimeModel",
    "SolveSample",
    "AgentPopulation",
    "FastFeedback",
    "FastSimulation",
    "Simulation",
    "SimulationReport",
    "ServerModel",
    "ClosedLoopSimulation",
    "ClosedLoopReport",
    "SessionSpec",
]
