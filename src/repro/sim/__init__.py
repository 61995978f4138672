"""Discrete-event simulation kernel.

A small SimPy-like engine: generator-based processes yield
:class:`~repro.sim.engine.Event` objects and are resumed when those events
fire. Shared hardware (flash channels, the device DRAM bus, the host
interface, CPU cores) is modeled with :class:`~repro.sim.resources.Resource`
and :class:`~repro.sim.resources.Bandwidth`, both of which track busy-time
integrals so utilization and energy can be derived after a run. A process
holds one resource with :func:`~repro.sim.resources.seize`, or several at
once with :func:`~repro.sim.resources.hold_all`, which posts one release
event per hold and no process.
"""

from repro.sim.engine import Event, Process, Simulator
from repro.sim.resources import Bandwidth, Resource, hold_all, seize
from repro.sim.stats import BusyTracker
from repro.sim.trace import TraceMark, Tracer

__all__ = [
    "Bandwidth",
    "BusyTracker",
    "Event",
    "Process",
    "Resource",
    "Simulator",
    "TraceMark",
    "Tracer",
    "hold_all",
    "seize",
]
