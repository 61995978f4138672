"""Shared-hardware primitives: counted resources and bandwidth pipes.

Simulated hardware contention all flows through two primitives:

* :class:`Resource` — N interchangeable units granted FIFO (CPU cores,
  flash channels). Holders acquire, hold for some service time, release.
* :class:`Bandwidth` — a link that moves bytes at a fixed rate, one transfer
  at a time (the device DRAM bus, the host interface). Serialization of
  transfers is exactly how the paper describes the shared DRAM bus inside
  the Samsung device ("data transfers from the flash channels to the DRAM
  are serialized").
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator
from repro.sim.stats import BusyTracker

#: When True, :func:`seize` and :func:`hold_all` grant an uncontended
#: resource synchronously and wait on a single timeout instead of routing
#: the grant through an extra event round-trip. This halves the event count
#: of the hot uncontended acquire/hold/release pattern without moving a
#: single virtual timestamp: the unit is taken at the same ``sim.now``
#: either way, so busy integrals, utilization, and completion times are
#: identical (proven by
#: ``tests/property/test_sim_fastpath_equivalence.py``). The flag exists so
#: the equivalence suite can diff fast-path-on against fast-path-off runs.
FAST_PATH = True


class Resource:
    """``capacity`` interchangeable units, granted in FIFO order."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource {name!r} needs capacity >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.busy = BusyTracker()
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        sim.register_traceable(self)

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a unit."""
        return len(self._waiters)

    def request(self) -> Event:
        """Event that succeeds when a unit is granted to the caller."""
        grant = self.sim.event()
        if self._in_use < self.capacity:
            self._take()
            grant.succeed(self)
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Return one held unit; hands it to the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Unit changes hands: usage level is unchanged.
            self._waiters.popleft().succeed(self)
        else:
            self._in_use -= 1
            self.busy.adjust(self.sim.now, -1)
            self._trace()

    def utilization(self, now: Optional[float] = None) -> float:
        """Average fraction of capacity in use so far."""
        return self.busy.utilization(self.sim.now if now is None else now,
                                     self.capacity)

    def _take(self) -> None:
        self._in_use += 1
        self.busy.adjust(self.sim.now, +1)
        self._trace()

    def _trace(self) -> None:
        # Simulator always defines ``tracer``; plain attribute access keeps
        # this per-grant hook off the dynamic-lookup path.
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(self.name, self.sim.now, self._in_use)


def seize(resource: Resource, hold_time: float,
          obs_span=None) -> Generator[Event, None, None]:
    """Acquire ``resource``, hold it for ``hold_time``, then release.

    Use from inside a process as ``yield from seize(cpu, cycles / hz)``.

    When the resource has a free unit (which implies no waiters — a release
    always hands the unit straight to the head waiter), the grant is taken
    synchronously and the whole acquire/hold/release collapses into one
    timeout event. Virtual timestamps are unchanged: the unit is taken at
    the same ``sim.now`` the immediate grant would have recorded.

    ``obs_span``, when given, is an unentered :class:`repro.obs.Span` that
    brackets only the *hold* (after the grant, before the release). On a
    capacity-1 resource holds are exclusive, so these spans never overlap —
    each such resource becomes one clean chrome-trace lane. The span never
    schedules events, so virtual timing is unaffected.
    """
    if FAST_PATH and resource._in_use < resource.capacity:
        resource._take()
        try:
            if obs_span is None:
                yield resource.sim.timeout(hold_time)
            else:
                with obs_span:
                    yield resource.sim.timeout(hold_time)
        finally:
            resource.release()
        return
    yield resource.request()
    try:
        if obs_span is None:
            yield resource.sim.timeout(hold_time)
        else:
            with obs_span:
                yield resource.sim.timeout(hold_time)
    finally:
        resource.release()


def hold_all(sim: Simulator, holds) -> Event:
    """Hold several resources at once; the event succeeds when all release.

    ``holds`` is a list of ``(resource, hold_time, obs_span)``. Each hold
    behaves like :func:`seize` run as its own process, but needs none: a
    free unit is taken now (under :data:`FAST_PATH`), a busy one is queued
    with :meth:`Resource.request` and its grant starts the hold. Either way
    the hold's one scheduled event is its release at ``now + hold_time``,
    which closes ``obs_span`` and calls :meth:`Resource.release` — the same
    booking, tracing and hand-off to the next waiter as :func:`seize`.
    """
    gate = Event(sim)
    left = len(holds)
    if not left:
        gate.succeed()
        return gate

    def finish(resource: Resource, obs_span) -> None:
        nonlocal left
        if obs_span is not None:
            obs_span.finish()
        resource.release()
        left -= 1
        if not left:
            gate.succeed()

    def start(resource: Resource, hold_time: float, obs_span) -> None:
        if obs_span is not None:
            obs_span.__enter__()
        sim._push(sim._now + hold_time,
                  lambda: finish(resource, obs_span))

    for resource, hold_time, obs_span in holds:
        if hold_time < 0:
            raise SimulationError(f"negative timeout: {hold_time}")
        if FAST_PATH and resource._in_use < resource.capacity:
            resource._take()
            start(resource, hold_time, obs_span)
        else:
            resource.request().callbacks.append(
                lambda _grant, r=resource, h=hold_time, s=obs_span:
                start(r, h, s))
    return gate


class Bandwidth:
    """A link moving bytes at a fixed rate, one transfer at a time.

    ``transfer(nbytes)`` is a process-composable generator: it waits for the
    link, occupies it for ``nbytes / rate`` seconds, then releases it.
    Back-to-back transfers therefore serialize, which is what makes a
    capacity-1 :class:`Bandwidth` the right model for the paper's shared
    device DRAM bus and for the host SAS link.
    """

    def __init__(self, sim: Simulator, bytes_per_second: float,
                 name: str = "link"):
        if bytes_per_second <= 0:
            raise SimulationError(f"link {name!r} needs a positive rate")
        self.sim = sim
        self.rate = float(bytes_per_second)
        self.name = name
        self._lane = Resource(sim, 1, name=name)
        self._bytes_moved = 0

    @property
    def bytes_moved(self) -> int:
        """Total bytes transferred so far."""
        return self._bytes_moved

    @property
    def busy(self) -> BusyTracker:
        """Busy tracker of the underlying lane."""
        return self._lane.busy

    def service_time(self, nbytes: int) -> float:
        """Seconds the link is occupied moving ``nbytes``."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer on {self.name!r}")
        return nbytes / self.rate

    def transfer(self, nbytes: int,
                 obs_span=None) -> Generator[Event, None, None]:
        """Move ``nbytes`` across the link (process-composable).

        ``bytes_moved`` is credited on *completion*, not on request: a
        transfer aborted mid-flight (fault injection, closed generator)
        must not inflate the byte counters that utilization reports and
        the energy model derive from.

        ``obs_span`` brackets the occupancy of the link, as in
        :func:`seize`.
        """
        yield from seize(self._lane, self.service_time(nbytes), obs_span)
        self._bytes_moved += nbytes

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of time the link has been busy so far."""
        return self._lane.utilization(now)
