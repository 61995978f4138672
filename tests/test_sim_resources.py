"""Unit tests for Bandwidth pipes, hold_all and busy-time accounting."""

import pytest

from repro.errors import SimulationError
from repro.sim import (Bandwidth, BusyTracker, Resource, Simulator,
                       hold_all, seize)


def test_bandwidth_single_transfer_time():
    sim = Simulator()
    link = Bandwidth(sim, 100.0, name="link")

    def mover():
        yield from link.transfer(250)

    sim.process(mover())
    sim.run()
    assert sim.now == pytest.approx(2.5)
    assert link.bytes_moved == 250


def test_bandwidth_transfers_serialize():
    """Two concurrent transfers on one link take the sum of their times."""
    sim = Simulator()
    link = Bandwidth(sim, 100.0, name="dram-bus")

    def mover():
        yield from link.transfer(100)

    sim.process(mover())
    sim.process(mover())
    sim.run()
    assert sim.now == pytest.approx(2.0)


def test_two_links_run_in_parallel():
    sim = Simulator()
    a = Bandwidth(sim, 100.0, name="a")
    b = Bandwidth(sim, 100.0, name="b")

    def mover(link):
        yield from link.transfer(100)

    sim.process(mover(a))
    sim.process(mover(b))
    sim.run()
    assert sim.now == pytest.approx(1.0)


def test_bandwidth_utilization():
    sim = Simulator()
    link = Bandwidth(sim, 100.0)

    def mover():
        yield from link.transfer(100)
        yield sim.timeout(3.0)

    sim.process(mover())
    sim.run()
    assert link.utilization() == pytest.approx(0.25)


def test_zero_byte_transfer_is_free():
    sim = Simulator()
    link = Bandwidth(sim, 100.0)

    def mover():
        yield from link.transfer(0)

    sim.process(mover())
    sim.run()
    assert sim.now == 0.0


def test_negative_transfer_rejected():
    sim = Simulator()
    link = Bandwidth(sim, 100.0)
    with pytest.raises(SimulationError):
        link.service_time(-1)


def test_nonpositive_rate_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Bandwidth(sim, 0.0)


def test_hold_all_waits_for_the_last_release():
    sim = Simulator()
    first, second = Resource(sim, 1), Resource(sim, 1)
    done = []

    def blocker():
        yield from seize(second, 2.0)

    def holder():
        yield hold_all(sim, [(first, 1.0, None), (second, 3.0, None)])
        done.append(sim.now)

    sim.process(blocker())
    sim.process(holder())
    sim.run()
    # ``second`` is busy until t=2, so its queued hold ends at 2 + 3.
    assert done == [5.0]
    assert first.busy.busy_time(sim.now) == 1.0
    assert second.busy.busy_time(sim.now) == 5.0
    assert first.in_use == second.in_use == 0


def test_hold_all_of_nothing_is_immediate():
    sim = Simulator()
    gate = hold_all(sim, [])
    sim.run()
    assert gate.ok and sim.now == 0.0


def test_hold_all_negative_hold_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative"):
        hold_all(sim, [(Resource(sim, 1), -1.0, None)])


def test_busy_tracker_integral():
    tracker = BusyTracker()
    tracker.adjust(0.0, +1)
    tracker.adjust(2.0, +1)   # level 2 from t=2
    tracker.adjust(3.0, -2)   # idle from t=3
    assert tracker.busy_time(5.0) == pytest.approx(1 * 2 + 2 * 1)
    assert tracker.utilization(5.0, capacity=2) == pytest.approx(4 / 10)


def test_busy_tracker_live_level_counts():
    tracker = BusyTracker()
    tracker.adjust(0.0, +1)
    assert tracker.busy_time(4.0) == pytest.approx(4.0)
