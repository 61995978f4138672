"""Property tests: the uncontended-seize fast path changes nothing observable.

``repro.sim.resources.FAST_PATH`` collapses an uncontended acquire/hold/
release into a single timeout. Correctness claim: across *any* schedule —
including ones that saturate the resource, where the fast path only triggers
for a subset of grants — virtual completion times, final time, busy
integrals, utilization, and byte counters are identical with the flag on or
off. The golden benchmark results rely on this equivalence.

``hold_all`` holds several resources without a process per hold; the same
observables must match the process-per-hold pattern it replaced, with the
flag on and off.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.resources as resources
from repro.sim import Bandwidth, Resource, Simulator, hold_all, seize

#: (start_delay, hold_time) per worker; starts collide on purpose (coarse
#: grid) so schedules mix contended and uncontended grants.
_schedules = st.lists(
    st.tuples(st.integers(0, 8).map(lambda t: t * 0.5),
              st.floats(min_value=0.01, max_value=3.0, allow_nan=False)),
    min_size=1, max_size=25)


def _run_resource_schedule(schedule, capacity, fast_path):
    old = resources.FAST_PATH
    resources.FAST_PATH = fast_path
    try:
        sim = Simulator()
        resource = Resource(sim, capacity)
        done = {}

        def worker(index, start, hold):
            yield sim.timeout(start)
            yield from seize(resource, hold)
            done[index] = sim.now

        for i, (start, hold) in enumerate(schedule):
            sim.process(worker(i, start, hold))
        sim.run()
        return {
            "now": sim.now,
            "done": done,
            "busy": resource.busy.busy_time(sim.now),
            "utilization": resource.utilization(),
            "in_use": resource.in_use,
            "queue": resource.queue_length,
        }
    finally:
        resources.FAST_PATH = old


def _run_bandwidth_schedule(schedule, fast_path):
    old = resources.FAST_PATH
    resources.FAST_PATH = fast_path
    try:
        sim = Simulator()
        link = Bandwidth(sim, 1000.0)
        done = {}

        def mover(index, start, nbytes):
            yield sim.timeout(start)
            yield from link.transfer(nbytes)
            done[index] = sim.now

        for i, (start, hold) in enumerate(schedule):
            sim.process(mover(i, start, int(hold * 1000)))
        sim.run()
        return {
            "now": sim.now,
            "done": done,
            "bytes": link.bytes_moved,
            "utilization": link.utilization(),
        }
    finally:
        resources.FAST_PATH = old


@given(_schedules, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_fastpath_resource_equivalence(schedule, capacity):
    fast = _run_resource_schedule(schedule, capacity, fast_path=True)
    slow = _run_resource_schedule(schedule, capacity, fast_path=False)
    assert fast == slow  # exact float equality: same adds in the same order


@given(_schedules)
@settings(max_examples=40, deadline=None)
def test_fastpath_bandwidth_equivalence(schedule):
    fast = _run_bandwidth_schedule(schedule, fast_path=True)
    slow = _run_bandwidth_schedule(schedule, fast_path=False)
    assert fast == slow


@given(_schedules, st.integers(min_value=1, max_value=2))
@settings(max_examples=30, deadline=None)
def test_fastpath_reduces_event_count(schedule, capacity):
    """The optimization must actually remove queue pushes, not just match."""

    def count_pushes(fast_path):
        old = resources.FAST_PATH
        resources.FAST_PATH = fast_path
        try:
            sim = Simulator()
            resource = Resource(sim, capacity)

            def worker(start, hold):
                yield sim.timeout(start)
                yield from seize(resource, hold)

            for start, hold in schedule:
                sim.process(worker(start, hold))
            sim.run()
            return sim._sequence
        finally:
            resources.FAST_PATH = old

    assert count_pushes(True) <= count_pushes(False)


#: Per worker: a start on the coarse grid, then the subset of the shared
#: resources it holds at once, each with its own hold time.
_hold_sets = st.lists(
    st.tuples(
        st.integers(0, 8).map(lambda t: t * 0.5),
        st.lists(st.tuples(st.integers(0, 3),
                           st.floats(min_value=0.01, max_value=3.0,
                                     allow_nan=False)),
                 min_size=1, max_size=4, unique_by=lambda hold: hold[0])),
    min_size=1, max_size=25)


def _run_hold_sets(workers, capacities, fast_path, use_hold_all):
    old = resources.FAST_PATH
    resources.FAST_PATH = fast_path
    try:
        sim = Simulator()
        shared = [Resource(sim, capacity, name=f"r{i}")
                  for i, capacity in enumerate(capacities)]
        done = {}

        def worker(index, start, holds):
            yield sim.timeout(start)
            if use_hold_all:
                yield hold_all(sim, [(shared[r], hold, None)
                                     for r, hold in holds])
            else:  # the process-per-hold pattern hold_all replaces
                yield sim.all_of([sim.process(seize(shared[r], hold))
                                  for r, hold in holds])
            done[index] = sim.now

        for i, (start, holds) in enumerate(workers):
            sim.process(worker(i, start, holds))
        sim.run()
        return {
            "now": sim.now,
            "done": done,
            "busy": [r.busy.busy_time(sim.now) for r in shared],
            "utilization": [r.utilization() for r in shared],
            "in_use": [r.in_use for r in shared],
            "queue": [r.queue_length for r in shared],
        }
    finally:
        resources.FAST_PATH = old


@pytest.mark.parametrize("fast_path", [True, False])
@given(workers=_hold_sets,
       capacities=st.lists(st.integers(min_value=1, max_value=2),
                           min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_hold_all_matches_process_per_hold(workers, capacities, fast_path):
    gated = _run_hold_sets(workers, capacities, fast_path, use_hold_all=True)
    reference = _run_hold_sets(workers, capacities, fast_path,
                               use_hold_all=False)
    assert gated == reference
