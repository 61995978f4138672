"""Lane planning: which scheduler units may run in which isolated world.

A *lane* is a set of devices whose work this batch never couples to the
rest of the world: every unit whose table (and join build side) lives on
lane devices can run in a private clone of the world and merge back
deterministically. Shard legs to distinct devices parallelize; shared-scan
cliques and same-device queues stay within one lane by construction
(their units all name the same device, so union-find keeps them together).

``plan_lanes`` is deliberately conservative: anything that couples lanes
through host-side state declines the whole batch to the serial engine,
which is always available and always exact. The decline reasons are:

``single_lane``
    fewer than two device groups — nothing to parallelize.
``host_placement``
    a unit resolved to host execution: host scans route pages through the
    shared buffer pool and dominate the shared host CPU.
``fault_plan``
    an active fault plan with rules: fault consultation is stateful
    (hit/fired counters, RNG draws) and failure recovery couples devices
    through host fallback and the health registry.
``dirty_pages``
    the buffer pool holds newer-than-device pages, so device scans are
    not authoritative and the serial path's pushdown veto must decide.
``write_dml``
    the batch contains scheduler write units: DML mutates the buffer
    pool, catalog versions, and device FTL state — host-side couplings a
    lane clone cannot merge back.
``unpicklable``
    (process backend only) the batch payload cannot cross a pipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.engine.plans import Placement


def lane_partition(device_names: Iterable[str]) -> tuple[str, ...]:
    """Canonical device ordering for per-device parallel execution.

    The fleet's execution *lanes* — one isolated simulation per device
    group — are always created, dispatched, and merged in this order, so
    every parallel run is deterministic whatever the worker scheduling
    was.
    """
    return tuple(sorted(dict.fromkeys(device_names)))


@dataclass(frozen=True)
class LanePlan:
    """The accepted partition of one batch's units into lanes."""

    #: Device groups, one per lane, in canonical ``lane_partition`` order.
    groups: tuple[tuple[str, ...], ...]
    #: ``unit_lanes[i]`` is the lane index of the i-th planned unit.
    unit_lanes: tuple[int, ...]


def _unit_devices(db, members) -> Optional[set]:
    devices = set()
    for submission in members:
        if submission.resolved is Placement.HOST:
            return None
        devices.add(db.catalog.table(submission.query.table).device_name)
        if submission.query.join is not None:
            devices.add(
                db.catalog.table(submission.query.join.build_table)
                .device_name)
    return devices


def plan_lanes(scheduler, units) -> tuple[Optional[LanePlan], str]:
    """Partition planned units into device lanes, or decline with a reason."""
    db = scheduler.db
    faults = db.sim.faults
    if faults is not None and getattr(faults, "rules", None):
        return None, "fault_plan"
    if any(frame.dirty for frame in db.buffer_pool._frames.values()):
        return None, "dirty_pages"

    parent: dict[str, str] = {}

    def find(device: str) -> str:
        root = device
        while parent.setdefault(root, root) != root:
            root = parent[root]
        parent[device] = root
        return root

    per_unit: list[set] = []
    for kind, members in units:
        if kind == "write":
            return None, "write_dml"
        devices = _unit_devices(db, members)
        if devices is None:
            return None, "host_placement"
        per_unit.append(devices)
        first = find(next(iter(devices)))
        for device in devices:
            parent[find(device)] = first

    grouped: dict[str, list[str]] = {}
    for device in parent:
        grouped.setdefault(find(device), []).append(device)
    groups = tuple(sorted((lane_partition(members)
                           for members in grouped.values()),
                          key=lambda group: group[0]))
    if len(groups) < 2:
        return None, "single_lane"

    lane_of = {device: index
               for index, group in enumerate(groups)
               for device in group}
    unit_lanes = tuple(lane_of[next(iter(devices))] for devices in per_unit)
    return LanePlan(groups=groups, unit_lanes=unit_lanes), ""
