"""Lane worlds: isolated clones of one Database, one per execution lane.

The parallel runtime (:mod:`repro.runtime`) never lets two OS threads (or
processes) touch the same :class:`~repro.sim.Simulator`. Instead it keeps
a *fleet* of *lane worlds* — full pickle-round-trip clones of the parent
:class:`~repro.host.db.Database`, each pruned down to the devices of one
lane — and runs every batch's per-lane work units inside those clones.
The parent world is only read while lanes run; all mutation happens at
merge time (:mod:`repro.runtime.merge`), after validation, by *replaying*
the lanes' recorded busy-level changes onto the parent's own trackers.

Why replay instead of shipping busy-time deltas: ``BusyTracker`` keeps a
float integral, and float accumulation is order- and base-dependent
(``(a + x) - a != x``). Replaying the exact ``(time, level)`` sequence the
serial run would have produced reproduces serial's exact float operation
sequence on the parent's trackers, so energy, utilization, and host-CPU
accounting stay *bit-identical* to the serial backend — not just close.

The mapping from lane resources back to parent resources is positional:
``Simulator._traceables`` preserves construction order across the pickle
round trip, and resource *names* collide across devices (every SSD has a
``device-dram-bus``, every controller its ``flash-channel-N``), so names
cannot address them. Resources a lane creates after cloning (per-batch
admission gates, per-session windows) have indices past the clone point
and deliberately have no parent counterpart to replay onto.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.engine.plans import Placement, Query
from repro.flash.hdd import Hdd
from repro.sim.stats import BusyTracker
from repro.sim.trace import Tracer

#: Effectively-infinite host-CPU capacity installed in every lane world.
#:
#: A lane must never *queue* on the host CPU: queuing would interleave its
#: grants with demand the lane cannot see (the other lanes), producing
#: timings that depend on the partition. With unbounded lane capacity the
#: recorded level log is the lane's raw *demand* curve; the merge step
#: sums the lanes' demand curves and accepts the batch only if the summed
#: peak never exceeds the real capacity — i.e. only when the serial run
#: would not have queued either, which is exactly when timings agree.
LANE_CPU_CAPACITY = 1 << 20


class _RecordingTracker(BusyTracker):
    """A ``BusyTracker`` that also logs every ``(time, level)`` change.

    Installed over each cloned resource's tracker (seeded with the parent
    state, so in-lane ``busy_time`` reads stay correct). ``adjust`` funnels
    through ``set_level``, so one override captures every change.
    """

    def __init__(self, base: BusyTracker):
        self._level = base._level
        self._last_change = base._last_change
        self._integral = base._integral
        self.log: list[tuple[float, float]] = []

    def set_level(self, now: float, level: float) -> None:
        self.log.append((now, level))
        BusyTracker.set_level(self, now, level)


def world_fingerprint(db) -> tuple:
    """Cheap identity of everything a lane world clones.

    A cached fleet is only reused while this is unchanged. The explicit
    ``_world_version`` counter covers data mutation (DML, flush, fault
    plans, device attach); the catalog part covers tables created behind
    the Database facade (``catalog.create_sharded_table`` is called
    directly by the serving layer's ablations).
    """
    catalog = db.catalog
    return (
        getattr(db, "_world_version", 0),
        tuple(sorted(catalog._tables)),
        tuple(sorted(catalog._versions.items())),
        tuple(sorted(db._devices)),
    )


@dataclass(frozen=True)
class LaneSubmissionSpec:
    """The slice of a scheduler Submission a lane needs to run it."""

    index: int                  # parent submission index (keeps track names)
    query: Query
    placement: Placement
    resolved: Placement
    arrival: float


@dataclass(frozen=True)
class LaneBatch:
    """One gather()'s worth of work for one lane."""

    start: float                # parent virtual clock at batch start
    units: tuple[tuple[str, tuple[LaneSubmissionSpec, ...]], ...]
    obs: bool                   # parent has observability attached
    trace: bool                 # parent has a tracer attached


@dataclass
class LaneResult:
    """Everything a lane ships back from one batch.

    Numbers that feed parent state are either exact ints (byte counters,
    buffer-pool counts) or raw ``(time, level)`` logs that the merge step
    replays; nothing pre-summed in floats crosses the boundary.
    """

    lane: int
    end: float                                    # lane clock after the batch
    submissions: list[dict]                       # filled parent tickets
    stats: dict
    tracker_logs: dict[int, list[tuple[float, float]]]   # traceable idx -> log
    byte_deltas: dict[str, tuple[int, int]]       # device -> (interface, dram)
    bp_delta: tuple[int, int, int, int]           # hits, misses, evictions, frames
    bp_dirty: bool
    health: dict[str, tuple[int, int, int]]       # device -> health triple
    rescued: bool                                 # any member's scan died
    pushdown_fallbacks: int
    spans: list = field(default_factory=list)
    metric_series: list = field(default_factory=list)   # (key, kind, payload)
    trace_events: dict = field(default_factory=dict)    # name -> [(t, level)]
    trace_marks: list = field(default_factory=list)     # (t, label, detail)


class LaneWorld:
    """One lane's private clone of the parent world, reusable across batches."""

    def __init__(self, db, lane: int, devices: tuple[str, ...],
                 clone_count: int, host_cpu_index: int, scheduler_config):
        from repro.sched.scheduler import QueryScheduler

        self.db = db
        self.lane = lane
        self.devices = devices
        #: Parent traceable count at clone time: only indices below this
        #: have a parent counterpart to replay onto.
        self.clone_count = clone_count
        self.host_cpu_index = host_cpu_index
        self._prune()
        self.db.machine.cpu.capacity = LANE_CPU_CAPACITY
        self.recorders: list[_RecordingTracker] = []
        for resource in self.db.sim._traceables[:clone_count]:
            recorder = _RecordingTracker(resource.busy)
            resource.busy = recorder
            self.recorders.append(recorder)
        self.scheduler = QueryScheduler(self.db, scheduler_config)

    def _prune(self) -> None:
        """Drop everything outside this lane's devices, freeing the memory.

        Catalog tables pin their device objects, so foreign tables must go
        too; sharded logicals whose shards span foreign devices likewise.
        Lane queries only ever name tables on lane devices (the planner
        guarantees it), so nothing reachable is dropped.
        """
        db = self.db
        keep = set(self.devices)
        db._devices = {name: device for name, device in db._devices.items()
                       if name in keep}
        catalog = db.catalog
        foreign = [name for name, table in catalog._tables.items()
                   if table.device_name not in keep]
        for name in foreign:
            del catalog._tables[name]
            catalog._shard_parent.pop(name, None)
        catalog._sharded = {
            name: sharded for name, sharded in catalog._sharded.items()
            if set(sharded.device_names) <= keep}

    # -- one batch ---------------------------------------------------------

    def run_batch(self, batch: LaneBatch) -> LaneResult:
        from repro.sched.scheduler import QueryScheduler, Submission

        db = self.db
        sim = db.sim
        sim.advance_to(batch.start)
        for recorder in self.recorders:
            recorder.log.clear()

        # Per-batch observability/tracer so spans, metric values, and
        # trace events come out as batch *deltas*, ready to merge.
        sim.tracer = Tracer() if (batch.trace or batch.obs) else None
        obs = None
        if batch.obs:
            from repro.obs import Observability
            obs = Observability().attach(sim)

        bp = db.buffer_pool
        bp_before = (bp.hits, bp.misses, bp.evictions, len(bp))
        bytes_before = {name: (db._interface_bytes(device),
                               db._dram_bytes(device))
                        for name, device in db._devices.items()}

        submissions: list[Submission] = []
        units: list[tuple[str, list[Submission]]] = []
        for kind, members in batch.units:
            group = [Submission(index=m.index, query=m.query,
                                placement=m.placement, arrival=m.arrival,
                                resolved=m.resolved)
                     for m in members]
            units.append((kind, group))
            submissions.extend(group)

        sched = self.scheduler
        sched.stats = QueryScheduler._fresh_stats(len(submissions))
        try:
            sched._execute_units(units)
        finally:
            sim.obs = None
            sim.tracer = None

        result = LaneResult(
            lane=self.lane,
            end=sim.now,
            submissions=[{
                "index": s.index,
                "resolved": s.resolved,
                "outcome": s.outcome,
                "done_at": s.done_at,
                "shared": s.shared,
                "late_attach": s.late_attach,
                "rescued": s.rescued,
                "admission_wait": s.admission_wait,
            } for s in submissions],
            stats=sched.stats,
            tracker_logs={index: list(recorder.log)
                          for index, recorder in enumerate(self.recorders)
                          if recorder.log},
            byte_deltas={
                name: (db._interface_bytes(device) - bytes_before[name][0],
                       db._dram_bytes(device) - bytes_before[name][1])
                for name, device in db._devices.items()
                if not isinstance(device, Hdd)},
            bp_delta=(bp.hits - bp_before[0], bp.misses - bp_before[1],
                      bp.evictions - bp_before[2], len(bp) - bp_before[3]),
            bp_dirty=any(frame.dirty for frame in bp._frames.values()),
            health={name: (record.consecutive_failures,
                           record.total_failures, record.total_successes)
                    for name, record in db.health._devices.items()
                    if name in db._devices},
            rescued=any(s.rescued for s in submissions),
            pushdown_fallbacks=sum(
                s.outcome.counters.pushdown_fallbacks
                for s in submissions if s.outcome is not None),
        )
        if obs is not None:
            result.spans = list(obs.spans)
            result.metric_series = _dump_metrics(obs.metrics)
        tracer = obs.tracer if obs is not None else None
        if batch.trace and tracer is not None:
            result.trace_events = {
                name: [(change.time, change.level) for change in changes]
                for name, changes in tracer._events.items()}
            result.trace_marks = [(mark.time, mark.label, mark.detail)
                                  for mark in tracer._marks]
        return result


def _dump_metrics(registry) -> list[tuple[str, str, Any]]:
    """Flatten a lane registry into picklable (key, kind, payload) rows."""
    from repro.obs.metrics import Counter, Gauge, Histogram

    rows: list[tuple[str, str, Any]] = []
    for key, series in registry._series.items():
        if isinstance(series, Counter):
            rows.append((key, "counter", series.value))
        elif isinstance(series, Gauge):
            rows.append((key, "gauge", series.value))
        elif isinstance(series, Histogram):
            rows.append((key, "histogram", (series.count, series.total,
                                            series.vmin, series.vmax)))
    return rows


def clone_lane_worlds(db, groups: tuple[tuple[str, ...], ...],
                      scheduler_config) -> list[LaneWorld]:
    """Pickle the parent world once and materialize one clone per lane.

    The non-picklable / parent-only attachments (observability, tracer,
    fault plan) are detached for the dump and restored immediately; lanes
    get fresh per-batch instances instead (see :meth:`LaneWorld.run_batch`).
    """
    sim = db.sim
    saved = (sim.obs, sim.tracer, sim.faults)
    sim.obs = sim.tracer = sim.faults = None
    try:
        blob = pickle.dumps(db, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        sim.obs, sim.tracer, sim.faults = saved
    clone_count = len(sim._traceables)
    host_cpu_index = sim._traceables.index(db.machine.cpu)
    worlds = []
    for lane, devices in enumerate(groups):
        clone = pickle.loads(blob)
        worlds.append(LaneWorld(clone, lane, devices, clone_count,
                                host_cpu_index, scheduler_config))
    return worlds
