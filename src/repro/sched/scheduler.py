"""The concurrent query scheduler (admission control + scan sharing).

:class:`QueryScheduler` turns the paper's §4.3 concurrency concern — "the
impact of concurrent queries on the performance of the Smart SSD" — into a
managed resource. Submissions queue through per-device **admission
control** (a bounded number of in-flight executions per device, granted
FIFO or shortest-extent-first), and concurrently admitted queries over the
same table extent are fused into ONE device-side shared scan
(:mod:`repro.smart.programs.shared`): the extent crosses NAND and the DRAM
bus once, pages are decoded once, and each query pays only its marginal
predicate/aggregate work. Queries arriving while a compatible scan is
mid-extent ATTACH to it and pick the scan up in place.

The scheduler is deliberately a *planner plus pump*, not a policy engine:
``submit()`` only records the submission (with a virtual arrival time);
``gather()`` plans the shared groups, spawns one simulation process per
execution unit, runs the world to completion, and assembles one
:class:`~repro.model.report.ExecutionReport` per submission in submission
order: each report's elapsed time is that query's own completion time,
and the energy block (identical on every report) covers the whole window.

A query alone at its arrival instant runs as a one-member scan, which is
exactly the solo pushdown; :meth:`~repro.host.db.Database.execute_placed`
is a window holding one submission. A sharded table's query runs one
submission per shard (:func:`~repro.host.planner.plan_scatter`), merged
back into one report; its UPDATE runs one write unit per shard. Fairness
caveats are documented in ``docs/SCHEDULER.md``: late attachers bypass
admission control (they add marginal work to an already-admitted scan
rather than a new device session).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Union

from repro.engine.plans import Placement, Query
from repro.errors import (
    DeviceTimeoutError,
    PlanError,
    ProgramCrashError,
    ProtocolError,
    ShardUnavailable,
)
from repro.host.catalog import ShardedTable
from repro.host.dml import validate_update
from repro.host.executor import (
    QueryOutcome,
    SharedScanHandle,
    attach_to_shared_scan,
    execute_many,
    host_query_process,
)
from repro.host.planner import ScatterPlan, merge_scatter_rows, plan_scatter
from repro.model.counters import WorkCounters
from repro.model.report import ExecutionReport
from repro.sim import Resource
from repro.smart.device import SmartSsd
from repro.writepath import WriteTicket, write_unit_process

if TYPE_CHECKING:
    from repro.host.db import Database

#: Errors after which a query that tried to ATTACH opens a fresh scan.
_ATTACH_REFUSALS = (ProgramCrashError, DeviceTimeoutError, ProtocolError,
                    PlanError)


class AdmissionPolicy(Enum):
    """Order in which queued submissions are admitted to a device."""

    FIFO = "fifo"
    SHORTEST_EXTENT_FIRST = "sef"

    @classmethod
    def coerce(cls, value: Union["AdmissionPolicy", str]) -> "AdmissionPolicy":
        """Accept the enum or its wire string."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise PlanError(
                f"unknown admission policy {value!r}; expected one of "
                f"{[p.value for p in cls]}") from None


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunables of one :class:`QueryScheduler`."""

    #: Concurrent executions admitted per device; a shared scan counts as
    #: one however many queries ride it. The default matches the device
    #: runtime's session cap.
    max_inflight_per_device: int = 4
    #: Concurrent DML write units admitted per device. Writes pass their
    #: own (smaller) gate so a DML burst cannot occupy the scan slots —
    #: and vice versa (see :mod:`repro.writepath`).
    max_inflight_writes_per_device: int = 2
    #: Batch same-table write units into one dirty-page write-back: the
    #: last unit to apply its update flushes for the whole group. Off,
    #: every write unit flushes its own table immediately.
    group_flush: bool = True
    policy: AdmissionPolicy = AdmissionPolicy.FIFO
    #: Fuse concurrently admitted same-extent queries into one scan.
    share_scans: bool = True
    #: Overrides for the device pipeline shape (None: program defaults).
    io_unit_pages: Optional[int] = None
    window: Optional[int] = None
    #: Execution backend: ``"serial"`` (one simulator, the historical
    #: engine), ``"thread"``, or ``"process"`` (per-device lanes in
    #: isolated worlds — see :mod:`repro.runtime`). Every backend is
    #: bit-identical; parallel ones silently run batches they cannot
    #: prove independent on the serial engine.
    backend: str = "serial"


@dataclass
class Submission:
    """One submitted query: the ticket :meth:`QueryScheduler.submit` returns.

    A sharded table's submission carries its scatter ``plan``; gather runs
    its ``shards`` and merges them into this ticket's ``report`` (for
    aggregates, over the submitted query's ``finalize``). A plain table's
    submission runs as itself.
    """

    index: int                    # position in the window's execution order
    query: Query
    placement: Placement
    arrival: float
    plan: Optional[ScatterPlan] = None
    # Filled in by gather():
    resolved: Optional[Placement] = None
    outcome: Optional[QueryOutcome] = None
    done_at: Optional[float] = None
    shared: bool = False          # served by a multi-query scan
    late_attach: bool = False     # joined an in-flight scan via ATTACH
    rescued: bool = False         # its scan retried a session or fell back
    admission_wait: float = 0.0   # virtual seconds queued for admission
    report: Optional[ExecutionReport] = None
    shards: list["Submission"] = field(default_factory=list)

    def split(self, first: int) -> list["Submission"]:
        """The physical submissions this one runs as, numbered from
        ``first``: itself for a plain table, its shards for a sharded one."""
        if self.plan is None:
            self.index = first
            return [self]
        self.shards = [Submission(first + i, query, self.placement,
                                  self.arrival)
                       for i, query in enumerate(self.plan.shard_queries)]
        return self.shards


class QueryScheduler:
    """Multi-query scheduler over one :class:`~repro.host.db.Database`."""

    def __init__(self, db: "Database",
                 config: Optional[SchedulerConfig] = None):
        self.db = db
        self.config = config or SchedulerConfig()
        self.submissions: list[Submission] = []
        self.write_submissions: list[WriteTicket] = []
        #: Accounting of the most recent :meth:`gather` run.
        self.stats: dict = {}
        # Live shared scans, keyed by (device, table): ATTACH targets.
        self._live: dict[tuple[str, str], SharedScanHandle] = {}
        self._admission: dict[str, Resource] = {}
        self._write_admission: dict[str, Resource] = {}
        #: Parallel-runtime accounting (batches run parallel vs serial,
        #: fleet builds, fallback reasons) — separate from :attr:`stats`,
        #: which stays backend-independent.
        self.runtime_stats: dict = {
            "backend": self.config.backend,
            "parallel_batches": 0,
            "serial_batches": 0,
            "fleet_builds": 0,
            "fallbacks": {},
        }
        self._runtime = None

    # -- submission --------------------------------------------------------

    def submit(self, query: Query,
               placement: Union[Placement, str] = Placement.SMART,
               at: float = 0.0) -> Submission:
        """Enqueue a query; ``at`` is its arrival offset in virtual seconds.

        Nothing runs until :meth:`gather`; the returned ticket is filled in
        by the run.
        """
        if not isinstance(query, Query):
            raise PlanError(
                f"submit takes a Query, got {type(query).__name__}")
        if at < 0:
            raise PlanError(f"negative arrival offset: {at}")
        self.check_table(query.table)
        plan = (plan_scatter(self.db, query)
                if self.db.catalog.is_sharded(query.table) else None)
        submission = Submission(index=len(self.submissions), query=query,
                                placement=Placement.coerce(placement),
                                arrival=float(at), plan=plan)
        self.submissions.append(submission)
        return submission

    def check_table(self, name: str):
        """The plain or sharded table ``name`` denotes; raises
        :class:`~repro.errors.CatalogError` when unknown and
        :class:`~repro.errors.ShardUnavailable` when a shard's device is
        detached."""
        relation = self.db.catalog.relation(name)
        if isinstance(relation, ShardedTable):
            attached = self.db.device_names()
            for index, device in enumerate(relation.device_names):
                if device not in attached:
                    raise ShardUnavailable(
                        f"shard {index} of {name!r} lives on device "
                        f"{device!r}, which is not attached")
        return relation

    def submit_update(self, table_name: str, predicate, assignments,
                      at: float = 0.0) -> WriteTicket:
        """Enqueue an UPDATE as a first-class write unit; returns its ticket.

        ``at`` is the statement's arrival offset in virtual seconds from
        the start of the next gather window. Like :meth:`submit`, nothing
        runs until :meth:`gather`; the ticket's accounting fields (rows
        changed, pages flushed, FTL write amplification) are filled in by
        the run. Write tickets do not occupy report slots — ``gather``
        still returns exactly one report per query submission. The whole
        statement is checked here (:func:`~repro.host.dml.validate_update`),
        so a bad column or literal raises at submit, not inside gather. A
        sharded table's statement runs one unit per shard (or copy); the
        ticket counts logical rows and the version rises once.
        """
        validate_update(self.check_table(table_name).schema, predicate,
                        assignments)
        if at < 0:
            raise PlanError(f"negative arrival offset: {at}")
        ticket = WriteTicket(windex=len(self.write_submissions),
                             table=table_name, predicate=predicate,
                             assignments=dict(assignments),
                             arrival=float(at))
        self.write_submissions.append(ticket)
        return ticket

    # -- the run -----------------------------------------------------------

    @staticmethod
    def _fresh_stats(submitted: int) -> dict:
        """A zeroed stats dict (shared with the lane worlds' schedulers)."""
        return {
            "submitted": submitted,
            "shared_groups": 0,
            "shared_members": 0,
            "late_attaches": 0,
            "solo_rescues": 0,
            "saved_page_reads": 0,
            "shared_pages_read": 0,
            "pages_skipped": 0,
            "fan_in": [],
            "admission_waits": [],
            "max_queue_depth": {},
            "write_submitted": 0,
            "write_rows_changed": 0,
            "write_pages_flushed": 0,
            "write_admission_waits": [],
            "group_flushes": 0,
        }

    def gather(self) -> list[ExecutionReport]:
        """Run every pending submission to completion; reports in order.

        Pending write tickets (:meth:`submit_update`) run in the same
        window, through their own per-device admission gate; their results
        land on the tickets, not in the returned report list. Raises
        :class:`~repro.errors.ShardUnavailable` (chained to the
        :class:`~repro.errors.DeviceTimeoutError`) when a shard's device
        answers neither pushdown nor block reads.
        """
        submissions, self.submissions = self.submissions, []
        writes, self.write_submissions = self.write_submissions, []
        if not submissions and not writes:
            return []
        # Shards take consecutive positions in submission order.
        runs: list[Submission] = []
        for submission in submissions:
            runs.extend(submission.split(len(runs)))
        units: list[WriteTicket] = []
        for ticket in writes:
            units.extend(ticket.split(self.db.catalog, len(units)))
        self.stats = self._fresh_stats(len(runs))
        if writes:
            self.stats["write_submitted"] = len(writes)
            self.db.note_world_mutation()
        try:
            self._run(submissions, runs, units)
        except DeviceTimeoutError as exc:
            # A shard whose device answers neither pushdown nor block
            # reads has no replica to fall back on: name it.
            for submission in submissions:
                for shard in submission.shards:
                    if shard.done_at is None:
                        table = self.db.catalog.table(shard.query.table)
                        raise ShardUnavailable(
                            f"shard {table.name!r} of "
                            f"{submission.query.table!r} on device "
                            f"{table.device_name!r} is unreachable: {exc}"
                        ) from exc
            raise
        finally:
            # Each statement that changed rows raises its logical table
            # version once, after all of its units ran (or the window
            # failed): no cache entry binds a half-written version.
            for ticket in writes:
                if ticket.shards:
                    ticket.absorb(self.db.catalog)
                if ticket.rows_changed:
                    self.db.catalog.bump_version(ticket.table)
            self.stats["write_rows_changed"] = sum(
                ticket.rows_changed for ticket in writes)
            self.stats["write_pages_flushed"] = sum(
                ticket.pages_flushed for ticket in writes)
        return [submission.report for submission in submissions]

    # -- planning ----------------------------------------------------------

    def _extent_key(self, submission: Submission) -> tuple[str, str]:
        table = self.db.catalog.table(submission.query.table)
        return (table.device_name, table.name)

    def _shareable(self, submission: Submission) -> bool:
        if not self.config.share_scans:
            return False
        if submission.placement not in (Placement.SMART, Placement.AUTO):
            return False
        if submission.query.join is not None:
            return False
        table = self.db.catalog.table(submission.query.table)
        return isinstance(self.db.device(table.device_name), SmartSsd)

    def _plan(self, submissions: list[Submission]
              ) -> list[tuple[str, list[Submission]]]:
        """Group submissions into execution units.

        Returns ``(kind, members)`` units — ``"shared"`` units are device
        scans: the co-arriving same-extent cliques (singletons included:
        a one-member scan stays joinable by later arrivals) and each
        unshareable SMART submission alone (a join, or sharing off: a
        one-member scan not published for ATTACH); ``"solo"`` units are
        the HOST submissions — ordered by (arrival, admission-policy key,
        submission index). Spawn order IS admission order: same-instant
        admission requests are granted in request order.
        """
        from repro.host.optimizer import choose_placement

        for submission in submissions:
            submission.resolved = submission.placement

        cliques: dict[tuple, list[Submission]] = {}
        for submission in submissions:
            if self._shareable(submission):
                key = (self._extent_key(submission), submission.arrival)
                cliques.setdefault(key, []).append(submission)

        for submission in submissions:
            if submission.placement is not Placement.AUTO:
                continue
            key = (self._extent_key(submission), submission.arrival)
            group = cliques.get(key, [])
            riders = len(group) - 1 if submission in group else 0
            decision = choose_placement(self.db, submission.query,
                                        shared_riders=max(0, riders))
            submission.resolved = Placement.coerce(decision.placement)
            if submission.resolved is not Placement.SMART \
                    and submission in group:
                group.remove(submission)

        units: list[tuple[str, list[Submission]]] = []
        grouped: set[int] = set()
        for group in cliques.values():
            if group:
                units.append(("shared", group))
                grouped.update(s.index for s in group)
        for submission in submissions:
            if submission.index not in grouped:
                kind = ("shared" if submission.resolved is Placement.SMART
                        else "solo")
                units.append((kind, [submission]))

        def policy_key(unit: tuple[str, list[Submission]]):
            members = unit[1]
            arrival = members[0].arrival
            first = min(s.index for s in members)
            if self.config.policy is AdmissionPolicy.SHORTEST_EXTENT_FIRST:
                pages = self.db.catalog.table(
                    members[0].query.table).page_count
                return (arrival, pages, first)
            return (arrival, 0, first)

        units.sort(key=policy_key)
        return units

    # -- simulation processes ---------------------------------------------

    def _unit_kwargs(self) -> dict:
        kwargs = {}
        if self.config.io_unit_pages is not None:
            kwargs["io_unit_pages"] = self.config.io_unit_pages
        if self.config.window is not None:
            kwargs["window"] = self.config.window
        return kwargs

    def _admit(self, device_name: str, track: str):
        """Acquire one in-flight slot on a device (a sim sub-process)."""
        sim = self.db.sim
        obs = sim.obs
        gate = self._admission[device_name]
        queued = sim.now
        depth = gate.queue_length + (1 if gate.in_use >= gate.capacity
                                     else 0)
        peak = self.stats["max_queue_depth"]
        peak[device_name] = max(peak.get(device_name, 0), depth)
        span = None
        if obs is not None:
            obs.metrics.gauge("sched.queue_depth",
                              device=device_name).set(depth)
            span = obs.span("sched.queued", track=track,
                            device=device_name).__enter__()
        yield gate.request()
        wait = sim.now - queued
        self.stats["admission_waits"].append(wait)
        if obs is not None:
            span.set(wait_seconds=wait).finish()
            obs.metrics.histogram("sched.admission_wait_seconds",
                                  device=device_name).observe(wait)
            obs.metrics.gauge("sched.queue_depth",
                              device=device_name).set(gate.queue_length)
        return wait

    def _admit_write(self, device_name: str, track: str):
        """Acquire one write-unit slot on a device (a sim sub-process).

        Writes pass a separate, smaller gate than scan admission so DML
        bursts and scan storms cannot starve each other's in-flight slots.
        """
        sim = self.db.sim
        obs = sim.obs
        gate = self._write_admission[device_name]
        queued = sim.now
        span = None
        if obs is not None:
            span = obs.span("sched.write_queued", track=track,
                            device=device_name).__enter__()
        yield gate.request()
        wait = sim.now - queued
        self.stats["write_admission_waits"].append(wait)
        if obs is not None:
            span.set(wait_seconds=wait).finish()
            obs.metrics.histogram("sched.write_admission_wait_seconds",
                                  device=device_name).observe(wait)
        return wait

    def _record(self, submission: Submission, outcome: QueryOutcome,
                done_at: float) -> None:
        submission.outcome = outcome
        submission.done_at = done_at
        submission.rescued = bool(outcome.counters.session_retries
                                  or outcome.counters.pushdown_fallbacks)
        if submission.rescued:
            self.stats["solo_rescues"] += 1

    def _track(self, submission: Submission) -> str:
        return f"query:{submission.query.name}#{submission.index}"

    def _shared_unit(self, group: list[Submission]):
        """Leader process of one device scan: a co-arriving same-extent
        clique, or an unshareable submission alone, whose scan neither
        attaches to nor is published as an ATTACH target."""
        db = self.db
        sim = db.sim
        obs = sim.obs
        shareable = self._shareable(group[0])
        key = self._extent_key(group[0])
        device_name = key[0]
        arrival = group[0].arrival
        if arrival:
            yield sim.timeout(arrival)
        roots = {}
        if obs is not None:
            for submission in group:
                roots[submission.index] = obs.span(
                    "query", track=self._track(submission),
                    query=submission.query.name, placement="smart",
                    index=submission.index, scheduled=True).__enter__()
        try:
            # A compatible scan already mid-extent? Join it instead of
            # opening a second stream over the same pages. Attachers add
            # marginal work to an already-admitted scan, so they bypass
            # admission control (see docs/SCHEDULER.md for the fairness
            # trade-off).
            live = self._live.get(key) if shareable else None
            remaining = group
            if live is not None and live.accepting:
                remaining = []
                attached: list[tuple[Submission, int]] = []
                for submission in group:
                    try:
                        member = yield from attach_to_shared_scan(
                            db, live, submission.query)
                    except _ATTACH_REFUSALS:
                        remaining.append(submission)
                        continue
                    submission.shared = True
                    submission.late_attach = True
                    self.stats["late_attaches"] += 1
                    if obs is not None:
                        obs.metrics.counter("sched.late_attaches").inc()
                    attached.append((submission, member))
                for submission, member in attached:
                    outcome, done_at = yield live.wait(member)
                    self._record(submission, outcome, done_at)
                if not remaining:
                    return
            # Fresh device scan for whoever could not attach.
            wait = yield from self._admit(device_name,
                                          self._track(remaining[0]))
            for submission in remaining:
                submission.admission_wait = wait
            table = db.catalog.table(remaining[0].query.table)
            handle = SharedScanHandle(db, db.device(device_name), table)
            if shareable:
                self._live[key] = handle
            try:
                yield from execute_many(
                    db, handle, [s.query for s in remaining],
                    track=f"shared-scan:{table.name}#{remaining[0].index}",
                    **self._unit_kwargs())
                for member, submission in enumerate(remaining):
                    outcome, done_at = handle.results[member]
                    submission.shared = len(handle.queries) > 1
                    self._record(submission, outcome, done_at)
                if shareable and handle.stats is not None:
                    self._absorb_scan_stats(handle.stats)
            finally:
                if self._live.get(key) is handle:
                    del self._live[key]
                self._admission[device_name].release()
        finally:
            if obs is not None:
                for submission in group:
                    roots[submission.index].set(
                        shared=submission.shared,
                        late_attach=submission.late_attach,
                        rescued=submission.rescued).finish()

    def _solo_unit(self, submission: Submission):
        """Process of one HOST submission."""
        db = self.db
        sim = db.sim
        obs = sim.obs
        table = db.catalog.table(submission.query.table)
        if submission.arrival:
            yield sim.timeout(submission.arrival)
        track = self._track(submission)
        root = None
        if obs is not None:
            root = obs.span("query", track=track,
                            query=submission.query.name,
                            placement=submission.resolved.value,
                            index=submission.index,
                            scheduled=True).__enter__()
        try:
            submission.admission_wait = yield from self._admit(
                table.device_name, track)
            try:
                outcome = yield from host_query_process(
                    db, submission.query, track=track,
                    **self._unit_kwargs())
            finally:
                self._admission[table.device_name].release()
            self._record(submission, outcome, sim.now)
        finally:
            if root is not None:
                root.finish()

    def _absorb_scan_stats(self, scan_stats: dict) -> None:
        obs = self.db.sim.obs
        self.stats["shared_groups"] += 1
        self.stats["shared_members"] += scan_stats.get("fan_in", 0)
        self.stats["fan_in"].append(scan_stats.get("fan_in", 0))
        self.stats["saved_page_reads"] += scan_stats.get(
            "saved_page_reads", 0)
        self.stats["shared_pages_read"] += scan_stats.get("pages_read", 0)
        self.stats["pages_skipped"] += scan_stats.get("pages_skipped", 0)
        if obs is not None:
            obs.metrics.histogram("sched.fan_in").observe(
                scan_stats.get("fan_in", 0))
            obs.metrics.counter("sched.saved_page_reads").inc(
                scan_stats.get("saved_page_reads", 0))

    # -- the execution engine ----------------------------------------------

    def _execute_units(self, units: list[tuple[str, list[Submission]]]
                       ) -> None:
        """Run planned units to completion on *this* scheduler's simulator.

        This is the serial engine: the backend-independent core that the
        serial backend runs directly on the parent world, that each lane
        world runs on its clone, and that parallel backends fall back to
        for batches they cannot prove independent.
        """
        db = self.db
        sim = db.sim
        self._admission = {
            name: Resource(sim, self.config.max_inflight_per_device,
                           name=f"sched-admission-{name}")
            for name in db.device_names()
        }
        self._write_admission = {
            name: Resource(sim, self.config.max_inflight_writes_per_device,
                           name=f"sched-write-admission-{name}")
            for name in db.device_names()
        }
        self._live = {}
        # Group-flush countdown: the last write unit to apply its update
        # on a table runs the write-back for the whole group.
        flush_countdown: dict[str, int] = {}
        for kind, members in units:
            if kind == "write":
                table = members[0].table
                flush_countdown[table] = flush_countdown.get(table, 0) + 1
        procs = []
        for kind, members in units:
            if kind == "shared":
                procs.append(sim.process(
                    self._shared_unit(members),
                    name=f"sched-shared-{members[0].index}"))
            elif kind == "write":
                procs.append(sim.process(
                    write_unit_process(self, members[0], flush_countdown),
                    name=f"sched-write-{members[0].windex}"))
            else:
                procs.append(sim.process(
                    self._solo_unit(members[0]),
                    name=f"sched-solo-{members[0].index}"))
        gate = sim.all_of(procs)
        sim.run()
        if not gate.triggered:
            raise PlanError("scheduled batch deadlocked")
        if not gate.ok:
            raise gate.value

    def _backend(self):
        """The resolved (lazily built) execution backend for this scheduler."""
        if self._runtime is None:
            from repro.runtime import resolve_backend
            self._runtime = resolve_backend(self.config.backend)
        return self._runtime

    def close(self) -> None:
        """Shut down backend workers (fleet worlds, forked processes)."""
        if self._runtime is not None:
            self._runtime.close()
            self._runtime = None

    # -- window accounting -------------------------------------------------

    def _run(self, submissions: list[Submission], runs: list[Submission],
             writes: list[WriteTicket]) -> None:
        """Run one window of physical ``runs``; report every submission."""
        db = self.db
        sim = db.sim
        obs = sim.obs
        units = self._plan(runs)
        if writes:
            # Write units join the batch after the policy-sorted scan
            # units; their own ordering is (arrival, submission order).
            units.extend(("write", [ticket]) for ticket in
                         sorted(writes,
                                key=lambda t: (t.arrival, t.windex)))

        spans_before = len(obs.spans) if obs is not None else 0
        start = sim.now
        snapshots = {name: db._busy_snapshot(device)
                     for name, device in db._devices.items()}
        host_cpu_before = db.machine.cpu_core_seconds()
        bp_before = (db.buffer_pool.hits, db.buffer_pool.misses)

        if self.config.backend == "serial":
            self._execute_units(units)
        else:
            self._backend().execute_units(self, units)

        window = sim.now - start
        host_cpu = db.machine.cpu_core_seconds() - host_cpu_before
        activities = [db._device_activity(device, snapshots[name])
                      for name, device in db._devices.items()]
        energy = db.energy_meter.measure(window, host_cpu, activities)
        self.stats["window_seconds"] = window

        profile = obs.profile(spans_before) if obs is not None else None
        for submission in runs:
            table = db.catalog.table(submission.query.table)
            submission.report = ExecutionReport(
                rows=submission.outcome.rows,
                elapsed_seconds=(submission.done_at - start
                                 - submission.arrival),
                placement=submission.resolved.value,
                device_name=table.device_name,
                layout=table.layout.value,
                counters=submission.outcome.counters,
                energy=energy,
                host_cpu_core_seconds=host_cpu,
                profile=profile,
                # Device-side measurements cover the whole window, like
                # the energy block.
                **db._measure(table.device_name,
                              snapshots[table.device_name], bp_before,
                              window, host_cpu,
                              submission.outcome.pages_read),
            )
            if obs is not None:
                db._absorb_metrics(obs, submission.query,
                                   submission.resolved, submission.report)
        for submission in submissions:
            if submission.plan is not None:
                self._merge_shards(submission, start)

    @staticmethod
    def _merge_shards(submission: Submission, start: float) -> None:
        """Fold a sharded submission's shard reports into its own."""
        reports = [shard.report for shard in submission.shards]
        rows = merge_scatter_rows(submission.plan,
                                  [report.rows for report in reports])
        counters = WorkCounters()
        for report in reports:
            counters.add(report.counters)
        submission.resolved = submission.shards[0].resolved
        submission.done_at = max(shard.done_at for shard in submission.shards)
        devices = dict.fromkeys(report.device_name for report in reports)
        submission.report = ExecutionReport(
            rows=rows,
            elapsed_seconds=submission.done_at - start - submission.arrival,
            placement=reports[0].placement,
            device_name=",".join(devices),
            layout=reports[0].layout,
            counters=counters,
            energy=reports[0].energy,
            host_cpu_core_seconds=reports[0].host_cpu_core_seconds,
            profile=reports[0].profile,
        )
