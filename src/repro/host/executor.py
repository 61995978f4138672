"""Query execution drivers.

Two placements for the same query:

* :func:`host_query_process` — the conventional path: heap pages cross the
  host interface into the buffer pool and the page kernels run on the host
  CPU. I/O and compute overlap through a windowed pipeline of I/O units.
* :func:`execute_many` — the pushdown path, for one query or many: the host
  OPENs a session on the Smart SSD, the device streams pages internally and
  runs the same kernels on its embedded CPU, and the host drains results
  with GET polls and CLOSEs the session (paper §3).

Both are simulation processes; the scheduler
(:class:`~repro.sched.QueryScheduler`, whose one-submission window is
:meth:`~repro.host.db.Database.execute_placed`) spawns them and assembles
:class:`~repro.model.report.ExecutionReport`s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

import numpy as np

from repro.engine.expressions import EvalContext
from repro.engine.kernels import (
    AggState,
    BatchKernel,
    BuildCollector,
    estimated_hash_table_nbytes,
)
from repro.engine.plans import Query
from repro.errors import (
    DeviceTimeoutError,
    PlanError,
    ProgramCrashError,
    ProtocolError,
)
from repro.faults import DEFAULT_RETRY_POLICY, RetryPolicy, is_transient_error
from repro.host.catalog import Table
from repro.model.counters import WorkCounters
from repro.obs import NULL_SPAN
from repro.sim import Event, Resource
from repro.storage.heapfile import unit_lpn_runs
from repro.smart.device import SmartSsd
from repro.smart.protocol import OpenParams, SessionStatus
from repro.units import IO_UNIT_PAGES, PIPELINE_WINDOW

if TYPE_CHECKING:
    from repro.host.db import Database
    from repro.storage.schema import Schema


@dataclass
class QueryOutcome:
    """Raw outcome of an execution process, pre-report."""

    rows: Any
    counters: WorkCounters = field(default_factory=WorkCounters)
    pages_read: int = 0
    bp_hits: int = 0
    bp_misses: int = 0


def _empty_select_columns(query: Query, schema: "Schema",
                          build_schema: Optional["Schema"] = None,
                          ) -> dict[str, np.ndarray]:
    """A zero-row output chunk with the query's true column dtypes.

    Evaluates the select expressions over typed empty input columns (plus
    typed join-payload columns from ``build_schema``), so an empty result
    carries the same dtypes a populated one would.
    """
    from repro.storage.layout import Layout

    columns = {
        name: np.empty(0, dtype=schema.column(name).ctype.numpy_dtype)
        for name in query.probe_side_columns()}
    if query.join is not None:
        if build_schema is None:
            raise PlanError("join query needs the build schema to type "
                            "an empty result")
        for name in query.join.payload:
            columns[name] = np.empty(
                0, dtype=build_schema.column(name).ctype.numpy_dtype)
    ctx = EvalContext(columns, 0, WorkCounters(), Layout.PAX)
    out = {}
    for name, expr in query.select:
        values = np.asarray(expr.evaluate(ctx, 0))
        if values.ndim == 0:
            values = np.full(0, values)
        out[name] = values
    return out


def _merge_select_chunks(query: Query,
                         chunks: list[dict[str, np.ndarray]],
                         schema: Optional["Schema"] = None,
                         build_schema: Optional["Schema"] = None,
                         ) -> np.ndarray:
    """Concatenate per-page output columns into one structured array.

    With ``schema`` (and ``build_schema`` for joins), an entirely empty
    result still gets the query's true output dtypes instead of the
    legacy float64 default.
    """
    names = query.output_names()
    if not chunks and schema is not None:
        chunks = [_empty_select_columns(query, schema, build_schema)]
    parts = {name: [c[name] for c in chunks if len(c[name])]
             for name in names}
    arrays = {}
    for name in names:
        if parts[name]:
            arrays[name] = np.concatenate(parts[name])
        else:
            sample = chunks[0][name] if chunks else np.empty(0)
            arrays[name] = np.empty(0, dtype=sample.dtype)
    dtype = np.dtype([(name, arrays[name].dtype) for name in names])
    out = np.empty(len(next(iter(arrays.values()))), dtype=dtype)
    for name in names:
        out[name] = arrays[name]
    if query.distinct and len(out):
        from repro.engine.kernels import distinct_indexes
        out = out[distinct_indexes({name: out[name] for name in names},
                                   names)]
    if query.order_by is not None and len(out):
        from repro.engine.kernels import order_and_limit_indexes
        out = out[order_and_limit_indexes(out[query.order_by], query.limit,
                                          query.descending)]
    return out


def _finalize_aggregates(query: Query, state: AggState) -> list[dict[str, Any]]:
    """Turn merged aggregate state into result rows (applying finalize)."""
    if query.group_by is not None:
        names = query.group_by_columns
        rows = []
        for group in sorted(state.groups):
            key = group if isinstance(group, tuple) else (group,)
            entry = dict(zip(names, key))
            values = dict(state.groups[group])
            if query.finalize is not None:
                values = query.finalize(values)
            entry.update(values)
            rows.append(entry)
        return rows
    values = dict(state.values)
    # A query whose filter matched nothing still yields one row of
    # identities (SUM -> 0 / None, COUNT -> 0), like SQL scalar aggregates.
    for agg in query.aggregates:
        values.setdefault(agg.name, 0 if agg.kind in ("sum", "count")
                          else None)
    if query.finalize is not None:
        values = query.finalize(values)
    return [values]


# --------------------------------------------------------------------------
# Conventional (host) execution
# --------------------------------------------------------------------------

def host_query_process(db: "Database", query: Query,
                       io_unit_pages: int = IO_UNIT_PAGES,
                       window: int = PIPELINE_WINDOW,
                       track: Optional[str] = None,
                       ) -> Generator[Event, None, QueryOutcome]:
    """Run ``query`` conventionally: pages to the host, kernels on the host.

    ``track`` names the observability lane the phase spans land on; each
    concurrent execution needs its own so spans nest instead of overlapping.
    """
    table = db.catalog.table(query.table)
    device = db.device(table.device_name)
    outcome = QueryOutcome(rows=None)
    ecc_before = _ecc_retries(device)
    obs = db.sim.obs
    if track is None:
        track = f"query:{query.name}"

    hash_table = None
    large_table = False
    if query.join is not None:
        build_table = db.catalog.table(query.join.build_table)
        estimate = estimated_hash_table_nbytes(build_table.heap, query)
        large_table = estimate > db.costs.host_cache_nbytes
        collector = BuildCollector(build_table.schema, query.join)
        build_device = db.device(build_table.device_name)
        with NULL_SPAN if obs is None else obs.span(
                "host.build", track=track, table=build_table.name):
            for lpns in unit_lpn_runs(build_table.heap, io_unit_pages):
                pages = yield from _fetch_unit(db, build_device,
                                               build_table, lpns, outcome)
                counters = WorkCounters()
                counters.io_units += 1
                collector.consume(pages, counters, build_table.layout)
                yield from db.machine.compute(
                    db.costs.cycles(counters, large_hash_table=large_table))
                outcome.counters.add(counters)
        hash_table = collector.finish()

    kernel = BatchKernel(query, table.schema, table.layout,
                         hash_table=hash_table)
    window_gate = Resource(db.sim, window, name="host-scan-window")
    select_mode = bool(query.select)
    agg_total = AggState()
    unit_runs = unit_lpn_runs(table.heap, io_unit_pages)
    chunk_slots: list[Optional[list[dict[str, np.ndarray]]]] = (
        [None] * len(unit_runs))

    def unit_process(index: int, lpns: list[int]):
        yield window_gate.request()
        try:
            pages = yield from _fetch_unit(db, device, table, lpns, outcome)
            counters = WorkCounters()
            counters.io_units += 1
            partial = kernel.process_unit(
                pages, counters=counters,
                agg_into=None if select_mode else agg_total)
            yield from db.machine.compute(
                db.costs.cycles(counters, large_hash_table=large_table))
            outcome.counters.add(counters)
            if select_mode:
                chunk_slots[index] = [chunk for __, chunk in partial.chunks]
        finally:
            window_gate.release()

    with NULL_SPAN if obs is None else obs.span(
            "host.scan", track=track, table=table.name,
            units=len(unit_runs)):
        processes = [db.sim.process(unit_process(i, lpns),
                                    name=f"host-scan-unit-{i}")
                     for i, lpns in enumerate(unit_runs)]
        yield db.sim.all_of(processes)

    if select_mode:
        flat = [chunk for slot in chunk_slots for chunk in (slot or [])]
        build_schema = (db.catalog.table(query.join.build_table).schema
                        if query.join is not None else None)
        outcome.rows = _merge_select_chunks(query, flat, table.schema,
                                            build_schema)
    else:
        outcome.rows = _finalize_aggregates(query, agg_total)
    outcome.counters.ecc_retries += _ecc_retries(device) - ecc_before
    return outcome


def _ecc_retries(device: Any) -> int:
    """ECC read-retry count of a device's flash controller (HDDs: 0)."""
    controller = getattr(device, "controller", None)
    return controller.ecc_retries if controller is not None else 0


def _fetch_unit(db: "Database", device: Any, table: Table,
                lpns: list[int], outcome: QueryOutcome
                ) -> Generator[Event, None, list[bytes]]:
    """Read one I/O unit through the buffer pool."""
    pages: list[Optional[bytes]] = []
    miss_lpns = []
    for lpn in lpns:
        cached = db.buffer_pool.lookup(table.device_name, lpn)
        if cached is None:
            miss_lpns.append(lpn)
            outcome.bp_misses += 1
        else:
            outcome.bp_hits += 1
        pages.append(cached)
    if miss_lpns:
        fetched = yield from device.host_read(miss_lpns)
        outcome.pages_read += len(miss_lpns)
        fetched_iter = iter(fetched)
        for position, page in enumerate(pages):
            if page is None:
                data = next(fetched_iter)
                pages[position] = data
                db.buffer_pool.insert(table.device_name,
                                      lpns[position], data)
    return pages  # type: ignore[return-value]


# --------------------------------------------------------------------------
# Pushdown (Smart SSD) execution: one driver for one query or many
# --------------------------------------------------------------------------

class SharedScanHandle:
    """Host-side state of one device scan and the members it serves.

    :func:`execute_many` pumps the session; late-attached queries
    rendezvous on the handle: once :attr:`opened` fires they issue ATTACH
    themselves and wait for their member outcome.
    """

    def __init__(self, db: "Database", device: SmartSsd, table: Table):
        self.db = db
        self.device = device
        self.table = table
        self.session_id: Optional[int] = None
        #: Fires once the first OPEN returned (value: session id).
        self.opened = db.sim.event()
        #: Host-side hint mirroring the device's joinability; the device
        #: is authoritative (ATTACH races are refused there).
        self.accepting = True
        self.queries: dict[int, Query] = {}
        self.results: dict[int, tuple[QueryOutcome, float]] = {}
        #: Recovery events each member lived through, merged into its
        #: counters when it resolves.
        self.faults: dict[int, WorkCounters] = {}
        self.stats: Optional[dict] = None
        self.ecc_start = 0
        self._waiters: dict[int, Event] = {}
        self._error: Optional[BaseException] = None

    def expect(self, member: int, query: Query) -> None:
        """Register a member the scan will produce results for."""
        self.queries[member] = query
        self.faults[member] = WorkCounters()

    def unresolved(self) -> list[int]:
        """Members still waiting for their outcome, in member order."""
        return [member for member in self.queries
                if member not in self.results]

    def wait(self, member: int) -> Event:
        """Event yielding ``(outcome, done_at)`` for one member."""
        event = self.db.sim.event()
        if member in self.results:
            event.succeed(self.results[member])
        elif self._error is not None:
            event.fail(self._error)
        else:
            self._waiters[member] = event
        return event

    def resolve(self, member: int, outcome: QueryOutcome,
                done_at: float) -> None:
        """Record one member's outcome and wake its waiter."""
        outcome.counters.add(self.faults[member])
        self.results[member] = (outcome, done_at)
        waiter = self._waiters.pop(member, None)
        if waiter is not None:
            waiter.succeed((outcome, done_at))

    def fail_pending(self, exc: BaseException) -> None:
        """Fail every unresolved member wait (the scan gave up)."""
        self._error = exc
        self.accepting = False
        if not self.opened.triggered:
            # Attachers parked on the OPEN rendezvous get the failure too.
            self.opened.fail(exc)
        waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            waiter.fail(exc)


def execute_many(db: "Database", handle: SharedScanHandle,
                 queries: Sequence[Query],
                 io_unit_pages: int = IO_UNIT_PAGES,
                 window: int = PIPELINE_WINDOW,
                 retry_policy: Optional[RetryPolicy] = None,
                 track: Optional[str] = None,
                 ) -> Generator[Event, None, list[QueryOutcome]]:
    """Run queries over one extent through the device scan (OPEN/GET/CLOSE).

    The one pushdown driver, for one query or many. It OPENs
    ``shared_scan`` with the batch and drains per-member result frames as
    the circular scan produces them; a member's rows are merged when its
    ``done`` frame arrives, while the device keeps scanning for the others
    (and for queries that ATTACH through ``handle``). A member alone in its
    session is merged after CLOSE, like the paper's single-query exchange.

    Transient failures follow ``retry_policy``: a lost GET reply is
    re-polled with the idempotent ack/resume handshake, a crashed or
    unreachable session is re-OPENed for the members it had not finished,
    and once the attempts are spent those members run
    :func:`host_query_process` instead. Deterministic errors (protocol
    misuse, memory-grant refusals, pushdown vetoes) re-raise, to the caller
    and to every member waiting on ``handle``. Returns the initial members'
    outcomes in ``queries`` order; attachers get theirs from
    ``handle.wait``.
    """
    device = handle.device
    table = handle.table
    obs = db.sim.obs
    if track is None:
        track = f"query:{queries[0].name}"
    policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
    try:
        if not isinstance(device, SmartSsd):
            raise PlanError(
                f"device {table.device_name!r} is not a Smart SSD; "
                "pushdown impossible")
        _check_pushdown_safety(db, table)
        arguments: dict[str, Any] = {
            "heap": table.heap,
            "io_unit_pages": io_unit_pages,
            "window": window,
        }
        for query in queries:
            if query.join is not None:
                build_table = db.catalog.table(query.join.build_table)
                if build_table.device_name != table.device_name:
                    raise PlanError("pushdown join requires both tables on "
                                    "the same device")
                _check_pushdown_safety(db, build_table)
                heap = arguments.setdefault("build_heap", build_table.heap)
                if heap is not build_table.heap:
                    raise PlanError("one device scan builds from one "
                                    "build table")
        for member, query in enumerate(queries):
            handle.expect(member, query)
        handle.ecc_start = _ecc_retries(device)
        attempt = 0
        while True:
            attempt += 1
            try:
                with NULL_SPAN if obs is None else obs.span(
                        "smart.session", track=track,
                        device=table.device_name, attempt=attempt):
                    yield from _scan_session(db, handle, arguments, policy,
                                             track, joinable=attempt == 1)
            except (ProgramCrashError, DeviceTimeoutError) as exc:
                db.health.record_failure(table.device_name)
                # Only the first session is joinable: attachers still
                # waiting for it open a fresh one instead.
                handle.accepting = False
                if not handle.opened.triggered:
                    handle.opened.fail(ProtocolError(
                        f"shared scan on {table.name!r} not joinable"))
                members = handle.unresolved()
                if attempt < policy.max_session_attempts:
                    for member in members:
                        handle.faults[member].session_retries += 1
                    if db.sim.tracer is not None:
                        db.sim.tracer.mark(
                            db.sim.now, "session-retry",
                            f"{table.device_name} attempt {attempt + 1}: "
                            f"{exc}")
                    yield db.sim.timeout(policy.backoff(attempt))
                    continue
                if not policy.fallback_to_host:
                    raise
                if db.sim.tracer is not None:
                    db.sim.tracer.mark(db.sim.now, "pushdown-fallback",
                                       f"{table.device_name}: {exc}")
                # The failed attempts' ECC retries are charged now; the
                # host path accounts for its own reads.
                failed_ecc = _ecc_retries(device) - handle.ecc_start
                for member in members:
                    handle.faults[member].pushdown_fallbacks += 1
                    handle.faults[member].ecc_retries += failed_ecc
                    outcome = yield from host_query_process(
                        db, handle.queries[member], io_unit_pages, window,
                        track=track)
                    handle.resolve(member, outcome, db.sim.now)
            else:
                db.health.record_success(table.device_name)
            break
    except BaseException as exc:
        handle.fail_pending(exc)
        raise
    return [handle.results[member][0] for member in range(len(queries))]


def _scan_session(db: "Database", handle: SharedScanHandle,
                  arguments: dict[str, Any], policy: RetryPolicy,
                  track: str, joinable: bool,
                  ) -> Generator[Event, None, None]:
    """One OPEN/GET/CLOSE session serving the handle's unresolved members,
    with in-session GET retries."""
    device = handle.device
    obs = db.sim.obs
    members = handle.unresolved()
    # A retry session numbers its members afresh; ATTACH only joins the
    # first session, whose numbering is the handle's.
    ids = dict(enumerate(members))
    open_span = NULL_SPAN if obs is None else obs.span(
        "smart.open", track=track, device=handle.table.device_name,
        program="shared_scan", fan_in=len(members))
    with open_span:
        session_id = yield from device.open_session(OpenParams(
            program="shared_scan",
            arguments=dict(arguments, queries=tuple(
                handle.queries[member] for member in members))))
        open_span.set(session=session_id)
    if joinable:
        handle.session_id = session_id
        handle.opened.succeed(session_id)

    chunk_buffers: dict[int, list[tuple[int, list]]] = {}
    agg_states: dict[int, AggState] = {}
    alone = []
    ack = 0
    get_failures = 0
    while True:
        try:
            get_span = NULL_SPAN if obs is None else obs.span(
                "smart.get", track=track, session=session_id, ack=ack)
            with get_span:
                response = yield from device.get(session_id, ack=ack)
                get_span.set(seq=response.seq,
                             bytes=response.payload_nbytes)
        except DeviceTimeoutError:
            # The reply was lost in flight; re-poll with the stale ack so
            # the device retransmits it (GET is idempotent under retry).
            for member in handle.unresolved():
                handle.faults[member].get_timeouts += 1
            get_failures += 1
            if get_failures > policy.max_get_retries:
                yield from _close_quietly(device, session_id)
                raise
            if db.sim.tracer is not None:
                db.sim.tracer.mark(db.sim.now, "get-retry",
                                   f"{handle.table.device_name} "
                                   f"session={session_id} "
                                   f"retry={get_failures}")
            yield db.sim.timeout(policy.backoff(get_failures))
            continue
        get_failures = 0
        ack = response.seq
        for item in response.payload:
            tag = item[0]
            if tag == "stats":
                handle.stats = item[1]
                continue
            member = ids.get(item[1], item[1])
            if tag == "chunk":
                chunk_buffers.setdefault(member, []).append(
                    (item[2], item[3]))
            elif tag == "agg":
                agg_states[member] = item[2]
            elif tag == "done":
                __, __, counters, info = item
                if info["shared"]:
                    yield from _finish_member(
                        db, handle, member, counters, info["pages_read"],
                        chunk_buffers.pop(member, []),
                        agg_states.pop(member, None))
                else:
                    alone.append((member, counters, info["pages_read"]))
            else:
                raise ProtocolError(f"unexpected GET payload tag {tag!r}")
        if response.status is SessionStatus.FAILED:
            error = response.error or "unknown device error"
            yield from _close_quietly(device, session_id)
            if is_transient_error(error):
                for member in handle.unresolved():
                    handle.faults[member].device_program_crashes += 1
                raise ProgramCrashError(f"device program failed: {error}")
            raise ProtocolError(f"device program failed: {error}")
        if response.status is SessionStatus.DONE and not response.payload:
            break
    handle.accepting = False
    with NULL_SPAN if obs is None else obs.span(
            "smart.close", track=track, session=session_id):
        yield from device.close_session(session_id)
    # A member alone in its session is done when the session is.
    for member, counters, pages_read in alone:
        yield from _finish_member(db, handle, member, counters, pages_read,
                                  chunk_buffers.pop(member, []),
                                  agg_states.pop(member, None))
        handle.stats = {"fan_in": 1, "pages_read": pages_read,
                        "saved_page_reads": 0,
                        "pages_skipped": counters.pages_skipped}


def _finish_member(db: "Database", handle: SharedScanHandle,
                   member: int, counters: WorkCounters, pages_read: int,
                   chunk_entries: list[tuple[int, list]],
                   agg_state: Optional[AggState],
                   ) -> Generator[Event, None, None]:
    """Merge one member's buffered results into its final outcome."""
    query = handle.queries[member]
    # The member's share of NAND reads: every page the scan read that this
    # query consumed (a scan of it alone would read exactly these).
    outcome = QueryOutcome(rows=None, counters=counters,
                           pages_read=pages_read)
    if query.select:
        chunk_entries.sort(key=lambda entry: entry[0])
        flat = [chunk for __, chunks in chunk_entries for chunk in chunks]
        build_schema = (db.catalog.table(query.join.build_table).schema
                        if query.join is not None else None)
        outcome.rows = _merge_select_chunks(query, flat, handle.table.schema,
                                            build_schema)
    else:
        # Final merge/divide happens on the host, but it is a handful of
        # scalar operations.
        yield from db.machine.compute(db.costs.page_setup)
        outcome.rows = _finalize_aggregates(
            query, agg_state if agg_state is not None else AggState())
    handle.faults[member].ecc_retries += (_ecc_retries(handle.device)
                                          - handle.ecc_start)
    handle.resolve(member, outcome, db.sim.now)


def _close_quietly(device: SmartSsd,
                   session_id: int) -> Generator[Event, None, None]:
    """Best-effort CLOSE on an already-doomed session.

    A dead device times out its CLOSE too; swallowing that keeps the
    original failure as the error the retry loop classifies.
    """
    try:
        yield from device.close_session(session_id)
    except (DeviceTimeoutError, ProtocolError):
        pass


def attach_to_shared_scan(db: "Database", handle: SharedScanHandle,
                          query: Query,
                          ) -> Generator[Event, None, int]:
    """ATTACH ``query`` to an in-flight device scan; returns its member
    index. Raises :class:`~repro.errors.ProtocolError` when the scan is no
    longer joinable — the caller falls back to a fresh session."""
    if handle.session_id is None:
        yield handle.opened
    if not handle.accepting:
        raise ProtocolError(
            f"shared scan on {handle.table.name!r} already complete")
    member = yield from handle.device.attach_session(handle.session_id,
                                                     query)
    handle.expect(member, query)
    return member


def _check_pushdown_safety(db: "Database", table: Table) -> None:
    """Veto pushdown when the buffer pool holds newer (dirty) pages.

    "If there is a copy of the data in the buffer pool that is more current
    than the data in the SSD, pushing the query processing to the SSD may
    not be feasible" (§4.3).
    """
    dirty = db.buffer_pool.dirty_lpns(table.device_name)
    if not dirty:
        return
    extent = range(table.heap.first_lpn,
                   table.heap.first_lpn + table.heap.page_count)
    stale = dirty.intersection(extent)
    if stale:
        raise PlanError(
            f"pushdown unsafe: {len(stale)} dirty page(s) of "
            f"{table.name!r} in the buffer pool are newer than the device")
