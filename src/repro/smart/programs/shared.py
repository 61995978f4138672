"""The device scan: one circular scan program behind every OPEN name.

The paper uploads one set of operators for selection, aggregation and
join (§4.1.2); its §4.3 remedy for concurrent pushdown is the shared
scan. This body is both: one circular (elevator) scan over the extent's
I/O units that serves one query or many.

* Join members first stream the build heap into a device-DRAM hash
  table, after a memory grant that fails, as §4.2.2 implies, when the
  build side does not fit.
* Each I/O unit crosses NAND and the DRAM bus **once**. A unit with one
  consumer runs exactly as a scan of that query alone (raw pages, late
  materialization, one ``compute`` of its counters). A unit with several
  decodes each page's column union once; the lowest-index rider of a
  page pays cold extraction and the rest re-read the values at the
  :attr:`~repro.model.costs.CycleCosts.cached_value_extract` rate.
* ``ORDER BY ... LIMIT`` members keep a device-resident top-N pool and
  ship one O(k) frame.

Late arrivals ATTACH while the dispatcher is still assigning units: they
pick up the scan at the current position and wrap around for the units
they missed. An ATTACH losing the race against completion is refused,
and the host opens a fresh session. ATTACH refuses joins, whose build
must precede the scan.

The OPEN names differ only in the shape check they run first
(:data:`PROGRAMS`) and in their frames: ``shared_scan`` tags each frame
with its member and ends each member with a ``done`` frame; the
single-query names speak the untagged frames of the paper's protocol.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Generator

import numpy as np

from repro.engine.expressions import CachedEvalContext
from repro.engine.kernels import (
    AggState,
    BatchKernel,
    BuildCollector,
    TopNState,
    estimated_hash_table_nbytes,
)
from repro.engine.plans import Query
from repro.errors import ProtocolError
from repro.model.counters import WorkCounters
from repro.sim import Event, Resource
from repro.storage.heapfile import unit_lpn_runs
from repro.storage.layout import Layout, touched_bytes
from repro.storage.unitdecode import UnitColumns

from repro.smart.programs.base import (
    AGG_VALUE_NBYTES,
    RESULT_FRAME_NBYTES,
    ProgramArguments,
    _maybe_crash,
    _zero_row_unit,
    extent_pruner,
)
from repro.smart.protocol import SessionStatus

if TYPE_CHECKING:
    from repro.smart.device import SmartSsd
    from repro.smart.runtime import Session


# -- the OPEN names: checks in front of the one body -------------------------

#: The uploaded program names; each is only the checks it runs first.
PROGRAMS = ("scan_filter", "aggregate", "hash_join", "shared_scan")


def check_query(program: str, query: Query, args: ProgramArguments) -> None:
    """Reject a query that program ``program``'s shape does not cover."""
    if query.join is None:
        if program == "hash_join":
            raise ProtocolError("hash_join needs a join specification")
    elif program in ("scan_filter", "aggregate"):
        raise ProtocolError(
            f"{program} cannot run joins; OPEN hash_join instead")
    elif args.build_heap is None:
        raise ProtocolError(f"{program} OPENed without a build heap")
    elif args.build_heap.schema.column(query.join.build_key) is None:
        raise ProtocolError("build key missing from build heap")
    if program == "scan_filter" and not query.select:
        raise ProtocolError("scan_filter needs a projection; OPEN aggregate "
                            "for aggregation queries")
    if program == "aggregate" and not query.aggregates:
        raise ProtocolError("aggregate needs at least one aggregate")
    for name in query.probe_side_columns():
        if not args.heap.schema.has_column(name):
            raise ProtocolError(
                f"query {query.name!r} references unknown column {name!r}")


class DeviceProgram:
    """One uploadable program: an OPEN name in front of the device scan."""

    def __init__(self, name: str):
        self.name = name

    def decode_arguments(self, arguments: dict) -> ProgramArguments:
        """Decode an OPEN command's argument dict for this program."""
        return ProgramArguments.from_open(
            arguments, tagged=self.name == "shared_scan")

    def run(self, device: "SmartSsd", session: "Session",
            args: ProgramArguments) -> Generator[Event, None, None]:
        """The program's device-side process body.

        Shape-check and execution failures fail the *session* (surfaced to
        the host via GET) rather than crashing the device.
        """
        try:
            for query in args.queries:
                check_query(self.name, query, args)
            yield from _scan_body(device, session, args)
        except Exception as exc:  # surfaced to the host through GET
            _fail(device, session, exc)
            return
        # Unit jobs fail the session in place (they outlive the dispatcher's
        # error handling); only a still-healthy scan reports DONE.
        if session.status is SessionStatus.RUNNING:
            session.finish()


def default_programs() -> list[DeviceProgram]:
    """The standard program set flashed onto every Smart SSD."""
    return [DeviceProgram(name) for name in PROGRAMS]


def _fail(device: "SmartSsd", session: "Session", exc: Exception) -> None:
    if session.status is not SessionStatus.RUNNING:
        return
    session.fail(f"{type(exc).__name__}: {exc}")
    if device.sim.tracer is not None:
        device.sim.tracer.mark(device.sim.now, "session-failed",
                               f"{device.spec.name} session={session.id} "
                               f"{type(exc).__name__}")


# -- the body -----------------------------------------------------------------

class _Member:
    """Device-side state of one query riding the scan."""

    def __init__(self, index: int, query: Query, args: ProgramArguments,
                 unit_count: int, late: bool, pruner=None,
                 hash_table=None, large_table: bool = False):
        heap = args.heap
        self.index = index
        self.query = query
        #: This member's page pruner (None when its predicate — or the
        #: extent — gives the device nothing to prune with).
        self.pruner = pruner
        self.large_table = large_table
        # The cold kernel charges extraction like a scan of this query
        # alone; the cached kernel (:attr:`kernel_cached`) re-reads values
        # a sibling already pulled through the device cache this unit.
        self.kernel_cold = BatchKernel(query, heap.schema, heap.layout,
                                       hash_table=hash_table)
        self.remaining = set(range(unit_count))  # units not yet dispatched
        self.left = unit_count                   # units not yet processed
        self.counters = WorkCounters()
        self.counters.shared_scans_joined = 1
        #: NAND pages the scan read with this member among their consumers
        #: (build pages included): a scan of it alone reads exactly these.
        self.pages_read = 0
        self.late = late
        if late:
            self.counters.shared_scan_late_attaches = 1
        self.agg = AggState()
        self.select = bool(query.select)
        # Device-resident top-N. DISTINCT is excluded — its global dedupe
        # must see all survivors before the limit.
        self.topn = (TopNState(query.order_by, query.limit, query.descending)
                     if self.select and query.limit is not None
                     and not query.distinct else None)
        self.chunks_pushed = 0
        self.done = False

    @cached_property
    def kernel_cached(self) -> BatchKernel:
        cold = self.kernel_cold
        return BatchKernel(self.query, cold.schema, cold.layout,
                           hash_table=cold.hash_table,
                           ctx_factory=CachedEvalContext)


def _scan_body(device: "SmartSsd", session: "Session",
               args: ProgramArguments) -> Generator[Event, None, None]:
    heap = args.heap
    schema = heap.schema
    layout = heap.layout
    costs = device.costs
    sim = device.sim
    obs = sim.obs
    bus = device.controller.dram_bus
    # One chrome-trace lane per device session; build then scan are
    # sequential phases on it, so their spans never overlap.
    session_track = f"{device.spec.name}:session-{session.id}"
    unit_runs = unit_lpn_runs(heap, args.io_unit_pages)
    unit_count = len(unit_runs)
    capacity = heap.tuples_per_page

    members: list[_Member] = []
    pending: list[tuple[int, Query]] = []
    state = {"accepting": True, "dispatched": False,
             "next_index": len(args.queries)}
    stats = {"units_dispatched": 0, "pages_read": 0, "saved_page_reads": 0,
             "pages_skipped": 0}
    # Extent statistics behind the members' pruners: a page is read iff at
    # least one consumer's predicate might match it.
    extent_stats = None

    def admit(index: int, query: Query, late: bool, hash_table=None,
              large_table: bool = False) -> _Member:
        nonlocal extent_stats
        pruner, found = extent_pruner(device, heap, query)
        if pruner is not None:
            extent_stats = found
        member = _Member(index, query, args, unit_count, late, pruner,
                         hash_table, large_table)
        session.counters.shared_scans_joined += 1
        session.counters.shared_scan_late_attaches += late
        members.append(member)
        return member

    def transfer(nbytes: int, name: str):
        return bus.transfer(nbytes, None if obs is None else obs.span(
            name, track=bus.name, bytes=nbytes))

    def stage(member: _Member, position: int,
              chunks: list) -> Generator[Event, None, None]:
        """Stage one result frame through device DRAM for the host's GETs."""
        nbytes = RESULT_FRAME_NBYTES + sum(
            array.nbytes for chunk in chunks for array in chunk.values())
        yield from transfer(nbytes, "dram.stage")
        member.chunks_pushed += len(chunks)
        session.push(("chunk", member.index, position, chunks)
                     if args.tagged else (position, chunks), nbytes)

    def attach_hook(query: Query) -> int:
        if not state["accepting"]:
            raise ProtocolError(
                f"session {session.id} shared scan already complete; "
                "not joinable")
        if query.join is not None:
            raise ProtocolError(
                f"shared_scan cannot attach join query {query.name!r}")
        check_query("shared_scan", query, args)
        index = state["next_index"]
        state["next_index"] += 1
        pending.append((index, query))
        if obs is not None:
            obs.metrics.counter("sched.shared.attaches",
                                device=device.spec.name).inc()
        return index

    if args.tagged:
        session.attach_hook = attach_hook

    # Phase 1: each join member builds its hash table from the build heap.
    def build(query: Query) -> Generator[Event, None, tuple]:
        build_heap = args.build_heap
        estimate = estimated_hash_table_nbytes(build_heap, query)
        device.runtime.grant_memory(session, estimate)
        large_table = estimate > costs.device_cache_nbytes
        collector = BuildCollector(build_heap.schema, query.join)
        counters = WorkCounters()
        build_window = Resource(sim, args.window,
                                name=f"session-{session.id}-build-window")

        def build_unit(index: int, lpns: list[int]):
            yield build_window.request()
            try:
                if session.status is not SessionStatus.RUNNING:
                    return  # a sibling unit already crashed the program
                _maybe_crash(device, session, "build", index)
                pages = yield from device.internal_read(lpns)
                unit = WorkCounters()
                unit.io_units += 1
                touched = collector.consume(pages, unit, build_heap.layout)
                yield from transfer(touched, "dram.touch")
                yield from device.compute(
                    costs.cycles(unit, large_hash_table=large_table))
                session.counters.add(unit)
                counters.add(unit)
            finally:
                build_window.release()

        build_span = None if obs is None else obs.span(
            "device.build", track=session_track, session=session.id,
            query=query.name).__enter__()
        build_jobs = [
            sim.process(build_unit(i, lpns),
                        name=f"session-{session.id}-build-{i}")
            for i, lpns in enumerate(
                unit_lpn_runs(build_heap, args.io_unit_pages))]
        # Probing needs the complete table: the build phase is a barrier.
        try:
            yield sim.all_of(build_jobs)
        finally:
            if build_span is not None:
                build_span.set(units=len(build_jobs)).finish()
        return collector.finish(), large_table, counters

    for index, query in enumerate(args.queries):
        if query.join is None:
            admit(index, query, late=False)
            continue
        hash_table, large_table, counters = yield from build(query)
        member = admit(index, query, False, hash_table, large_table)
        member.counters.add(counters)
        member.pages_read += args.build_heap.page_count

    def admit_pending() -> None:
        for index, query in pending:
            admit(index, query, late=state["dispatched"])
        pending.clear()

    window = Resource(sim, args.window, name=f"session-{session.id}-window")

    def finalize_member(member: _Member) -> Generator[Event, None, None]:
        if member.topn is not None or (member.select
                                       and not member.chunks_pushed):
            # The top-N pool's one frame; when every page was pruned, one
            # typed empty chunk so the host merge keeps the output dtypes.
            final = member.topn.finish() if member.topn is not None else None
            if final is None:
                __, final = _zero_row_unit(member.kernel_cold).chunks[0]
            yield from stage(member, 0, [final])
        elif not member.select:
            # Zero-row identity: if skipping pruned every page, this gives
            # the same count=0 / sum=0 result an unpruned scan of zero
            # qualifying rows yields; otherwise it folds as a no-op.
            _zero_row_unit(member.kernel_cold, member.agg)
            nbytes = RESULT_FRAME_NBYTES + AGG_VALUE_NBYTES * (
                len(member.query.aggregates)
                * max(1, len(member.agg.groups) or 1))
            yield from transfer(nbytes, "dram.stage")
            session.push(("agg", member.index, member.agg) if args.tagged
                         else ("agg", member.agg), nbytes)
        if args.tagged:
            # Membership is final once a member finishes. A member alone
            # in its session needs no notice on the wire: the frame rides
            # free, and the session's DONE status is the member's.
            shared = len(members) > 1
            session.push(("done", member.index, member.counters,
                          {"late": member.late, "shared": shared,
                           "pages_read": member.pages_read}),
                         RESULT_FRAME_NBYTES if shared else 0)
        member.done = True

    def prune(member: _Member, run: list[int],
              counters: WorkCounters) -> np.ndarray:
        """The member's page mask over one unit (one extent mask per scan);
        charges the zone-map checks."""
        counters.zone_map_checks += member.pruner.leaf_checks * len(run)
        start = run[0] - heap.first_lpn
        return member.pruner.mask(extent_stats)[start:start + len(run)]

    def count_skipped(skipped: int, counters: WorkCounters) -> None:
        if skipped:
            counters.pages_skipped += skipped
            stats["pages_skipped"] += skipped
            if obs is not None:
                obs.metrics.counter("device.pages_skipped",
                                    device=device.spec.name).inc(skipped)

    def offer_topn(member: _Member, position: int, partial,
                   counters: WorkCounters) -> None:
        for offset, chunk in partial.chunks:
            k = len(next(iter(chunk.values()))) if chunk else 0
            # Global row positions in extent scan order: the tie break the
            # host's concatenated merge would use.
            base = (position * args.io_unit_pages + offset) * capacity
            counters.topn_candidates += k
            member.topn.offer(base + np.arange(k), chunk)

    def solo_unit(position: int,
                  member: _Member) -> Generator[Event, None, None]:
        """A unit with one consumer: exactly a scan of it alone."""
        lpns = unit_runs[position]
        counters = WorkCounters()
        counters.io_units += 1
        offsets = list(range(len(lpns)))
        if member.pruner is not None:
            # A skipped page costs a metadata check, not a NAND read.
            offsets = prune(member, lpns, counters).nonzero()[0].tolist()
            count_skipped(len(lpns) - len(offsets), counters)
            lpns = [lpns[offset] for offset in offsets]
        pages = []
        if lpns:
            pages = yield from device.internal_read(lpns)
        stats["pages_read"] += len(pages)
        member.pages_read += len(pages)
        touched = 0
        out_columns: list[dict] = []
        if pages:
            partial = member.kernel_cold.process_unit(
                pages, counters=counters,
                agg_into=None if member.select else member.agg,
                offsets=offsets)
            touched = partial.touched_nbytes
            if member.topn is not None:
                offer_topn(member, position, partial, counters)
            elif member.select:
                out_columns = [chunk for __, chunk in partial.chunks]
        yield from transfer(touched, "dram.touch")
        yield from device.compute(
            costs.cycles(counters, large_hash_table=member.large_table))
        session.counters.add(counters)
        member.counters.add(counters)
        if obs is not None:
            obs.metrics.counter("program.units",
                                device=device.spec.name).inc()
        if out_columns:
            yield from stage(member, position, out_columns)

    def shared_unit(position: int,
                    targets: list[_Member]) -> Generator[Event, None, None]:
        """A unit with several consumers: one read, one union decode."""
        shared = WorkCounters()
        shared.io_units += 1
        marginal = {member.index: WorkCounters() for member in targets}
        chunks = {member.index: [] for member in targets
                  if member.select and member.topn is None}
        # Per-page qualification from each rider's extent mask: a rider
        # without a pruner needs every page; a page is skipped only when
        # *no* rider might match it.
        run = unit_runs[position]
        masks = {member.index: prune(member, run,
                                     marginal[member.index]).tolist()
                 for member in targets if member.pruner is not None}
        page_plan: list[tuple[int, list[_Member]]] = []
        for offset, lpn in enumerate(run):
            qualifying = [member for member in targets
                          if member.index not in masks
                          or masks[member.index][offset]]
            if qualifying:
                page_plan.append((lpn, qualifying))
        pages = []
        if page_plan:
            pages = yield from device.internal_read(
                [lpn for lpn, __ in page_plan])
        saved = sum(len(q) - 1 for __, q in page_plan)
        for __, qualifying in page_plan:
            for member in qualifying:
                member.pages_read += 1
        stats["pages_read"] += len(pages)
        stats["saved_page_reads"] += saved
        count_skipped(len(run) - len(page_plan), shared)
        union: list[str] = []
        for member in targets:
            for name in member.kernel_cold.needed_columns:
                if name not in union:
                    union.append(name)
        touched = 0
        if pages:
            # Decode the member-union columns for the whole unit in one
            # batched pass; riders then run over contiguous row slices.
            unit = UnitColumns(schema, pages)
            shared.pages_parsed += unit.page_count
            if layout is Layout.NSM:
                shared.nsm_tuples_parsed += unit.total_rows
            columns = unit.decode(union)
            touched = touched_bytes(layout, schema, union, unit.total_rows)
            shared.decoded_bytes += unit.decoded_nbytes
            for member in targets:
                # The lowest-ranked rider *of a page* pays the cold
                # extraction price; the rest ride the device cache.
                # Batch each member's qualifying pages into maximal runs
                # of consecutive pages with the same coldness — each run
                # is one contiguous row slice of the unit.
                runs: list[list] = []
                for p, (__, qualifying) in enumerate(page_plan):
                    if member not in qualifying:
                        continue
                    cold = qualifying[0] is member
                    if runs and runs[-1][1] == p and runs[-1][2] == cold:
                        runs[-1][1] = p + 1
                    else:
                        runs.append([p, p + 1, cold])
                for a, b, cold in runs:
                    kernel = (member.kernel_cold if cold
                              else member.kernel_cached)
                    lo, hi = int(unit.starts[a]), int(unit.starts[b])
                    partial = kernel.process_decoded_unit(
                        {name: values[lo:hi]
                         for name, values in columns.items()},
                        unit.counts[a:b], counters=marginal[member.index],
                        agg_into=None if member.select else member.agg,
                        offsets=[lpn - run[0] for lpn, __ in page_plan[a:b]])
                    if member.topn is not None:
                        offer_topn(member, position, partial,
                                   marginal[member.index])
                    elif member.select:
                        chunks[member.index].extend(
                            chunk for __, chunk in partial.chunks)
        # The unit's page bytes cross the DRAM bus once, however many
        # queries consume them — the scan-sharing dividend.
        yield from transfer(touched, "dram.touch")
        yield from device.compute(costs.cycles(shared))
        session.counters.add(shared)
        # The unit's shared work belongs to its cold consumer: the member
        # that pays cold extraction on the unit's first page read.
        cold = page_plan[0][1][0] if page_plan else targets[0]
        cold.counters.add(shared)
        for member in targets:
            yield from device.compute(costs.cycles(
                marginal[member.index],
                large_hash_table=member.large_table))
            member.counters.add(marginal[member.index])
            session.counters.add(marginal[member.index])
        if obs is not None:
            obs.metrics.counter("program.units",
                                device=device.spec.name).inc()
            obs.metrics.counter("sched.shared.saved_page_reads",
                                device=device.spec.name).inc(saved)
        for member in targets:
            if member.index in chunks:
                yield from stage(member, position, chunks[member.index])

    def unit_job(position: int,
                 targets: list[_Member]) -> Generator[Event, None, None]:
        # Exceptions fail the *session* in place rather than propagating:
        # the dispatcher may not be waiting on this job yet, and an
        # unobserved process failure would abort the whole simulation.
        try:
            if session.status is not SessionStatus.RUNNING:
                return  # a sibling unit already crashed the program
            _maybe_crash(device, session, "scan", position)
            stats["units_dispatched"] += 1
            if len(targets) == 1:
                yield from solo_unit(position, targets[0])
            else:
                yield from shared_unit(position, targets)
            for member in targets:
                member.left -= 1
                if member.left == 0:
                    yield from finalize_member(member)
        except Exception as exc:
            _fail(device, session, exc)
        finally:
            window.release()

    scan_span = None if obs is None else obs.span(
        "device.scan", track=session_track, session=session.id,
        queries=len(members)).__enter__()
    jobs = []
    position = 0
    try:
        # The circular dispatcher: assign the next wanted unit to every
        # member still missing it, pacing dispatch with the pipeline
        # window so late ATTACHes join mid-extent rather than post-hoc.
        while session.status is SessionStatus.RUNNING:
            if pending:
                admit_pending()
            for __ in range(unit_count):
                targets = [member for member in members
                           if position in member.remaining]
                if targets:
                    break
                position = (position + 1) % unit_count
            else:
                # Every admitted member has every unit assigned; attaches
                # from here on would find nothing left to share.
                state["accepting"] = False
                break
            for member in targets:
                member.remaining.discard(position)
            yield window.request()
            state["dispatched"] = True
            jobs.append(sim.process(
                unit_job(position, targets),
                name=f"session-{session.id}-unit-{position}"))
            position = (position + 1) % unit_count
        if jobs:
            yield sim.all_of(jobs)
        if session.status is SessionStatus.RUNNING:
            # Zero-unit extents (empty tables) never run a unit job;
            # members still owe their final frames.
            for member in members:
                if not member.done:
                    yield from finalize_member(member)
            if args.tagged and len(members) > 1:
                session.push(("stats", dict(stats, fan_in=len(members))),
                             RESULT_FRAME_NBYTES)
    finally:
        state["accepting"] = False
        if scan_span is not None:
            scan_span.set(units=stats["units_dispatched"],
                          fan_in=len(members),
                          saved_page_reads=stats["saved_page_reads"]
                          ).finish()
