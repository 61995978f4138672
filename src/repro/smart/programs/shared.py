"""The cooperative shared-scan program: one circular scan, many queries.

The paper's §4.3 observes that concurrent pushdown queries contend for the
device CPU and internal bandwidth; this program is the remedy the
scheduler's scan-sharing layer rides on. One session OPENs with a *list*
of queries over the same heap extent; the program runs a single circular
(elevator) scan over the extent's I/O units and multiplexes every admitted
query onto it:

* each I/O unit crosses NAND and the DRAM bus **once**, regardless of how
  many queries consume it;
* each page's column union is decoded once; the lowest-index rider of a
  unit pays the cold extraction price (exactly the work a solo scan
  charges) and every other rider re-reads the already-materialized values
  at the cheap :attr:`~repro.model.costs.CycleCosts.cached_value_extract`
  rate;
* per-query work — predicates, aggregate folds, output materialization —
  stays per-query, so results are exactly what each query would produce
  alone.

Late arrivals join through the ATTACH command while the dispatcher is
still assigning units: a member that joins mid-extent picks up the scan at
the current position and wraps around for the units it missed (only those
are re-read). Once every member has seen every unit the program stops
accepting attaches and finishes; an ATTACH losing that race is refused
with a protocol error and the host opens a fresh session instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.engine.expressions import CachedEvalContext
from repro.engine.kernels import AggState, BatchKernel
from repro.engine.plans import Query
from repro.engine.pruning import PagePruner
from repro.errors import ProtocolError
from repro.model.counters import WorkCounters
from repro.sim import Event, Resource
from repro.storage.heapfile import HeapFile, unit_lpn_runs
from repro.storage.layout import Layout, touched_bytes
from repro.storage.unitdecode import UnitColumns
from repro.units import IO_UNIT_PAGES, PIPELINE_WINDOW

from repro.smart.programs.base import (
    AGG_VALUE_NBYTES,
    RESULT_FRAME_NBYTES,
    DeviceProgram,
    _maybe_crash,
    _zero_row_unit,
    extent_pruner,
)
from repro.smart.protocol import SessionStatus

if TYPE_CHECKING:
    from repro.smart.device import SmartSsd
    from repro.smart.runtime import Session


@dataclass(frozen=True)
class SharedScanArguments:
    """Decoded OPEN arguments for the shared-scan program."""

    queries: tuple[Query, ...]
    heap: HeapFile
    io_unit_pages: int = IO_UNIT_PAGES
    window: int = PIPELINE_WINDOW

    @classmethod
    def from_open(cls, arguments: dict) -> "SharedScanArguments":
        """Validate and decode an OPEN command's argument dict."""
        try:
            queries = tuple(arguments["queries"])
            heap = arguments["heap"]
        except KeyError as exc:
            raise ProtocolError(f"OPEN missing argument {exc}") from None
        if not queries:
            raise ProtocolError("OPEN argument 'queries' must be non-empty")
        if not all(isinstance(query, Query) for query in queries):
            raise ProtocolError(
                "OPEN argument 'queries' must be a sequence of Query")
        if not isinstance(heap, HeapFile):
            raise ProtocolError("OPEN argument 'heap' must be a HeapFile")
        return cls(queries=queries, heap=heap,
                   io_unit_pages=arguments.get("io_unit_pages",
                                               IO_UNIT_PAGES),
                   window=arguments.get("window", PIPELINE_WINDOW))


def validate_shared_query(query: Query, heap: HeapFile) -> None:
    """Reject queries the shared scan cannot serve.

    Joins need a per-session build phase and memory grant, which a shared
    stream cannot multiplex; they keep their dedicated programs.
    """
    if query.join is not None:
        raise ProtocolError(
            f"shared_scan cannot serve join query {query.name!r}")
    for name in query.probe_side_columns():
        if not heap.schema.has_column(name):
            raise ProtocolError(
                f"query {query.name!r} references unknown column {name!r}")


class _Member:
    """Device-side state of one query riding the shared scan."""

    def __init__(self, index: int, query: Query, heap: HeapFile,
                 unit_count: int, late: bool,
                 pruner: PagePruner | None = None):
        self.index = index
        self.query = query
        #: This rider's page pruner (None when its predicate — or the
        #: extent — gives the device nothing to prune with).
        self.pruner = pruner
        self.chunks_pushed = 0
        # The cold kernel charges extraction like a solo scan; the cached
        # kernel re-reads values a sibling already pulled through the
        # device cache this unit.
        self.kernel_cold = BatchKernel(query, heap.schema, heap.layout)
        self.kernel_cached = BatchKernel(query, heap.schema, heap.layout,
                                         ctx_factory=CachedEvalContext)
        self.remaining = set(range(unit_count))  # units not yet dispatched
        self.left = unit_count                   # units not yet processed
        self.counters = WorkCounters()
        self.counters.shared_scans_joined = 1
        #: NAND pages the scan read with this rider among their consumers.
        self.pages_read = 0
        self.late = late
        if late:
            self.counters.shared_scan_late_attaches = 1
        self.agg = AggState()
        self.select = bool(query.select)
        self.done = False


class SharedScanProgram(DeviceProgram):
    """Multi-query circular scan with mid-extent ATTACH."""

    name = "shared_scan"

    def decode_arguments(self, arguments: dict) -> SharedScanArguments:
        return SharedScanArguments.from_open(arguments)

    def run(self, device: "SmartSsd", session: "Session",
            args: SharedScanArguments) -> Generator[Event, None, None]:
        try:
            for query in args.queries:
                validate_shared_query(query, args.heap)
        except Exception as exc:
            session.fail(f"{type(exc).__name__}: {exc}")
            return
        try:
            yield from _shared_scan_body(device, session, args)
        except Exception as exc:  # surfaced to the host through GET
            session.fail(f"{type(exc).__name__}: {exc}")
            if device.sim.tracer is not None:
                device.sim.tracer.mark(
                    device.sim.now, "session-failed",
                    f"{device.spec.name} session={session.id} "
                    f"{type(exc).__name__}")
            return
        # Unit jobs fail the session in place (they outlive the dispatcher's
        # error handling); only a still-healthy scan reports DONE.
        if session.status is SessionStatus.RUNNING:
            session.finish()


def _shared_scan_body(device: "SmartSsd", session: "Session",
                      args: SharedScanArguments
                      ) -> Generator[Event, None, None]:
    heap = args.heap
    schema = heap.schema
    layout = heap.layout
    costs = device.costs
    sim = device.sim
    obs = sim.obs
    session_track = f"{device.spec.name}:session-{session.id}"
    unit_runs = unit_lpn_runs(heap, args.io_unit_pages)
    unit_count = len(unit_runs)

    members: list[_Member] = []
    pending: list[tuple[int, Query]] = []
    state = {"accepting": True, "dispatched": False, "next_index": 0}
    stats = {"units_dispatched": 0, "pages_read": 0, "saved_page_reads": 0,
             "pages_skipped": 0}

    # Per-rider pruners over the extent's registered page statistics: a
    # page is read iff at least one rider's predicate might match it.
    extent_stats = None

    def rider_pruner(query: Query) -> PagePruner | None:
        nonlocal extent_stats
        pruner, found = extent_pruner(device, heap, query)
        if pruner is not None:
            extent_stats = found
        return pruner

    def attach_hook(query: Query) -> int:
        if not state["accepting"]:
            raise ProtocolError(
                f"session {session.id} shared scan already complete; "
                "not joinable")
        validate_shared_query(query, heap)
        index = state["next_index"]
        state["next_index"] += 1
        pending.append((index, query))
        if obs is not None:
            obs.metrics.counter("sched.shared.attaches",
                                device=device.spec.name).inc()
        return index

    session.attach_hook = attach_hook

    def admit_pending() -> None:
        for index, query in pending:
            members.append(_Member(index, query, heap, unit_count,
                                   late=state["dispatched"],
                                   pruner=rider_pruner(query)))
        pending.clear()

    for query in args.queries:
        index = state["next_index"]
        state["next_index"] += 1
        members.append(_Member(index, query, heap, unit_count, late=False,
                               pruner=rider_pruner(query)))

    window = Resource(sim, args.window,
                      name=f"session-{session.id}-window")

    def finalize_member(member: _Member) -> Generator[Event, None, None]:
        if member.select and not member.chunks_pushed:
            # Every page was pruned for this rider: ship one typed empty
            # chunk so the host merge keeps the query's output dtypes.
            __, proto = _zero_row_unit(member.kernel_cold).chunks[0]
            yield from device.controller.dram_bus.transfer(
                RESULT_FRAME_NBYTES,
                None if obs is None else obs.span(
                    "dram.stage", track=device.controller.dram_bus.name,
                    bytes=RESULT_FRAME_NBYTES))
            session.push(("chunk", member.index, 0, [proto]),
                         RESULT_FRAME_NBYTES)
        if not member.select:
            total = member.agg
            nbytes = RESULT_FRAME_NBYTES + AGG_VALUE_NBYTES * (
                len(member.query.aggregates)
                * max(1, len(total.groups) or 1))
            yield from device.controller.dram_bus.transfer(
                nbytes,
                None if obs is None else obs.span(
                    "dram.stage", track=device.controller.dram_bus.name,
                    bytes=nbytes))
            session.push(("agg", member.index, total), nbytes)
        session.push(("done", member.index, member.counters,
                      {"late": member.late, "pages_read": member.pages_read}),
                     RESULT_FRAME_NBYTES)
        member.done = True

    def unit_job(position: int,
                 targets: list[_Member]) -> Generator[Event, None, None]:
        # Exceptions fail the *session* in place rather than propagating:
        # the dispatcher may not be waiting on this job yet, and an
        # unobserved process failure would abort the whole simulation.
        try:
            if session.status is not SessionStatus.RUNNING:
                return  # a sibling unit already crashed the program
            _maybe_crash(device, session, "shared-scan", position)
            shared = WorkCounters()
            shared.io_units += 1
            marginal = {member.index: WorkCounters() for member in targets}
            chunks = {member.index: [] for member in targets
                      if member.select}
            # Per-page qualification from each rider's extent mask (computed
            # once per scan): a rider without a pruner needs every
            # page; a page is skipped only when *no* rider might match it.
            run = unit_runs[position]
            start = run[0] - heap.first_lpn
            masks = {}
            for member in targets:
                if member.pruner is not None:
                    marginal[member.index].zone_map_checks += \
                        member.pruner.leaf_checks * len(run)
                    masks[member.index] = member.pruner.mask(
                        extent_stats)[start:start + len(run)].tolist()
            page_plan: list[tuple[int, list[_Member]]] = []
            for offset, lpn in enumerate(run):
                qualifying = [member for member in targets
                              if member.index not in masks
                              or masks[member.index][offset]]
                if qualifying:
                    page_plan.append((lpn, qualifying))
            skipped = len(unit_runs[position]) - len(page_plan)
            pages = []
            if page_plan:
                pages = yield from device.internal_read(
                    [lpn for lpn, __ in page_plan])
            saved = sum(len(q) - 1 for __, q in page_plan)
            for __, qualifying in page_plan:
                for member in qualifying:
                    member.pages_read += 1
            stats["units_dispatched"] += 1
            stats["pages_read"] += len(pages)
            stats["saved_page_reads"] += saved
            if skipped:
                shared.pages_skipped += skipped
                stats["pages_skipped"] += skipped
                if obs is not None:
                    obs.metrics.counter("device.pages_skipped",
                                        device=device.spec.name).inc(skipped)
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
                touched = touched_bytes(layout, schema, union,
                                        unit.total_rows)
                shared.decoded_bytes += unit.decoded_nbytes
                for member in targets:
                    # The lowest-ranked rider *of a page* pays the cold
                    # extraction price; the rest ride the device cache.
                    # Batch each member's qualifying pages into maximal
                    # runs of consecutive pages with the same coldness —
                    # each run is one contiguous row slice of the unit.
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
                        run_columns = {name: values[lo:hi]
                                       for name, values in columns.items()}
                        partial = kernel.process_decoded_unit(
                            run_columns, unit.counts[a:b],
                            counters=marginal[member.index],
                            agg_into=(None if member.select
                                      else member.agg))
                        if member.select:
                            chunks[member.index].extend(
                                chunk for __, chunk in partial.chunks)
            # The unit's page bytes cross the DRAM bus once, however many
            # queries consume them — the scan-sharing dividend.
            yield from device.controller.dram_bus.transfer(
                touched,
                None if obs is None else obs.span(
                    "dram.touch", track=device.controller.dram_bus.name,
                    bytes=touched))
            yield from device.compute(costs.cycles(shared))
            session.counters.add(shared)
            for member in targets:
                yield from device.compute(
                    costs.cycles(marginal[member.index]))
                member.counters.add(marginal[member.index])
                session.counters.add(marginal[member.index])
            if obs is not None:
                obs.metrics.counter("program.units",
                                    device=device.spec.name).inc()
                obs.metrics.counter("sched.shared.saved_page_reads",
                                    device=device.spec.name).inc(saved)
            for member in targets:
                if member.select:
                    out_chunks = chunks[member.index]
                    nbytes = RESULT_FRAME_NBYTES + sum(
                        array.nbytes for chunk in out_chunks
                        for array in chunk.values())
                    yield from device.controller.dram_bus.transfer(
                        nbytes,
                        None if obs is None else obs.span(
                            "dram.stage",
                            track=device.controller.dram_bus.name,
                            bytes=nbytes))
                    member.chunks_pushed += len(out_chunks)
                    session.push(("chunk", member.index, position,
                                  out_chunks), nbytes)
            for member in targets:
                member.left -= 1
                if member.left == 0:
                    yield from finalize_member(member)
        except Exception as exc:
            if session.status is SessionStatus.RUNNING:
                session.fail(f"{type(exc).__name__}: {exc}")
                if sim.tracer is not None:
                    sim.tracer.mark(sim.now, "session-failed",
                                    f"{device.spec.name} "
                                    f"session={session.id} "
                                    f"{type(exc).__name__}")
        finally:
            window.release()

    scan_span = None if obs is None else obs.span(
        "device.shared_scan", track=session_track, session=session.id,
        queries=len(members)).__enter__()
    jobs = []
    position = 0
    try:
        # The circular dispatcher: assign the next wanted unit to every
        # member still missing it, pacing dispatch with the pipeline
        # window so late ATTACHes join mid-extent rather than post-hoc.
        while True:
            if session.status is not SessionStatus.RUNNING:
                break  # a unit job crashed the program
            admit_pending()
            if not any(member.remaining for member in members):
                # Every admitted member has every unit assigned; attaches
                # from here on would find nothing left to share.
                state["accepting"] = False
                break
            for __ in range(unit_count):
                if any(position in member.remaining for member in members):
                    break
                position = (position + 1) % unit_count
            targets = [member for member in members
                       if position in member.remaining]
            for member in targets:
                member.remaining.discard(position)
            yield window.request()
            state["dispatched"] = True
            jobs.append(sim.process(
                unit_job(position, targets),
                name=f"session-{session.id}-shared-unit-{position}"))
            position = (position + 1) % unit_count
        if jobs:
            yield sim.all_of(jobs)
        if session.status is SessionStatus.RUNNING:
            # Zero-unit extents (empty tables) never run a unit job;
            # members still owe their final frames.
            for member in members:
                if not member.done:
                    yield from finalize_member(member)
            session.push(("stats", dict(stats, fan_in=len(members))),
                         RESULT_FRAME_NBYTES)
    finally:
        state["accepting"] = False
        if scan_span is not None:
            scan_span.set(units=stats["units_dispatched"],
                          fan_in=len(members),
                          saved_page_reads=stats["saved_page_reads"]
                          ).finish()
