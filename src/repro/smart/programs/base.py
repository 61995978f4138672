"""Shared in-device execution engine for the uploaded programs.

The engine runs a :class:`~repro.engine.plans.Query` entirely inside the
device as a windowed pipeline over 32-page I/O units:

1. the flash controller streams a unit into device DRAM (channels in
   parallel, DMA serialized on the shared DRAM bus);
2. the device CPU runs the kernel — the *same* kernel the host
   executor uses — re-crossing the DRAM bus for the page bytes it actually
   touches (whole records under NSM, only the referenced minipages under
   PAX);
3. result bytes are staged in the session buffer for the host's GET polls.

Join queries first stream the build table the same way and construct the
hash table in device DRAM, after asking the runtime for a memory grant —
which fails, exactly as the paper's §4.2.2 precondition implies, when the
build side does not fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from repro.engine.kernels import (
    AggState,
    BatchKernel,
    BuildCollector,
    TopNState,
    UnitPartial,
    estimated_hash_table_nbytes,
)
from repro.engine.plans import Query
from repro.engine.pruning import PagePruner, build_pruner
from repro.errors import ProgramCrashError, ProtocolError
from repro.faults import SITE_SESSION_CRASH, check_fault
from repro.model.counters import WorkCounters
from repro.sim import Event, Resource
from repro.storage.heapfile import HeapFile, unit_lpn_runs
from repro.units import IO_UNIT_PAGES, PIPELINE_WINDOW

from repro.smart.protocol import SessionStatus

if TYPE_CHECKING:
    from repro.smart.device import SmartSsd
    from repro.smart.runtime import Session

#: Serialized size of one streamed result-chunk frame (headers etc.).
RESULT_FRAME_NBYTES = 256

#: Serialized size of a final aggregate value.
AGG_VALUE_NBYTES = 16


@dataclass(frozen=True)
class ProgramArguments:
    """Decoded OPEN arguments for the query programs."""

    query: Query
    heap: HeapFile
    build_heap: Optional[HeapFile] = None
    io_unit_pages: int = IO_UNIT_PAGES
    window: int = PIPELINE_WINDOW

    @classmethod
    def from_open(cls, arguments: dict) -> "ProgramArguments":
        """Validate and decode an OPEN command's argument dict."""
        try:
            query = arguments["query"]
            heap = arguments["heap"]
        except KeyError as exc:
            raise ProtocolError(f"OPEN missing argument {exc}") from None
        if not isinstance(query, Query):
            raise ProtocolError("OPEN argument 'query' must be a Query")
        if not isinstance(heap, HeapFile):
            raise ProtocolError("OPEN argument 'heap' must be a HeapFile")
        return cls(query=query, heap=heap,
                   build_heap=arguments.get("build_heap"),
                   io_unit_pages=arguments.get("io_unit_pages", IO_UNIT_PAGES),
                   window=arguments.get("window", PIPELINE_WINDOW))


class DeviceProgram:
    """Base class of the uploadable programs."""

    #: Program name used in OPEN commands.
    name = "abstract"

    def decode_arguments(self, arguments: dict) -> ProgramArguments:
        """Decode an OPEN command's argument dict for this program.

        The default single-query shape; programs with a different OPEN
        contract (the shared scan takes a query *list*) override this.
        """
        return ProgramArguments.from_open(arguments)

    def validate(self, args: ProgramArguments) -> None:
        """Reject OPEN requests whose query shape this program can't run."""
        raise NotImplementedError

    def run(self, device: "SmartSsd", session: "Session",
            args: ProgramArguments) -> Generator[Event, None, None]:
        """The program's device-side process body.

        Validation failures fail the *session* (surfaced to the host via
        GET) rather than crashing the device.
        """
        try:
            self.validate(args)
        except Exception as exc:
            session.fail(f"{type(exc).__name__}: {exc}")
            return
        yield from execute_query(device, session, args)


def extent_pruner(device: "SmartSsd", heap: HeapFile,
                  query: Query) -> tuple[Optional[PagePruner], Optional[object]]:
    """(pruner, extent stats) for a scan, or (None, None) when the device
    has nothing to prune with.

    Pruning needs registered statistics whose page count matches the heap
    (a stale registration never silently skips pages) and a predicate with
    at least one analyzable leaf.
    """
    if query.predicate is None:
        return None, None
    getter = getattr(device, "extent_stats", None)
    stats = getter(heap.first_lpn) if getter is not None else None
    if stats is None or stats.page_count != heap.page_count:
        return None, None
    pruner = build_pruner(query.predicate, heap.schema)
    if pruner is None:
        return None, None
    return pruner, stats


def _zero_row_unit(kernel: BatchKernel,
                   agg_into: Optional[AggState] = None) -> UnitPartial:
    """Run the kernel over a unit of one zero-row page.

    Data skipping can leave a scan with no processed pages at all; this
    unit reproduces exactly what an unpruned scan of zero qualifying rows
    would have produced (one typed empty chunk for selects, count=0 / sum=0
    identities folded into ``agg_into`` for aggregates).
    """
    columns = {
        name: np.empty(0, dtype=kernel.schema.column(name).ctype.numpy_dtype)
        for name in kernel.needed_columns}
    return kernel.process_decoded_unit(columns, [0], counters=WorkCounters(),
                                       agg_into=agg_into)


def execute_query(device: "SmartSsd", session: "Session",
                  args: ProgramArguments) -> Generator[Event, None, None]:
    """Run a query inside the device, streaming results into the session."""
    try:
        yield from _execute_query_body(device, session, args)
    except Exception as exc:  # surfaced to the host through GET
        session.fail(f"{type(exc).__name__}: {exc}")
        if device.sim.tracer is not None:
            device.sim.tracer.mark(device.sim.now, "session-failed",
                                   f"{device.spec.name} session={session.id} "
                                   f"{type(exc).__name__}")
        return
    session.finish()


def _maybe_crash(device: "SmartSsd", session: "Session",
                 stage: str, unit: int) -> None:
    """Fault site: the uploaded program dies mid-unit (paper §5 lists
    in-device program failures as an open deployment problem)."""
    decision = check_fault(getattr(device.sim, "faults", None),
                           SITE_SESSION_CRASH, time=device.sim.now,
                           device=device.spec.name,
                           program=session.params.program,
                           stage=stage, unit=unit)
    if decision is not None:
        raise ProgramCrashError(
            f"injected crash in {session.params.program!r} "
            f"({stage} unit {unit})")


def _execute_query_body(device: "SmartSsd", session: "Session",
                        args: ProgramArguments
                        ) -> Generator[Event, None, None]:
    query = args.query
    heap = args.heap
    costs = device.costs
    sim = device.sim
    obs = sim.obs
    # One chrome-trace lane per device session; build then scan are
    # sequential phases on it, so their spans never overlap.
    session_track = f"{device.spec.name}:session-{session.id}"

    # Phase 1: build the join hash table from the dimension heap.
    hash_table = None
    large_table = False
    if query.join is not None:
        if args.build_heap is None:
            raise ProtocolError("join query OPENed without a build heap")
        estimate = estimated_hash_table_nbytes(args.build_heap, query)
        device.runtime.grant_memory(session, estimate)
        large_table = estimate > costs.device_cache_nbytes
        collector = BuildCollector(args.build_heap.schema, query.join)
        build_window = Resource(sim, args.window,
                                name=f"session-{session.id}-build-window")

        def build_unit(index: int, lpns: list[int]):
            yield build_window.request()
            try:
                if session.status is not SessionStatus.RUNNING:
                    return  # a sibling unit already crashed the program
                _maybe_crash(device, session, "build", index)
                pages = yield from device.internal_read(lpns)
                counters = WorkCounters()
                counters.io_units += 1
                touched = collector.consume(pages, counters,
                                            args.build_heap.layout)
                yield from device.controller.dram_bus.transfer(
                    touched,
                    None if obs is None else obs.span(
                        "dram.touch", track=device.controller.dram_bus.name,
                        bytes=touched))
                yield from device.compute(
                    costs.cycles(counters, large_hash_table=large_table))
                session.counters.add(counters)
            finally:
                build_window.release()

        build_span = None if obs is None else obs.span(
            "device.build", track=session_track, session=session.id,
            query=query.name).__enter__()
        build_jobs = [
            sim.process(build_unit(i, lpns),
                        name=f"session-{session.id}-build-{i}")
            for i, lpns in enumerate(
                unit_lpn_runs(args.build_heap, args.io_unit_pages))
        ]
        # Probing needs the complete table: the build phase is a barrier.
        try:
            yield sim.all_of(build_jobs)
        finally:
            if build_span is not None:
                build_span.set(units=len(build_jobs)).finish()
        hash_table = collector.finish()

    # Phase 2: windowed pipeline over the fact heap.
    kernel = BatchKernel(query, heap.schema, heap.layout,
                         hash_table=hash_table)
    window = Resource(sim, args.window, name=f"session-{session.id}-window")
    agg_total = AggState()
    select_mode = bool(query.select)
    pruner, stats = extent_pruner(device, heap, query)
    # Device-resident top-N: fold every unit's survivors into one bounded
    # candidate pool and ship a single O(k) frame at the end. DISTINCT is
    # excluded — its global dedupe must see all survivors before the limit.
    device_topn = (select_mode and query.limit is not None
                   and not query.distinct)
    topn = (TopNState(query.order_by, query.limit, query.descending)
            if device_topn else None)
    capacity = heap.tuples_per_page
    chunks_pushed = [0]

    def unit_process(index: int, lpns: list[int]):
        yield window.request()
        try:
            if session.status is not SessionStatus.RUNNING:
                return  # a sibling unit already crashed the program
            _maybe_crash(device, session, "scan", index)
            counters = WorkCounters()
            counters.io_units += 1
            offsets = list(range(len(lpns)))
            if pruner is not None:
                # Consult the per-page statistics before touching flash;
                # a skipped page costs a metadata check, not a NAND read.
                # The extent's mask is computed once per scan; a unit is a
                # contiguous run of it.
                counters.zone_map_checks += pruner.leaf_checks * len(lpns)
                start = lpns[0] - heap.first_lpn
                offsets = pruner.mask(stats)[
                    start:start + len(lpns)].nonzero()[0].tolist()
                skipped = len(lpns) - len(offsets)
                if skipped:
                    counters.pages_skipped += skipped
                    if obs is not None:
                        obs.metrics.counter(
                            "device.pages_skipped",
                            device=device.spec.name).inc(skipped)
                lpns = [lpns[off] for off in offsets]
            pages = []
            if lpns:
                pages = yield from device.internal_read(lpns)
            touched = 0
            out_columns: list[dict] = []
            if pages:
                partial = kernel.process_unit(
                    pages, counters=counters,
                    agg_into=None if select_mode else agg_total,
                    offsets=offsets)
                touched = partial.touched_nbytes
                if device_topn:
                    for offset, chunk in partial.chunks:
                        k = len(next(iter(chunk.values()))) if chunk else 0
                        # Global row positions in extent scan order: the tie
                        # break the host's concatenated merge would use.
                        base = ((index * args.io_unit_pages + offset)
                                * capacity)
                        counters.topn_candidates += k
                        topn.offer(base + np.arange(k), chunk)
                elif select_mode:
                    out_columns = [chunk for __, chunk in partial.chunks]
            yield from device.controller.dram_bus.transfer(
                touched,
                None if obs is None else obs.span(
                    "dram.touch", track=device.controller.dram_bus.name,
                    bytes=touched))
            yield from device.compute(
                costs.cycles(counters, large_hash_table=large_table))
            session.counters.add(counters)
            if obs is not None:
                obs.metrics.counter("program.units",
                                    device=device.spec.name).inc()
            if select_mode and not device_topn and out_columns:
                nbytes = RESULT_FRAME_NBYTES + sum(
                    array.nbytes for chunk in out_columns
                    for array in chunk.values())
                # Results are staged through device DRAM before the host
                # drains them over the interface.
                yield from device.controller.dram_bus.transfer(
                    nbytes,
                    None if obs is None else obs.span(
                        "dram.stage", track=device.controller.dram_bus.name,
                        bytes=nbytes))
                chunks_pushed[0] += 1
                session.push((index, out_columns), nbytes)
        finally:
            window.release()

    scan_span = None if obs is None else obs.span(
        "device.scan", track=session_track, session=session.id,
        query=query.name).__enter__()
    processes = [
        sim.process(unit_process(index, lpns),
                    name=f"session-{session.id}-unit-{index}")
        for index, lpns in enumerate(unit_lpn_runs(heap, args.io_unit_pages))
    ]
    try:
        yield sim.all_of(processes)

        if device_topn:
            final = topn.finish()
            if final is None:
                __, final = _zero_row_unit(kernel).chunks[0]
            nbytes = RESULT_FRAME_NBYTES + sum(
                array.nbytes for array in final.values())
            yield from device.controller.dram_bus.transfer(
                nbytes,
                None if obs is None else obs.span(
                    "dram.stage", track=device.controller.dram_bus.name,
                    bytes=nbytes))
            session.push((0, [final]), nbytes)
        elif select_mode and not chunks_pushed[0]:
            # Every page was pruned: ship one typed empty chunk so the
            # host merge keeps the query's output dtypes.
            __, proto = _zero_row_unit(kernel).chunks[0]
            yield from device.controller.dram_bus.transfer(
                RESULT_FRAME_NBYTES,
                None if obs is None else obs.span(
                    "dram.stage", track=device.controller.dram_bus.name,
                    bytes=RESULT_FRAME_NBYTES))
            session.push((0, [proto]), RESULT_FRAME_NBYTES)
        elif not select_mode:
            # Zero-row identity: if skipping pruned every page, this gives
            # the same count=0 / sum=0 result an unpruned scan of zero
            # qualifying rows yields; otherwise it folds as a no-op.
            _zero_row_unit(kernel, agg_total)
            nbytes = RESULT_FRAME_NBYTES + AGG_VALUE_NBYTES * (
                len(query.aggregates) * max(1, len(agg_total.groups) or 1))
            yield from device.controller.dram_bus.transfer(
                nbytes,
                None if obs is None else obs.span(
                    "dram.stage", track=device.controller.dram_bus.name,
                    bytes=nbytes))
            session.push(("agg", agg_total), nbytes)
    finally:
        if scan_span is not None:
            scan_span.set(units=len(processes)).finish()
