"""OPEN arguments and helpers of the device scan program: page pruning,
the zero-row result of a fully pruned scan, and the ``session.crash``
fault site."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.engine.kernels import AggState, BatchKernel, UnitPartial
from repro.engine.plans import Query
from repro.engine.pruning import PagePruner, build_pruner
from repro.errors import ProgramCrashError, ProtocolError
from repro.faults import SITE_SESSION_CRASH, check_fault
from repro.model.counters import WorkCounters
from repro.storage.heapfile import HeapFile
from repro.units import IO_UNIT_PAGES, PIPELINE_WINDOW

if TYPE_CHECKING:
    from repro.smart.device import SmartSsd
    from repro.smart.runtime import Session

#: Serialized size of one streamed result-chunk frame (headers etc.).
RESULT_FRAME_NBYTES = 256

#: Serialized size of a final aggregate value.
AGG_VALUE_NBYTES = 16


@dataclass(frozen=True)
class ProgramArguments:
    """Decoded OPEN arguments of the device scan.

    ``tagged`` is set by the ``shared_scan`` contract (a query *list*): its
    result frames name the member they belong to, and members announce
    their completion with ``done`` frames. The single-query programs speak
    the untagged frames of the paper's protocol.
    """

    queries: tuple[Query, ...]
    heap: HeapFile
    build_heap: Optional[HeapFile] = None
    io_unit_pages: int = IO_UNIT_PAGES
    window: int = PIPELINE_WINDOW
    tagged: bool = False

    @classmethod
    def from_open(cls, arguments: dict, tagged: bool) -> "ProgramArguments":
        """Validate and decode an OPEN command's argument dict."""
        key = "queries" if tagged else "query"
        try:
            queries = arguments[key]
            heap = arguments["heap"]
        except KeyError as exc:
            raise ProtocolError(f"OPEN missing argument {exc}") from None
        queries = tuple(queries) if tagged else (queries,)
        if not queries:
            raise ProtocolError("OPEN argument 'queries' must be non-empty")
        if not all(isinstance(query, Query) for query in queries):
            raise ProtocolError(f"OPEN argument {key!r} must be "
                                + ("a sequence of Query" if tagged
                                   else "a Query"))
        if not isinstance(heap, HeapFile):
            raise ProtocolError("OPEN argument 'heap' must be a HeapFile")
        return cls(queries=queries, heap=heap,
                   build_heap=arguments.get("build_heap"),
                   io_unit_pages=arguments.get("io_unit_pages",
                                               IO_UNIT_PAGES),
                   window=arguments.get("window", PIPELINE_WINDOW),
                   tagged=tagged)


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
