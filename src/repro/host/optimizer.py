"""Cost-based pushdown decision (paper §4.3's research direction).

"There are many interesting research and development issues that need to be
further explored, including extending the query optimizer to push
operations to the Smart SSD." This module is that extension for the
supported query class:

1. **Feasibility vetoes** — the device must be a Smart SSD; the buffer pool
   must not hold dirty (newer) pages of the scanned extents.
2. **Caching awareness** — pages already cached make the conventional path
   cheaper ("if all or part of the data is already cached in the buffer
   pool, then pushing the processing to the Smart SSD may not be
   beneficial").
3. **Cost comparison** — selectivity is estimated by sampling real pages
   (an optimizer-grade sample, not the full scan), work counters are
   projected from table statistics, and both placements are priced with the
   analytic pipeline model. The cheaper side wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.engine.expressions import EvalContext
from repro.engine.kernels import estimated_hash_table_nbytes
from repro.engine.plans import Query
from repro.engine.pruning import build_pruner
from repro.model.analytic import (
    ScanJobModel,
    host_scan_times_hdd,
    host_scan_times_ssd,
    smart_scan_times,
)
from repro.model.counters import WorkCounters
from repro.flash.hdd import Hdd
from repro.host.catalog import Table
from repro.model.costs import DEVICE_CPU
from repro.smart.device import SmartSsd
from repro.storage.layout import Layout, decode_columns, touched_bytes
from repro.storage.page import PAGE_SIZE, PageHeader

if TYPE_CHECKING:
    from repro.host.db import Database

#: Pages sampled for selectivity estimation.
SAMPLE_PAGES = 8


@dataclass(frozen=True)
class PlacementDecision:
    """The optimizer's verdict for one query."""

    placement: str           # "host" or "smart"
    reason: str
    host_estimate_seconds: float
    smart_estimate_seconds: Optional[float]
    estimated_selectivity: float
    #: Fraction of fact-table pages the device's zone-map/Bloom checks are
    #: expected to skip (0.0 when no statistics are registered).
    estimated_skip_fraction: float = 0.0


def estimate_selectivity(db: "Database", query: Query,
                         sample_pages: int = SAMPLE_PAGES) -> float:
    """Fraction of fact-table rows passing the predicate, from a sample."""
    if query.predicate is None:
        return 1.0
    table = db.catalog.table(query.table)
    device = db.device(table.device_name)
    lpns = list(table.heap.lpns())
    stride = max(1, len(lpns) // sample_pages)
    sampled = lpns[::stride][:sample_pages]
    needed = sorted(query.predicate.columns())
    passed = 0
    total = 0
    scratch = WorkCounters()
    for lpn in sampled:
        page = device.read_page_direct(lpn)
        header = PageHeader.decode(page)
        if header.tuple_count == 0:
            continue
        columns = decode_columns(table.schema, page, needed)
        ctx = EvalContext(columns, header.tuple_count, scratch, table.layout)
        mask = query.predicate.evaluate(ctx, header.tuple_count)
        passed += int(np.count_nonzero(mask))
        total += header.tuple_count
    return passed / total if total else 1.0


def estimate_skip_fraction(db: "Database", query: Query) -> float:
    """Fraction of fact-table pages the device scan will prune.

    Unlike selectivity this is exact, not sampled: the per-page statistics
    are O(pages) metadata the host can walk for free, applying the same
    conservative checks the device program will (``repro.engine.pruning``).
    Returns 0.0 whenever the device has no usable statistics.
    """
    if query.predicate is None:
        return 0.0
    table = db.catalog.table(query.table)
    device = db.device(table.device_name)
    getter = getattr(device, "extent_stats", None)
    stats = getter(table.heap.first_lpn) if getter is not None else None
    if stats is None or stats.page_count != table.heap.page_count:
        return 0.0
    pruner = build_pruner(query.predicate, table.schema)
    if pruner is None:
        return 0.0
    pruned = stats.page_count - int(np.count_nonzero(pruner.mask(stats)))
    return pruned / stats.page_count


def project_counters(db: "Database", query: Query,
                     selectivity: float) -> WorkCounters:
    """Project full-scan work counters from catalog statistics."""
    table = db.catalog.table(query.table)
    counters = WorkCounters()
    tuples = table.tuple_count
    survivors = int(tuples * selectivity)
    counters.pages_parsed = table.page_count
    counters.io_units = (table.page_count + 31) // 32
    predicate_columns = (len(query.predicate.columns())
                         if query.predicate is not None else 0)
    # Roughly 1.5 predicate evaluations per tuple after short-circuiting.
    counters.predicates_evaluated = int(tuples * 1.5) if predicate_columns \
        else 0
    extracts = tuples * max(1, predicate_columns)
    output_width = (len(query.select) if query.select
                    else len(query.aggregates))
    extracts += survivors * output_width
    if table.layout is Layout.NSM:
        counters.nsm_tuples_parsed = tuples
        counters.nsm_values_extracted = extracts
    else:
        counters.pax_values_extracted = extracts
    if query.join is not None:
        build = db.catalog.table(query.join.build_table)
        counters.hash_builds = build.tuple_count
        counters.hash_probes = survivors
        counters.pages_parsed += build.page_count
        counters.io_units += (build.page_count + 31) // 32
    if query.select:
        counters.output_values = survivors * len(query.select)
    else:
        counters.aggregate_updates = survivors * len(query.aggregates)
    return counters


def _result_nbytes(db: "Database", query: Query, selectivity: float) -> int:
    table = db.catalog.table(query.table)
    if not query.select:
        return 4096  # aggregates: one frame
    survivors = int(table.tuple_count * selectivity)
    if query.limit is not None and not query.distinct:
        # Device-resident top-N ships at most k tuples over the interface.
        survivors = min(survivors, query.limit)
    width = 0
    build_schema = (db.catalog.table(query.join.build_table).schema
                    if query.join else None)
    for __, expr in query.select:
        nbytes = 8
        for name in expr.columns():
            if table.schema.has_column(name):
                nbytes = table.schema.column(name).nbytes
            elif build_schema is not None and build_schema.has_column(name):
                nbytes = build_schema.column(name).nbytes
        width += nbytes
    return survivors * width


def marginal_shared_counters(counters: WorkCounters) -> WorkCounters:
    """Project a query's counters onto a shared scan's *marginal* cost.

    When the query rides an already-paid-for scan, page setup, I/O units,
    and cold column extraction are charged to the stream; the rider pays
    only its predicates, aggregates, outputs — and cheap cached re-reads of
    the values a co-rider already materialized.
    """
    marginal = WorkCounters()
    marginal.add(counters)
    marginal.cached_values_extracted += (marginal.pax_values_extracted
                                         + marginal.nsm_values_extracted)
    marginal.pax_values_extracted = 0
    marginal.nsm_values_extracted = 0
    marginal.pages_parsed = 0
    marginal.nsm_tuples_parsed = 0
    marginal.io_units = 0
    return marginal


def choose_placement(db: "Database", query: Query,
                     sample_pages: int = SAMPLE_PAGES,
                     shared_riders: int = 0) -> PlacementDecision:
    """Pick the cheaper feasible placement for ``query``.

    ``shared_riders`` is the number of concurrently admitted queries the
    scheduler would co-schedule on the same extent scan. When positive (and
    the query is shareable), the pushdown side is priced at its *marginal*
    cost — the scan's NAND traffic, DRAM crossings, and decode work are
    already paid for by the shared stream — which makes pushdown win in
    almost every shared configuration (§4.3's concurrency concern turned
    into an opportunity).
    """
    table = db.catalog.table(query.table)
    device = db.device(table.device_name)
    selectivity = estimate_selectivity(db, query, sample_pages)
    counters = project_counters(db, query, selectivity)

    data_nbytes = table.page_count * PAGE_SIZE
    tables = [table]
    if query.join is not None:
        build = db.catalog.table(query.join.build_table)
        data_nbytes += build.page_count * PAGE_SIZE
        tables.append(build)

    table_nbytes = (estimated_hash_table_nbytes(
        db.catalog.table(query.join.build_table).heap, query)
        if query.join else 0)
    host_cycles = db.costs.cycles(
        counters, large_hash_table=table_nbytes > db.costs.host_cache_nbytes)
    cached = db.buffer_pool.cached_fraction(
        table.device_name, table.heap.first_lpn, table.heap.page_count)
    host_data = data_nbytes * (1.0 - cached)
    host_job = ScanJobModel(data_nbytes=host_data, touched_nbytes=0,
                            result_nbytes=0, device_raw_cycles=0,
                            host_raw_cycles=host_cycles)
    if isinstance(device, Hdd):
        host_estimate = host_scan_times_hdd(
            host_job, device.spec, db.config.host.cpu).elapsed
    else:
        host_estimate = host_scan_times_ssd(
            host_job, device.spec, db.config.host.cpu).elapsed

    if not isinstance(device, SmartSsd):
        return PlacementDecision("host", "device is not a Smart SSD",
                                 host_estimate, None, selectivity)
    if db.health.is_quarantined(table.device_name):
        return PlacementDecision(
            "host",
            f"device {table.device_name!r} is quarantined after repeated "
            "failures", host_estimate, None, selectivity)
    for t in tables:
        dirty = db.buffer_pool.dirty_lpns(t.device_name)
        extent = range(t.heap.first_lpn,
                       t.heap.first_lpn + t.heap.page_count)
        if dirty.intersection(extent):
            return PlacementDecision(
                "host", f"dirty cached pages of {t.name!r} make pushdown "
                        "unsafe", host_estimate, None, selectivity)

    shared = shared_riders > 0 and query.join is None
    if shared:
        device_cycles = db.costs.cycles(marginal_shared_counters(counters))
        result_nbytes = _result_nbytes(db, query, selectivity)
        smart_job = ScanJobModel(data_nbytes=0, touched_nbytes=0,
                                 result_nbytes=result_nbytes,
                                 device_raw_cycles=device_cycles,
                                 host_raw_cycles=host_cycles)
        smart_estimate = smart_scan_times(smart_job, device.spec,
                                          device.cpu_spec).elapsed
        if smart_estimate < host_estimate:
            return PlacementDecision(
                "smart",
                f"joins a shared scan with {shared_riders} rider(s); "
                f"marginal pushdown cost estimated "
                f"{host_estimate / smart_estimate:.2f}x cheaper",
                host_estimate, smart_estimate, selectivity)
        return PlacementDecision(
            "host",
            "conventional path beats even the shared-scan marginal cost",
            host_estimate, smart_estimate, selectivity)

    # Data skipping is a pushdown-only advantage: the conventional path
    # still drags every page across the interface, while the device scan
    # elides the NAND reads, parsing, and predicate work of pruned pages.
    skip_fraction = (estimate_skip_fraction(db, query)
                     if query.join is None else 0.0)
    keep = 1.0 - skip_fraction
    device_counters = counters
    smart_data_nbytes = data_nbytes
    if skip_fraction > 0.0:
        device_counters = counters.scaled(keep)
        # Units are still dispatched (the statistics check happens inside
        # them), and every page pays a zone-map consultation.
        device_counters.io_units = counters.io_units
        device_counters.zone_map_checks = table.page_count
        device_counters.pages_skipped = int(
            round(table.page_count * skip_fraction))
        smart_data_nbytes = int(data_nbytes * keep)
    device_cycles = db.costs.cycles(
        device_counters,
        large_hash_table=table_nbytes > db.costs.device_cache_nbytes)
    result_nbytes = _result_nbytes(db, query, selectivity)
    touched = sum(
        touched_bytes(t.layout, t.schema,
                      query.probe_side_columns() if t is table
                      else list(t.schema.names)[:2], t.tuple_count)
        for t in tables)
    touched = int(touched * keep)
    smart_job = ScanJobModel(data_nbytes=smart_data_nbytes,
                             touched_nbytes=touched,
                             result_nbytes=result_nbytes,
                             device_raw_cycles=device_cycles,
                             host_raw_cycles=host_cycles)
    smart_estimate = smart_scan_times(smart_job, device.spec,
                                      device.cpu_spec).elapsed

    if smart_estimate < host_estimate:
        detail = (f"; statistics skip ~{skip_fraction:.0%} of pages"
                  if skip_fraction > 0.0 else "")
        return PlacementDecision(
            "smart",
            f"pushdown estimated {host_estimate / smart_estimate:.2f}x "
            f"faster{detail}", host_estimate, smart_estimate, selectivity,
            skip_fraction)
    return PlacementDecision(
        "host",
        f"conventional path estimated "
        f"{smart_estimate / host_estimate:.2f}x faster",
        host_estimate, smart_estimate, selectivity, skip_fraction)
