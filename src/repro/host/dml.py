"""Host-side data modification: UPDATE and dirty-page write-back.

The paper's §4.3: "queries with any updates cannot be processed in the SSD
without appropriate coordination with the DBMS transaction manager", and
pushdown is unsafe while the buffer pool holds pages newer than the device.
This module provides that host-side write path:

* :func:`update_process` — a timed UPDATE, one I/O unit at a time: the
  pages the predicate hits are rewritten in the buffer pool and marked
  dirty (which vetoes pushdown on the table); no other page is decoded
  in full;
* :func:`flush_process` — a timed checkpoint: dirty pages are written back
  through the device's FTL (out-of-place, possibly triggering garbage
  collection), clearing the veto so pushdown becomes safe again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Mapping, Sequence

import numpy as np

from repro.engine.expressions import EvalContext, Expr
from repro.engine.kernels import batch_exact, clamp_free
from repro.errors import PlanError
from repro.model.counters import WorkCounters
from repro.sim import Event
from repro.storage import Schema, UnitColumns, decode_page, encode_page
from repro.storage.heapfile import unit_lpn_runs
from repro.storage.page import PageHeader
from repro.units import IO_UNIT_PAGES

if TYPE_CHECKING:
    from repro.host.catalog import Table
    from repro.host.db import Database


def validate_update(schema: Schema, predicate: Expr | None,
                    assignments: Mapping[str, Any]) -> dict[str, Any]:
    """Check a whole UPDATE before any page is touched; returns the
    assignments with literals coerced. An unknown target or referenced
    column raises CatalogError, an unstorable literal StorageError."""
    exprs = [v for v in (predicate, *assignments.values())
             if isinstance(v, Expr)]
    referenced = set().union(*(expr.columns() for expr in exprs))
    for name in [*assignments, *sorted(referenced)]:
        schema.column_index(name)
    return {name: value if isinstance(value, Expr)
            else schema.column(name).ctype.validate(value)
            for name, value in assignments.items()}


def update_process(db: "Database", table_name: str, predicate: Expr | None,
                   assignments: Mapping[str, Any],
                   io_unit_pages: int = IO_UNIT_PAGES,
                   bump_version: bool = True,
                   counters_out: WorkCounters | None = None,
                   ) -> Generator[Event, None, int]:
    """Timed UPDATE ... SET ... WHERE; returns the number of rows changed.

    ``assignments`` maps column names to either plain values (validated by
    the column type) or :class:`Expr` trees evaluated against the matching
    rows (so ``{"price": Mul(Col("price"), Const(2))}`` works). The whole
    statement passes :func:`validate_update` before any page is read.

    Per I/O unit the predicate runs once over its columns, and each
    right-hand side (RHS) once over the pre-update values of the columns it
    reads on the hit pages; only those pages are decoded in full, patched,
    re-encoded and inserted dirty, in page order. That charges exactly the
    per-page counters when the predicate is ``batch_exact`` and every RHS
    ``clamp_free`` (an RHS runs at ``active`` = hits < rows, where a
    combinator clamps per page); other statements run one-page units.

    ``bump_version=False`` leaves the catalog version bump to the caller
    (the serving layer and the scheduler's write units bump the *logical*
    relation once, after flush). ``counters_out`` accumulates the priced
    work counters for callers that report them (the write units).
    """
    table = db.catalog.table(table_name)
    device = db.device(table.device_name)
    values = validate_update(table.schema, predicate, assignments)
    exact = batch_exact(predicate) and all(
        clamp_free(v) for v in values.values() if isinstance(v, Expr))
    updated = 0
    for lpns in unit_lpn_runs(table.heap, io_unit_pages):
        # Read through the buffer pool (misses hit the device, timed).
        pages: list[bytes] = []
        miss_lpns = [lpn for lpn in lpns
                     if not db.buffer_pool.contains(table.device_name, lpn)]
        fetched = {}
        if miss_lpns:
            data = yield from device.host_read(miss_lpns)
            fetched = dict(zip(miss_lpns, data))
        for lpn in lpns:
            cached = db.buffer_pool.lookup(table.device_name, lpn)
            if cached is None:
                cached = fetched[lpn]
                db.buffer_pool.insert(table.device_name, lpn, cached)
            pages.append(cached)

        counters = WorkCounters()
        counters.io_units += 1
        step = len(lpns) if exact else 1
        for i in range(0, len(lpns), step):
            updated += _update_unit(db, table, predicate, values,
                                    lpns[i:i + step], pages[i:i + step],
                                    counters)
        yield from db.machine.compute(db.costs.cycles(counters))
        if counters_out is not None:
            counters_out.add(counters)
    if updated and bump_version:
        # Any write bumps the relation's content version, making every
        # serving-layer cache entry keyed on the old version unreachable.
        db.catalog.bump_version(table_name)
    return updated


def _update_unit(db: "Database", table: "Table", predicate: Expr | None,
                 values: Mapping[str, Any], lpns: Sequence[int],
                 pages: Sequence[bytes], counters: WorkCounters) -> int:
    """Apply the update to one unit's pages; returns rows changed."""
    schema, layout = table.schema, table.layout
    unit = UnitColumns(schema, pages)
    n = unit.total_rows
    counters.pages_parsed += unit.page_count
    if predicate is None:
        mask = np.ones(n, dtype=bool)
    else:
        ctx = EvalContext(unit.decode(sorted(predicate.columns())), n,
                          counters, layout)
        mask = np.asarray(predicate.evaluate(ctx, n), dtype=bool)
    hits = np.diff(np.concatenate(([0], np.cumsum(mask)))[unit.starts])
    hit_pages = np.flatnonzero(hits)
    if len(hit_pages) == 0:
        return 0
    changed = int(hits.sum())
    mask = mask[np.repeat(hits > 0, unit.counts)]  # rows of hit pages
    reads = set().union(*(value.columns() for value in values.values()
                          if isinstance(value, Expr)))
    ctx = EvalContext(unit.decode(sorted(reads), include=hit_pages),
                      len(mask), counters, layout)
    new = {name: np.broadcast_to(value.evaluate(ctx, changed)
                                 if isinstance(value, Expr) else value,
                                 len(mask))
           for name, value in values.items()}
    counters.output_values += changed * len(new)
    bounds = np.concatenate(([0], np.cumsum(unit.counts[hit_pages])))
    for page, lo, hi in zip(hit_pages, bounds[:-1], bounds[1:]):
        header = PageHeader.decode(pages[page])
        rows = decode_page(schema, pages[page]).copy()
        hit = mask[lo:hi]
        for name, value in new.items():
            rows[name][hit] = value[lo:hi][hit]
        db.buffer_pool.insert(table.device_name, lpns[page], encode_page(
            layout, schema, rows, header.table_id, header.page_index),
            dirty=True)
    return changed


def flush_process(db: "Database", table_name: str,
                  io_unit_pages: int = IO_UNIT_PAGES,
                  ) -> Generator[Event, None, int]:
    """Timed write-back of a table's dirty pages; returns pages flushed.

    After this completes the device holds the current data and pushdown is
    safe again.
    """
    table = db.catalog.table(table_name)
    device = db.device(table.device_name)
    if not hasattr(device, "host_write"):
        raise PlanError(f"device {table.device_name!r} is not writable")
    extent = range(table.heap.first_lpn,
                   table.heap.first_lpn + table.heap.page_count)
    dirty = sorted(db.buffer_pool.dirty_lpns(table.device_name)
                   & set(extent))
    for start in range(0, len(dirty), io_unit_pages):
        lpns = dirty[start:start + io_unit_pages]
        pages = [db.buffer_pool.flush(table.device_name, lpn)
                 for lpn in lpns]
        yield from device.host_write(lpns, pages)
    return len(dirty)
