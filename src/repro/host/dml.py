"""Host-side data modification: UPDATE and dirty-page write-back.

The paper's §4.3: "queries with any updates cannot be processed in the SSD
without appropriate coordination with the DBMS transaction manager", and
pushdown is unsafe while the buffer pool holds pages newer than the device.
This module provides that host-side write path:

* :func:`update_process` — a timed UPDATE: qualifying pages are read
  through the buffer pool, tuples are rewritten in place, and the cached
  pages are marked dirty (which vetoes pushdown on the table);
* :func:`flush_process` — a timed checkpoint: dirty pages are written back
  through the device's FTL (out-of-place, possibly triggering garbage
  collection), clearing the veto so pushdown becomes safe again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Mapping

import numpy as np

from repro.engine.expressions import EvalContext, Expr
from repro.errors import CatalogError, PlanError
from repro.model.counters import WorkCounters
from repro.sim import Event
from repro.storage import decode_page, encode_page
from repro.storage.heapfile import unit_lpn_runs
from repro.storage.page import PageHeader
from repro.units import IO_UNIT_PAGES

if TYPE_CHECKING:
    from repro.host.db import Database


def update_process(db: "Database", table_name: str, predicate: Expr | None,
                   assignments: Mapping[str, Any],
                   io_unit_pages: int = IO_UNIT_PAGES,
                   bump_version: bool = True,
                   counters_out: WorkCounters | None = None,
                   ) -> Generator[Event, None, int]:
    """Timed UPDATE ... SET ... WHERE; returns the number of rows changed.

    ``assignments`` maps column names to either plain values (validated by
    the column type) or :class:`Expr` trees evaluated against the matching
    rows (so ``{"price": Mul(Col("price"), Const(2))}`` works).

    ``bump_version=False`` leaves the catalog version bump to the caller
    (the serving layer and the scheduler's write units bump the *logical*
    relation once, after flush). ``counters_out`` accumulates the priced
    work counters for callers that report them (the write units).
    """
    table = db.catalog.table(table_name)
    device = db.device(table.device_name)
    schema = table.schema
    for name in assignments:
        schema.column_index(name)  # validate early

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
        for lpn, page in zip(lpns, pages):
            header = PageHeader.decode(page)
            rows = decode_page(schema, page).copy()
            n = header.tuple_count
            counters.pages_parsed += 1
            # SQL semantics: every RHS sees the pre-update row, so the
            # evaluation context snapshots the columns before mutation.
            ctx = EvalContext(
                {name: rows[name].copy() for name in schema.names},
                n, counters, table.layout)
            if predicate is not None:
                mask = np.asarray(predicate.evaluate(ctx, n), dtype=bool)
            else:
                mask = np.ones(n, dtype=bool)
            hit_count = int(mask.sum())
            if hit_count == 0:
                continue
            for name, value in assignments.items():
                column = schema.column(name)
                if isinstance(value, Expr):
                    values = np.asarray(value.evaluate(ctx, hit_count))
                    if values.ndim == 0:
                        values = np.full(n, values)
                    rows[name][mask] = values[mask]
                else:
                    rows[name][mask] = column.ctype.validate(value)
                counters.output_values += hit_count
            new_page = encode_page(table.layout, schema, rows,
                                   table_id=header.table_id,
                                   page_index=header.page_index)
            db.buffer_pool.insert(table.device_name, lpn, new_page,
                                  dirty=True)
            updated += hit_count
        yield from db.machine.compute(db.costs.cycles(counters))
        if counters_out is not None:
            counters_out.add(counters)
    if updated and bump_version:
        # Any write bumps the relation's content version, making every
        # serving-layer cache entry keyed on the old version unreachable.
        db.catalog.bump_version(table_name)
    return updated


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
