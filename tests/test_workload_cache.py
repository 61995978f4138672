"""Workload build cache: hits hand out independent worlds, DML can't poison it.

The cache in ``repro.bench.runners`` shares *page bytes* between databases,
never simulator or buffer-pool state. These tests pin the two invariants the
golden benchmark results depend on: a cached build is indistinguishable from
a fresh one, and mutating one database leaves every later cached build
bit-identical to the original.
"""

import numpy as np
import pytest

from repro.bench.runners import (
    DeviceKind,
    invalidate_workload_cache,
    make_synthetic_db,
    make_tpch_db,
    workload_cache_stats,
)
from repro.engine import Placement
from repro.engine.expressions import Col, Compare, Const
from repro.engine.plans import AggSpec, Query
from repro.storage import Layout


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts and ends with an empty cache."""
    invalidate_workload_cache()
    yield
    invalidate_workload_cache()


def _extent_bytes(db, table_name):
    """The raw page bytes of a table's extent, read untimed."""
    table = db.catalog.table(table_name)
    device = db.device(table.device_name)
    return [device.read_page_direct(lpn)
            for lpn in range(table.heap.first_lpn,
                             table.heap.first_lpn + table.heap.page_count)]


def _count_query(table):
    return Query(table=table,
                 aggregates=(AggSpec("count", None, "n"),),
                 name="count")


def test_cache_hit_returns_equivalent_world():
    before = dict(workload_cache_stats)
    db1 = make_tpch_db(DeviceKind.SSD, Layout.PAX)
    assert workload_cache_stats["misses"] == before["misses"] + 2
    db2 = make_tpch_db(DeviceKind.SSD, Layout.PAX)
    assert workload_cache_stats["hits"] == before["hits"] + 2

    # Identical on-device bytes...
    assert _extent_bytes(db1, "lineitem") == _extent_bytes(db2, "lineitem")
    assert _extent_bytes(db1, "part") == _extent_bytes(db2, "part")
    # ...but fully independent simulated worlds.
    assert db1.sim is not db2.sim
    assert db1.buffer_pool is not db2.buffer_pool
    assert db1.catalog is not db2.catalog


def test_cached_build_runs_bit_identical_to_fresh_build():
    query = _count_query("synthetic64_s")
    fresh = make_synthetic_db(DeviceKind.SMART, Layout.PAX)
    report_fresh = fresh.execute_placed(query, Placement.SMART)

    cached = make_synthetic_db(DeviceKind.SMART, Layout.PAX)
    report_cached = cached.execute_placed(query, Placement.SMART)

    assert report_cached.elapsed_seconds == report_fresh.elapsed_seconds
    assert report_cached.counters == report_fresh.counters


def test_query_on_one_db_does_not_touch_another():
    db1 = make_tpch_db(DeviceKind.SSD, Layout.NSM)
    db2 = make_tpch_db(DeviceKind.SSD, Layout.NSM)
    db1.execute_placed(_count_query("lineitem"), Placement.HOST)
    assert db1.sim.now > 0.0
    assert db2.sim.now == 0.0


def test_dml_on_cached_db_leaves_cache_pristine():
    db1 = make_tpch_db(DeviceKind.SSD, Layout.PAX)
    pristine = _extent_bytes(db1, "lineitem")

    changed = db1.update_rows("lineitem",
                              Compare(Col("l_quantity"), "<", Const(1000)),
                              {"l_quantity": 4900})
    assert changed > 0
    db1.flush_table("lineitem")
    mutated = _extent_bytes(db1, "lineitem")
    assert mutated != pristine  # the DML really landed on db1's device

    # A later cached build still hands out the original bytes.
    db2 = make_tpch_db(DeviceKind.SSD, Layout.PAX)
    assert _extent_bytes(db2, "lineitem") == pristine


def test_invalidate_drops_one_table_or_everything():
    make_tpch_db(DeviceKind.SSD, Layout.PAX)
    make_tpch_db(DeviceKind.SSD, Layout.NSM)
    assert invalidate_workload_cache("lineitem") == 2  # one per layout
    assert invalidate_workload_cache("lineitem") == 0

    before = dict(workload_cache_stats)
    make_tpch_db(DeviceKind.SSD, Layout.PAX)  # lineitem rebuilds, part hits
    assert workload_cache_stats["misses"] == before["misses"] + 1
    assert workload_cache_stats["hits"] == before["hits"] + 1

    assert invalidate_workload_cache() > 0
    assert invalidate_workload_cache() == 0


def test_cached_rows_are_frozen():
    db = make_synthetic_db(DeviceKind.SSD, Layout.PAX)
    from repro.bench.runners import _WORKLOAD_CACHE
    for __, rows, pages, __stats in _WORKLOAD_CACHE.values():
        assert rows.flags.writeable is False
        assert all(isinstance(p, bytes) for p in pages)
    with pytest.raises(ValueError):
        next(iter(_WORKLOAD_CACHE.values()))[1][0] = 0
    assert db.catalog.table("synthetic64_s").tuple_count > 0
