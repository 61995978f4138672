"""Unit/integration tests for executor edge cases and concurrency."""

import numpy as np
import pytest

from repro.api import Session
from repro.engine import AggSpec, Col, Compare, Const, JoinSpec, Query
from repro.engine.plans import Placement
from repro.errors import PlanError, ProtocolError
from repro.host.db import Database
from repro.sched import SchedulerConfig
from repro.storage import Column, Int32Type, Layout, Schema


@pytest.fixture
def schema():
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def make_db(schema, n=5000, device="smart"):
    db = Database()
    if device == "smart":
        db.create_smart_ssd()
        name = "smart-ssd"
    else:
        db.create_ssd()
        name = "sas-ssd"
    rng = np.random.default_rng(5)
    rows = np.empty(n, dtype=schema.numpy_dtype())
    rows["k"] = np.arange(n)
    rows["v"] = rng.integers(0, 100, n)
    db.create_table("t", schema, Layout.PAX, rows, name)
    return db


def count_query(predicate=None):
    return Query(table="t", predicate=predicate,
                 aggregates=(AggSpec("count", None, "n"),))


class TestPlacementRules:
    def test_smart_on_plain_ssd_rejected(self, schema):
        db = make_db(schema, device="ssd")
        with pytest.raises(PlanError, match="not a Smart SSD"):
            db.execute_placed(count_query(), Placement.SMART)

    def test_unknown_placement_rejected(self, schema):
        db = make_db(schema)
        with pytest.raises(PlanError):
            db.execute_placed(count_query(), placement="quantum")

    def test_dirty_page_vetoes_pushdown(self, schema):
        db = make_db(schema)
        table = db.catalog.table("t")
        lpn = table.heap.first_lpn
        db.buffer_pool.insert("smart-ssd", lpn,
                              db.device("smart-ssd").read_page_direct(lpn),
                              dirty=True)
        with pytest.raises(PlanError, match="dirty"):
            db.execute_placed(count_query(), Placement.SMART)
        # The conventional path still works.
        report = db.execute_placed(count_query(), Placement.HOST)
        assert report.rows[0]["n"] == 5000


class TestBufferPoolInteraction:
    def test_second_host_run_hits_cache(self, schema):
        db = make_db(schema)
        cold = db.execute_placed(count_query(), Placement.HOST)
        warm = db.execute_placed(count_query(), Placement.HOST)
        assert cold.io.buffer_pool_hits == 0
        assert warm.io.buffer_pool_misses == 0
        assert warm.io.buffer_pool_hits == cold.io.buffer_pool_misses
        # No device I/O on the warm run => faster.
        assert warm.elapsed_seconds < cold.elapsed_seconds
        assert warm.io.pages_read_device == 0

    def test_smart_run_does_not_populate_cache(self, schema):
        db = make_db(schema)
        db.execute_placed(count_query(), Placement.SMART)
        assert len(db.buffer_pool) == 0


class TestIoUnitAndWindow:
    def test_custom_io_unit_pages(self, schema):
        db = make_db(schema, n=120_000)  # ~119 pages: many I/O units
        a = db.execute_placed(count_query(), Placement.SMART, io_unit_pages=8)
        db2 = make_db(schema, n=120_000)
        b = db2.execute_placed(count_query(), Placement.SMART,
                               io_unit_pages=32)
        assert a.rows == b.rows
        # Smaller units submit more commands (the per-command firmware
        # overhead this charges dominates at paper scale — benchmark A3
        # asserts the elapsed-time monotonicity there).
        assert a.counters.io_units > b.counters.io_units
        assert a.counters.pages_parsed == b.counters.pages_parsed

    def test_window_one_still_correct(self, schema):
        db = make_db(schema)
        report = db.execute_placed(count_query(), Placement.SMART, window=1)
        assert report.rows[0]["n"] == 5000


class TestConcurrentExecution:
    """Batches through the session's scheduler, scan sharing off so every
    query runs (and contends with) its own device scan."""

    def run_batch(self, db, runs):
        session = Session(db, SchedulerConfig(share_scans=False))
        for query, placement in runs:
            session.submit(query, placement)
        return session.gather()

    def test_results_all_correct(self, schema):
        reports = self.run_batch(make_db(schema),
                                 [(count_query(), Placement.SMART)] * 3)
        assert len(reports) == 3
        for report in reports:
            assert report.rows[0]["n"] == 5000

    def test_mixed_placements(self, schema):
        reports = self.run_batch(make_db(schema), [
            (count_query(), Placement.SMART),
            (count_query(), Placement.HOST),
        ])
        assert reports[0].rows == reports[1].rows

    def test_contention_stretches_window(self, schema):
        solo = make_db(schema).execute_placed(count_query(), Placement.SMART)
        batch = self.run_batch(make_db(schema),
                               [(count_query(), Placement.SMART)] * 3)
        window = max(r.elapsed_seconds for r in batch)
        assert window > solo.elapsed_seconds
        # ...but sharing beats running them back to back.
        assert window < 3 * solo.elapsed_seconds

    def test_energy_attached_to_batch(self, schema):
        reports = self.run_batch(make_db(schema),
                                 [(count_query(), Placement.SMART)] * 2)
        assert reports[0].energy is not None
        assert reports[0].energy.entire_system_j > 0


class TestEmptyAndEdgeQueries:
    def test_empty_table_aggregate(self, schema):
        db = Database()
        db.create_smart_ssd()
        db.create_table("t", schema, Layout.PAX, schema.empty_array(),
                        "smart-ssd")
        for placement in ("host", "smart"):
            report = db.execute_placed(count_query(), placement)
            assert report.rows[0]["n"] == 0

    def test_select_with_no_matches(self, schema):
        db = make_db(schema)
        query = Query(table="t",
                      predicate=Compare(Col("v"), ">", Const(1_000_000)),
                      select=(("k", Col("k")),))
        for placement in ("host", "smart"):
            report = db.execute_placed(query, placement)
            assert len(report.rows) == 0

    def test_join_tables_must_share_device(self, schema):
        db = Database()
        db.create_smart_ssd()
        from repro.smart.device import SmartSsdSpec
        db.create_smart_ssd(SmartSsdSpec(name="smart-ssd-2"))
        db.create_table("fact", schema, Layout.PAX, [(1, 2)], "smart-ssd")
        db.create_table("dim", schema, Layout.PAX, [(1, 9)], "smart-ssd-2")
        query = Query(
            table="fact",
            join=JoinSpec(build_table="dim", build_key="k",
                          probe_key="k", payload=("v",)),
            select=(("v", Col("v")),),
        )
        with pytest.raises(PlanError, match="same device"):
            db.execute_placed(query, Placement.SMART)

    def test_oversized_hash_table_fails_cleanly(self, schema):
        """A build side that exceeds device DRAM surfaces as a protocol
        error — the paper's 'hash table fits in memory' precondition."""
        from repro.smart.device import SmartSsdSpec
        from repro.units import MIB
        db = Database()
        db.create_smart_ssd(SmartSsdSpec(dram_nbytes=80 * MIB,
                                         dram_reserved_nbytes=64 * MIB))
        rng = np.random.default_rng(1)
        # 16 MiB usable DRAM minus the 8 MiB result buffer leaves 8 MiB;
        # 400k entries x (4+4+24) B ~ 12.8 MB will not fit.
        n = 400_000
        fact = np.empty(100, dtype=schema.numpy_dtype())
        fact["k"] = np.arange(100)
        fact["v"] = 1
        dim = np.empty(n, dtype=schema.numpy_dtype())
        dim["k"] = np.arange(n)
        dim["v"] = rng.integers(0, 10, n)
        db.create_table("fact", schema, Layout.PAX, fact, "smart-ssd")
        db.create_table("dim", schema, Layout.PAX, dim, "smart-ssd")
        query = Query(
            table="fact",
            join=JoinSpec(build_table="dim", build_key="k",
                          probe_key="k", payload=("v",)),
            select=(("v", Col("v")),),
        )
        with pytest.raises(ProtocolError, match="DRAM"):
            db.execute_placed(query, Placement.SMART)
        # The same join is fine on the host.
        report = db.execute_placed(query, Placement.HOST)
        assert len(report.rows) == 100
