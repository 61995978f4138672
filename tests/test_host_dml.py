"""Tests for the UPDATE / flush write path and its pushdown interaction."""

import numpy as np
import pytest

from repro.engine import AggSpec, Col, Compare, Const, Mul, Placement, Query
from repro.errors import PlanError
from repro.host.db import Database
from repro.storage import Column, Int32Type, Layout, Schema


@pytest.fixture
def schema():
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def make_db(schema, n=3000, layout=Layout.PAX):
    db = Database()
    db.create_smart_ssd()
    rows = np.empty(n, dtype=schema.numpy_dtype())
    rows["k"] = np.arange(n)
    rows["v"] = np.arange(n) % 100
    db.create_table("t", schema, layout, rows, "smart-ssd")
    return db


def sum_query():
    return Query(table="t", aggregates=(AggSpec("sum", Col("v"), "s"),))


@pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
class TestUpdate:
    def test_constant_assignment(self, schema, layout):
        db = make_db(schema, layout=layout)
        changed = db.update_rows("t", Compare(Col("k"), "<", Const(10)),
                                 {"v": 777})
        assert changed == 10
        report = db.execute_placed(Query(
            table="t", predicate=Compare(Col("v"), "==", Const(777)),
            aggregates=(AggSpec("count", None, "n"),)), Placement.HOST)
        assert report.rows[0]["n"] == 10

    def test_expression_assignment_sees_pre_update_values(self, schema,
                                                          layout):
        db = make_db(schema, n=100, layout=layout)
        before = db.execute_placed(sum_query(), Placement.HOST).rows[0]["s"]
        changed = db.update_rows("t", None,
                                 {"v": Mul(Col("v"), Const(2))})
        assert changed == 100
        after = db.execute_placed(sum_query(), Placement.HOST).rows[0]["s"]
        assert after == 2 * before

    def test_update_without_predicate_touches_everything(self, schema,
                                                         layout):
        db = make_db(schema, n=500, layout=layout)
        assert db.update_rows("t", None, {"v": 1}) == 500

    def test_update_advances_clock(self, schema, layout):
        db = make_db(schema, layout=layout)
        t0 = db.sim.now
        db.update_rows("t", None, {"v": 0})
        assert db.sim.now > t0

    def test_unknown_column_rejected(self, schema, layout):
        db = make_db(schema, layout=layout)
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            db.update_rows("t", None, {"nope": 1})


class TestPushdownCoherence:
    """The full §4.3 story: update -> veto -> flush -> pushdown again."""

    def test_lifecycle(self, schema):
        db = make_db(schema)
        query = sum_query()
        clean = db.execute_placed(query, Placement.SMART).rows[0]["s"]

        db.update_rows("t", Compare(Col("k"), "<", Const(100)), {"v": 0})
        # Dirty pages: pushdown must refuse (the device copy is stale).
        with pytest.raises(PlanError, match="dirty"):
            db.execute_placed(query, Placement.SMART)
        # The host path reads through the buffer pool and sees the update.
        host_after = db.execute_placed(query, Placement.HOST).rows[0]["s"]
        assert host_after < clean

        flushed = db.flush_table("t")
        assert flushed > 0
        # Now the device is current: pushdown works and agrees.
        smart_after = db.execute_placed(query, Placement.SMART).rows[0]["s"]
        assert smart_after == host_after

    def test_optimizer_respects_veto_and_flush(self, schema):
        from repro.host.optimizer import choose_placement
        db = make_db(schema)
        db.update_rows("t", None, {"v": 3})
        decision = choose_placement(db, sum_query())
        assert decision.placement == "host"
        assert "dirty" in decision.reason
        db.flush_table("t")
        decision = choose_placement(db, sum_query())
        assert "dirty" not in decision.reason

    def test_flush_writes_through_ftl(self, schema):
        db = make_db(schema)
        device = db.device("smart-ssd")
        host_writes_before = device.ftl.stats.host_writes
        db.update_rows("t", None, {"v": 9})
        flushed = db.flush_table("t")
        assert device.ftl.stats.host_writes == host_writes_before + flushed

    def test_flush_clean_table_is_noop(self, schema):
        db = make_db(schema)
        assert db.flush_table("t") == 0

    def test_repeated_update_flush_cycles(self, schema):
        """Sustained update/flush churn keeps data correct even once the
        FTL starts garbage-collecting."""
        db = make_db(schema, n=2000)
        query = sum_query()
        for value in (1, 2, 3, 4, 5):
            db.update_rows("t", None, {"v": value})
            db.flush_table("t")
            report = db.execute_placed(query, Placement.SMART)
            assert report.rows[0]["s"] == 2000 * value
