"""Tests for the UPDATE / flush write path and its pushdown interaction."""

import numpy as np
import pytest

from repro.api import Session
from repro.engine import (
    Add,
    AggSpec,
    And,
    Col,
    Compare,
    Const,
    Mul,
    Placement,
    Query,
    and_all,
)
from repro.errors import CatalogError, PlanError, StorageError
from repro.host import dml
from repro.host.db import Database
from repro.storage import Column, Int32Type, Layout, Schema
from repro.storage.layout import tuples_per_page


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


class TestValidation:
    """A whole UPDATE is checked before any page is read."""

    def test_bad_literal_rejected_when_nothing_matches(self, schema):
        session = Session(make_db(schema))
        with pytest.raises(StorageError):
            session.update("t", Compare(Col("k"), "<", Const(-1)),
                           {"v": "abc"})

    def test_rejected_update_reads_nothing(self, schema):
        db = make_db(schema)
        t0 = db.sim.now
        with pytest.raises(StorageError):
            db.update_rows("t", None, {"v": 2**40})
        assert db.sim.now == t0
        heap = db.catalog.table("t").heap
        assert db.buffer_pool.cached_fraction(
            "smart-ssd", heap.first_lpn, heap.page_count) == 0

    def test_unknown_predicate_column_rejected(self, schema):
        db = make_db(schema)
        with pytest.raises(CatalogError):
            db.update_rows("t", Compare(Col("nope"), "<", Const(1)),
                           {"v": 1})

    @pytest.mark.parametrize("predicate,assignments,error", [
        (None, {"v": Add(Col("nope"), Const(1))}, CatalogError),
        (Compare(Col("nope"), "<", Const(1)), {"v": 1}, CatalogError),
        (None, {"v": "abc"}, StorageError),
    ], ids=["rhs-column", "predicate-column", "literal"])
    def test_submit_update_rejects_at_submit(self, schema, predicate,
                                             assignments, error):
        session = Session(make_db(schema))
        with pytest.raises(error):
            session.submit_update("t", predicate, assignments)
        assert session.scheduler.write_submissions == []


@pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
@pytest.mark.parametrize("nested", ["left", "right"])
def test_update_decodes_only_hit_pages(schema, layout, nested, monkeypatch):
    """Three hit pages (across a unit boundary) out of 40: the full-page
    decoder and encoder run three times each, whatever the predicate's
    nesting."""
    cap = tuples_per_page(layout, schema)
    db = make_db(schema, n=40 * cap, layout=layout)
    lo, hi = 31 * cap + 7, 33 * cap + 1       # pages 31, 32 and 33
    ge = Compare(Col("k"), ">=", Const(lo))
    lt = Compare(Col("k"), "<", Const(hi))
    predicate = (and_all([ge, lt]) if nested == "left"
                 else And(ge, And(lt, Compare(Col("v"), ">=", Const(0)))))
    calls = {"decode": 0, "encode": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dml, "decode_page",
                        counting("decode", dml.decode_page))
    monkeypatch.setattr(dml, "encode_page",
                        counting("encode", dml.encode_page))
    assert db.update_rows("t", predicate, {"v": 5}) == hi - lo
    assert calls == {"decode": 3, "encode": 3}
    assert len(db.buffer_pool.dirty_lpns("smart-ssd")) == 3
