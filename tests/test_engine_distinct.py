"""Tests for SELECT DISTINCT support."""

import numpy as np
import pytest

from repro.engine import AggSpec, Col, Compare, Const, Query, run_reference
from repro.engine.kernels import distinct_indexes
from repro.engine.plans import Placement
from repro.errors import PlanError
from repro.host.db import Database
from repro.storage import Column, Int32Type, Layout, Schema
from repro.storage.layout import tuples_per_page


@pytest.fixture
def schema():
    return Schema([Column("a", Int32Type()), Column("b", Int32Type())])


def make_db(schema, rows):
    db = Database()
    db.create_smart_ssd()
    db.create_table("t", schema, Layout.PAX, rows, "smart-ssd")
    return db


def make_rows(schema, n=4000, a_card=7, b_card=3, seed=2):
    rng = np.random.default_rng(seed)
    rows = np.empty(n, dtype=schema.numpy_dtype())
    rows["a"] = rng.integers(0, a_card, n)
    rows["b"] = rng.integers(0, b_card, n)
    return rows


class TestHelper:
    def test_single_column_first_occurrence(self):
        cols = {"x": np.array([3, 1, 3, 2, 1])}
        keep = distinct_indexes(cols, ["x"])
        assert keep.tolist() == [0, 1, 3]

    def test_multi_column(self):
        cols = {"x": np.array([1, 1, 2, 1]),
                "y": np.array([9, 9, 9, 8])}
        keep = distinct_indexes(cols, ["x", "y"])
        assert keep.tolist() == [0, 2, 3]

    def test_empty(self):
        assert len(distinct_indexes({"x": np.empty(0, dtype=np.int64)},
                                    ["x"])) == 0


class TestValidation:
    def test_distinct_requires_select(self):
        with pytest.raises(PlanError):
            Query(table="t", aggregates=(AggSpec("count", None, "n"),),
                  distinct=True)


class TestEndToEnd:
    @pytest.mark.parametrize("placement", ["host", "smart"])
    def test_matches_reference(self, schema, placement):
        rows = make_rows(schema)
        db = make_db(schema, rows)
        query = Query(table="t", distinct=True,
                      select=(("a", Col("a")), ("b", Col("b"))))
        report = db.execute_placed(query, placement)
        expected = run_reference(query, {"t": schema}, {"t": rows})
        assert np.array_equal(report.rows["a"], expected["a"])
        assert np.array_equal(report.rows["b"], expected["b"])
        # 7 x 3 possible combinations, all present in 4000 rows.
        assert len(report.rows) == 21

    def test_distinct_single_column(self, schema):
        rows = make_rows(schema)
        db = make_db(schema, rows)
        query = Query(table="t", distinct=True, select=(("b", Col("b")),))
        report = db.execute_placed(query, Placement.SMART)
        assert sorted(report.rows["b"].tolist()) == [0, 1, 2]

    def test_distinct_with_order_and_limit(self, schema):
        rows = make_rows(schema)
        db = make_db(schema, rows)
        query = Query(table="t", distinct=True,
                      select=(("a", Col("a")),),
                      order_by="a", descending=True, limit=3)
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        assert host.rows["a"].tolist() == [6, 5, 4]
        assert np.array_equal(host.rows, smart.rows)

    def test_distinct_with_predicate(self, schema):
        rows = make_rows(schema)
        db = make_db(schema, rows)
        query = Query(table="t", distinct=True,
                      predicate=Compare(Col("a"), "<", Const(2)),
                      select=(("a", Col("a")), ("b", Col("b"))))
        report = db.execute_placed(query, Placement.SMART)
        assert len(report.rows) == 6  # 2 x 3 combinations
        assert (report.rows["a"] < 2).all()

    def test_distinct_shrinks_device_transfer(self, schema):
        """Page-local dedupe bounds what crosses the interface."""
        rows = make_rows(schema, n=60_000)
        db = make_db(schema, rows)
        plain = Query(table="t", select=(("a", Col("a")), ("b", Col("b"))))
        deduped = Query(table="t", distinct=True,
                        select=(("a", Col("a")), ("b", Col("b"))))
        plain_run = db.execute_placed(plain, Placement.SMART)
        deduped_run = db.execute_placed(deduped, Placement.SMART)
        assert (deduped_run.io.bytes_over_interface
                < plain_run.io.bytes_over_interface / 5)
        assert deduped_run.counters.distinct_candidates == 60_000

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP 'Tier-1 must be green every time': the tie order of "
        "DISTINCT ... ORDER BY ... DESC LIMIT k is not defined once; the "
        "per-page truncate-then-merge picks a different row among the "
        "ties than engine.reference. Flip this when the tie order lands."))
    @pytest.mark.parametrize("placement", ["host", "smart"])
    def test_descending_top_n_tie_matches_reference(self, schema, placement):
        """Two NSM pages tied on the maximal ``a``: (7, 0), (7, 1) on the
        first, (7, 0) again on the second."""
        per_page = tuples_per_page(Layout.NSM, schema)
        rows = np.zeros(per_page + 1, dtype=schema.numpy_dtype())
        rows[0], rows[1], rows[per_page] = (7, 0), (7, 1), (7, 0)
        db = Database()
        db.create_smart_ssd()
        table = db.create_table("t", schema, Layout.NSM, rows, "smart-ssd")
        assert table.page_count == 2
        query = Query(table="t", distinct=True, order_by="a",
                      descending=True, limit=1,
                      select=(("a", Col("a")), ("b", Col("b"))))
        expected = run_reference(query, {"t": schema}, {"t": rows})
        report = db.execute_placed(query, placement)
        assert report.rows["b"].tolist() == expected["b"].tolist()
