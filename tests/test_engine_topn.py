"""Tests for the top-N (ORDER BY ... LIMIT) operator."""

import numpy as np
import pytest

from repro.engine import Col, Compare, Const, Placement, Query, run_reference
from repro.engine.kernels import order_and_limit_indexes, top_n_indexes
from repro.errors import PlanError
from repro.host.db import Database
from repro.storage import Column, Int32Type, Layout, Schema


@pytest.fixture
def schema():
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def make_db(schema, rows):
    db = Database()
    db.create_smart_ssd()
    db.create_table("t", schema, Layout.PAX, rows, "smart-ssd")
    return db


def topn_query(n=5, descending=True, predicate=None):
    return Query(table="t", predicate=predicate,
                 select=(("k", Col("k")), ("v", Col("v"))),
                 order_by="v", descending=descending, limit=n)


class TestHelpers:
    def test_top_n_ascending(self):
        values = np.array([5, 1, 9, 3, 7])
        keep = top_n_indexes(values, 2, descending=False)
        assert keep.tolist() == [1, 3]  # values 1 and 3, in row order

    def test_top_n_descending(self):
        values = np.array([5, 1, 9, 3, 7])
        keep = top_n_indexes(values, 2, descending=True)
        assert keep.tolist() == [2, 4]  # values 9 and 7

    def test_top_n_larger_than_input(self):
        keep = top_n_indexes(np.array([2, 1]), 10, descending=False)
        assert keep.tolist() == [0, 1]

    def test_order_and_limit_presentation(self):
        values = np.array([5, 1, 9, 3])
        idx = order_and_limit_indexes(values, 3, descending=True)
        assert values[idx].tolist() == [9, 5, 3]
        idx = order_and_limit_indexes(values, None, descending=False)
        assert values[idx].tolist() == [1, 3, 5, 9]


class TestValidation:
    def test_limit_requires_order_by(self, schema):
        with pytest.raises(PlanError, match="order_by"):
            Query(table="t", select=(("k", Col("k")),), limit=5)

    def test_limit_positive(self, schema):
        with pytest.raises(PlanError):
            Query(table="t", select=(("k", Col("k")),), order_by="k",
                  limit=0)

    def test_order_by_must_be_output(self, schema):
        with pytest.raises(PlanError, match="select outputs"):
            Query(table="t", select=(("k", Col("k")),), order_by="v")

    def test_limit_rejected_for_aggregates(self, schema):
        from repro.engine import AggSpec
        with pytest.raises(PlanError):
            Query(table="t", aggregates=(AggSpec("count", None, "n"),),
                  order_by="n", limit=1)


class TestEndToEnd:
    def make_rows(self, schema, n=5000, seed=13):
        rng = np.random.default_rng(seed)
        rows = np.empty(n, dtype=schema.numpy_dtype())
        rows["k"] = np.arange(n)
        rows["v"] = rng.integers(0, 1_000_000, n)
        return rows

    @pytest.mark.parametrize("placement", ["host", "smart"])
    @pytest.mark.parametrize("descending", [True, False])
    def test_matches_reference(self, schema, placement, descending):
        rows = self.make_rows(schema)
        db = make_db(schema, rows)
        query = topn_query(n=25, descending=descending)
        report = db.execute_placed(query, placement)
        expected = run_reference(query, {"t": schema}, {"t": rows})
        assert np.array_equal(report.rows["v"], expected["v"])
        assert np.array_equal(report.rows["k"], expected["k"])
        assert len(report.rows) == 25

    def test_matches_plain_numpy(self, schema):
        rows = self.make_rows(schema)
        db = make_db(schema, rows)
        report = db.execute_placed(topn_query(n=10, descending=True),
                                   Placement.SMART)
        expected = np.sort(rows["v"])[::-1][:10]
        assert report.rows["v"].tolist() == expected.tolist()

    def test_with_predicate(self, schema):
        rows = self.make_rows(schema)
        db = make_db(schema, rows)
        query = topn_query(n=7, predicate=Compare(Col("k"), "<",
                                                  Const(1000)))
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        assert np.array_equal(host.rows, smart.rows)
        assert (host.rows["k"] < 1000).all()

    def test_order_by_without_limit_sorts_everything(self, schema):
        rows = self.make_rows(schema, n=500)
        db = make_db(schema, rows)
        query = Query(table="t", select=(("v", Col("v")),), order_by="v")
        report = db.execute_placed(query, Placement.SMART)
        assert report.rows["v"].tolist() == sorted(rows["v"].tolist())

    def test_device_ships_only_topn_rows(self, schema):
        """The point of pushing top-N down: a bounded result transfer."""
        rows = self.make_rows(schema, n=50_000)
        db = make_db(schema, rows)
        full = Query(table="t", select=(("v", Col("v")),))
        limited = topn_query(n=10)
        full_run = db.execute_placed(full, Placement.SMART)
        limited_run = db.execute_placed(limited, Placement.SMART)
        # The limited run's interface traffic is dominated by fixed
        # OPEN/GET/CLOSE frames; the full run ships every value.
        assert (limited_run.io.bytes_over_interface
                < full_run.io.bytes_over_interface / 10)

    def test_ties_resolved_identically(self, schema):
        rows = np.empty(4000, dtype=schema.numpy_dtype())
        rows["k"] = np.arange(4000)
        rows["v"] = 42  # all equal: pure tie-breaking test
        db = make_db(schema, rows)
        query = topn_query(n=9, descending=False)
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        expected = run_reference(query, {"t": schema}, {"t": rows})
        assert np.array_equal(host.rows["k"], expected["k"])
        assert np.array_equal(smart.rows["k"], expected["k"])
