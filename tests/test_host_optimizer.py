"""Unit tests for the cost-based pushdown optimizer and plan explain."""

import numpy as np
import pytest

from repro.engine import AggSpec, Col, Compare, Const, Placement, Query
from repro.host.db import Database
from repro.host.optimizer import (
    choose_placement,
    estimate_selectivity,
    project_counters,
)
from repro.host.planner import explain
from repro.storage import Column, Int32Type, Layout, Schema
from repro.workloads import (
    generate_synthetic64_r,
    generate_synthetic64_s,
    synthetic64_r_schema,
    synthetic64_s_schema,
    synthetic_join_query,
)


@pytest.fixture
def wide_db():
    """A Smart SSD with a wide table where pushdown genuinely wins."""
    db = Database()
    db.create_smart_ssd()
    schema = Schema([Column(f"c{i}", Int32Type()) for i in range(1, 65)])
    rng = np.random.default_rng(3)
    n = 60_000
    rows = np.empty(n, dtype=schema.numpy_dtype())
    for i in range(1, 65):
        rows[f"c{i}"] = rng.integers(0, 1000, n)
    db.create_table("wide", schema, Layout.PAX, rows, "smart-ssd")
    return db


def wide_agg_query(threshold=10):
    return Query(table="wide",
                 predicate=Compare(Col("c1"), "<", Const(threshold)),
                 aggregates=(AggSpec("sum", Col("c2"), "s"),))


class TestSelectivityEstimation:
    def test_sampled_estimate_tracks_truth(self, wide_db):
        for threshold, expected in ((10, 0.01), (500, 0.5), (1000, 1.0)):
            estimate = estimate_selectivity(wide_db,
                                            wide_agg_query(threshold))
            assert estimate == pytest.approx(expected, abs=0.06)

    def test_no_predicate_means_everything(self, wide_db):
        query = Query(table="wide",
                      aggregates=(AggSpec("count", None, "n"),))
        assert estimate_selectivity(wide_db, query) == 1.0


class TestProjectedCounters:
    def test_counters_scale_with_table(self, wide_db):
        counters = project_counters(wide_db, wide_agg_query(), 0.01)
        table = wide_db.catalog.table("wide")
        assert counters.pages_parsed == table.page_count
        assert counters.predicates_evaluated > 0
        assert counters.aggregate_updates == int(
            table.tuple_count * 0.01) * 1

    def test_join_counters_include_build(self):
        db = Database()
        db.create_smart_ssd()
        r = generate_synthetic64_r(5e-4)
        s = generate_synthetic64_s(5e-4, len(r))
        db.create_table("synthetic64_r", synthetic64_r_schema(), Layout.PAX,
                        r, "smart-ssd")
        db.create_table("synthetic64_s", synthetic64_s_schema(), Layout.PAX,
                        s, "smart-ssd")
        counters = project_counters(db, synthetic_join_query(10), 0.1)
        assert counters.hash_builds == len(r)
        assert counters.hash_probes == int(len(s) * 0.1)


class TestDecisions:
    def test_pushes_down_wide_selective_aggregate(self, wide_db):
        decision = choose_placement(wide_db, wide_agg_query())
        assert decision.placement == "smart"
        assert decision.smart_estimate_seconds is not None
        assert (decision.smart_estimate_seconds
                < decision.host_estimate_seconds)

    def test_plain_ssd_forces_host(self):
        db = Database()
        db.create_ssd()
        schema = Schema([Column("a", Int32Type())])
        db.create_table("t", schema, Layout.NSM, [(1,), (2,)], "sas-ssd")
        query = Query(table="t", aggregates=(AggSpec("count", None, "n"),))
        decision = choose_placement(db, query)
        assert decision.placement == "host"
        assert "not a Smart SSD" in decision.reason

    def test_dirty_pages_veto_pushdown(self, wide_db):
        table = wide_db.catalog.table("wide")
        lpn = table.heap.first_lpn
        page = wide_db.device("smart-ssd").read_page_direct(lpn)
        wide_db.buffer_pool.insert("smart-ssd", lpn, page, dirty=True)
        decision = choose_placement(wide_db, wide_agg_query())
        assert decision.placement == "host"
        assert "dirty" in decision.reason

    def test_hot_cache_flips_to_host(self, wide_db):
        query = wide_agg_query()
        cold = choose_placement(wide_db, query)
        assert cold.placement == "smart"
        wide_db.execute_placed(query, Placement.HOST)  # warms the buffer pool
        hot = choose_placement(wide_db, query)
        assert hot.placement == "host"

    def test_auto_placement_runs(self, wide_db):
        report = wide_db.execute_placed(wide_agg_query(), Placement.AUTO)
        assert report.placement == "smart"
        assert report.rows[0]["s"] >= 0


class TestExplain:
    def test_smart_plan_shows_protocol_and_device_operators(self, wide_db):
        text = explain(wide_db, wide_agg_query(), placement="smart")
        assert "OPEN session" in text
        assert "program='aggregate'" in text
        assert "DEVICE: aggregate" in text
        assert "scan wide" in text

    def test_host_plan_has_no_protocol(self, wide_db):
        text = explain(wide_db, wide_agg_query(), placement="host")
        assert "OPEN" not in text
        assert "buffer pool" in text
        assert "HOST: aggregate" in text

    def test_join_plan_shows_both_sides(self):
        db = Database()
        db.create_smart_ssd()
        r = generate_synthetic64_r(5e-4)
        s = generate_synthetic64_s(5e-4, len(r))
        db.create_table("synthetic64_r", synthetic64_r_schema(), Layout.PAX,
                        r, "smart-ssd")
        db.create_table("synthetic64_s", synthetic64_s_schema(), Layout.PAX,
                        s, "smart-ssd")
        text = explain(db, synthetic_join_query(1), placement="smart")
        assert "hash join" in text
        assert "probe:" in text
        assert "build:" in text
        assert "program='hash_join'" in text
