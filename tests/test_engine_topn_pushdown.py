"""Device-resident top-N pushdown: golden differentials against the host.

The device folds ``ORDER BY ... LIMIT k`` into a bounded candidate pool
inside the scan and ships one O(k) frame, instead of the full qualifying
set. Every test here holds the device to bit-identity with the host path
(same rows, same dtypes, same tie resolution) — the operator is an
interface-traffic optimization, never a semantics change.
"""

import numpy as np
import pytest

from repro.engine import Col, Compare, Const, Placement, Query, run_reference
from repro.engine.kernels import TopNState
from repro.host.db import Database
from repro.storage import (
    CharType,
    Column,
    Int32Type,
    Layout,
    Schema,
    StatsConfig,
)

SCHEMA = Schema([Column("k", Int32Type()), Column("v", Int32Type())])

#: Narrow value domain: heavy ties, so tie resolution is actually tested.
VALUE_DOMAIN = 50


def make_rows(n=3000, seed=29):
    rng = np.random.default_rng(seed)
    rows = np.empty(n, dtype=SCHEMA.numpy_dtype())
    rows["k"] = np.arange(n)
    rows["v"] = rng.integers(0, VALUE_DOMAIN, n)
    return rows


def make_db(rows, layout=Layout.PAX, stats_config=StatsConfig()):
    db = Database()
    db.create_smart_ssd()
    db.create_table("t", SCHEMA, layout, rows, "smart-ssd",
                    stats_config=stats_config)
    return db


def topn_query(limit, descending=False, predicate=None, distinct=False):
    return Query(table="t", predicate=predicate, distinct=distinct,
                 select=(("k", Col("k")), ("v", Col("v"))),
                 order_by="v", descending=descending, limit=limit)


def assert_bit_identical(smart_rows, host_rows):
    for name in ("k", "v"):
        assert smart_rows[name].dtype == host_rows[name].dtype
        assert np.array_equal(smart_rows[name], host_rows[name])


class TestGoldenDifferential:
    @pytest.mark.parametrize("layout", [Layout.PAX, Layout.NSM])
    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("limit", [1, 7, 10**6])
    def test_device_matches_host_and_reference(self, layout, descending,
                                               limit):
        rows = make_rows()
        db = make_db(rows, layout)
        query = topn_query(limit, descending)
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        reference = run_reference(query, {"t": SCHEMA}, {"t": rows})
        assert_bit_identical(smart.rows, host.rows)
        for name in ("k", "v"):
            assert np.array_equal(smart.rows[name], reference[name])
        assert smart.row_count == min(limit, len(rows))

    @pytest.mark.parametrize("descending", [False, True])
    def test_predicate_and_limit_compose(self, descending):
        rows = make_rows()
        db = make_db(rows)
        query = topn_query(9, descending,
                           predicate=Compare(Col("v"), ">=", Const(25)))
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        assert_bit_identical(smart.rows, host.rows)
        assert np.all(smart.rows["v"] >= 25)

    @pytest.mark.parametrize("descending", [False, True])
    def test_all_ties_resolve_identically(self, descending):
        # Every v equal: the result is decided purely by tie resolution,
        # which must match the host's (scan-order-stable) choice exactly.
        rows = make_rows()
        rows["v"] = 7
        db = make_db(rows)
        query = topn_query(13, descending)
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        assert_bit_identical(smart.rows, host.rows)

    def test_char_order_by(self):
        schema = Schema([Column("k", Int32Type()),
                         Column("tag", CharType(4))])
        rng = np.random.default_rng(3)
        rows = np.empty(400, dtype=schema.numpy_dtype())
        rows["k"] = np.arange(400)
        rows["tag"] = rng.choice(
            np.array([b"ABLE", b"BAKE", b"ZINC", b"AXIS"], dtype="S4"), 400)
        db = Database()
        db.create_smart_ssd()
        db.create_table("t", schema, Layout.PAX, rows, "smart-ssd")
        query = Query(table="t",
                      select=(("k", Col("k")), ("tag", Col("tag"))),
                      order_by="tag", descending=True, limit=6)
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        for name in ("k", "tag"):
            assert smart.rows[name].dtype == host.rows[name].dtype
            assert np.array_equal(smart.rows[name], host.rows[name])

    def test_empty_result_keeps_dtypes(self):
        rows = make_rows()
        db = make_db(rows)
        query = topn_query(5, predicate=Compare(Col("v"), "<",
                                                Const(-10**6)))
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        assert smart.row_count == host.row_count == 0
        assert_bit_identical(smart.rows, host.rows)

    def test_distinct_limit_stays_host_merged_but_exact(self):
        # DISTINCT's global dedupe must see all survivors before the limit,
        # so the device ships full chunks — results still bit-identical.
        rows = make_rows()
        db = make_db(rows)
        query = topn_query(4, distinct=True)
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        assert_bit_identical(smart.rows, host.rows)
        folded = db.execute_placed(topn_query(4), Placement.SMART)
        # The distinct run ships per-unit chunks, not one folded frame.
        assert (smart.io.bytes_over_interface
                > folded.io.bytes_over_interface)


class TestInterfaceTraffic:
    def test_limited_query_ships_o_of_k(self):
        rows = make_rows(n=12000)
        db = make_db(rows)
        unlimited = Query(table="t",
                          select=(("k", Col("k")), ("v", Col("v"))))
        full = db.execute_placed(unlimited, Placement.SMART)
        limited = db.execute_placed(topn_query(8), Placement.SMART)
        assert limited.row_count == 8
        # The full scan ships every tuple; the top-N scan ships one frame.
        assert (limited.io.bytes_over_interface
                < full.io.bytes_over_interface / 10)
        assert limited.counters.topn_candidates >= 8

    def test_interface_bytes_independent_of_table_size(self):
        small = make_db(make_rows(n=2000)).execute_placed(
            topn_query(5), Placement.SMART)
        large = make_db(make_rows(n=16000)).execute_placed(
            topn_query(5), Placement.SMART)
        # Result traffic is k tuples either way; only control-plane frames
        # (one GET cycle per pipeline window) may differ.
        assert large.io.bytes_over_interface < (
            2 * small.io.bytes_over_interface + 8192)


class TestVirtualTimeInvariance:
    def test_host_path_ignores_statistics(self):
        rows = make_rows()
        query = topn_query(11, predicate=Compare(Col("v"), "<", Const(9)))
        with_stats = make_db(rows).execute_placed(query, Placement.HOST)
        without = make_db(rows, stats_config=None).execute_placed(
            query, Placement.HOST)
        assert with_stats.elapsed_seconds == without.elapsed_seconds
        assert_bit_identical(with_stats.rows, without.rows)

    def test_unprunable_pushdown_times_match_stats_off(self):
        # No predicate -> nothing to prune: the device scan must behave
        # (and cost) exactly as if no statistics were registered.
        rows = make_rows()
        query = Query(table="t",
                      select=(("k", Col("k")), ("v", Col("v"))))
        with_stats = make_db(rows).execute_placed(query, Placement.SMART)
        without = make_db(rows, stats_config=None).execute_placed(
            query, Placement.SMART)
        assert with_stats.elapsed_seconds == without.elapsed_seconds
        assert with_stats.counters.pages_skipped == 0
        assert with_stats.counters.zone_map_checks == 0


class TestSkippingAccounting:
    def test_clustered_scan_skips_and_stays_exact(self):
        # Sorted order-by column -> narrow per-page ranges -> real pruning.
        rows = make_rows(n=12000)
        rows["v"] = np.sort(np.random.default_rng(5).integers(
            0, 100000, len(rows)))
        db = make_db(rows)
        table_pages = db.catalog.table("t").page_count
        query = Query(table="t",
                      predicate=Compare(Col("v"), "<", Const(1500)),
                      select=(("k", Col("k")), ("v", Col("v"))))
        smart = db.execute_placed(query, Placement.SMART)
        host = db.execute_placed(query, Placement.HOST)
        assert_bit_identical(smart.rows, host.rows)
        assert smart.counters.pages_skipped > 0
        assert smart.io.pages_read_device == (
            table_pages - smart.counters.pages_skipped)
        assert smart.counters.zone_map_checks >= table_pages

    def test_skipping_with_limit_composes(self):
        rows = make_rows(n=12000)
        rows["v"] = np.sort(np.random.default_rng(7).integers(
            0, 100000, len(rows)))
        db = make_db(rows)
        query = Query(table="t",
                      predicate=Compare(Col("v"), "<", Const(2000)),
                      select=(("k", Col("k")), ("v", Col("v"))),
                      order_by="v", descending=True, limit=6)
        smart = db.execute_placed(query, Placement.SMART)
        host = db.execute_placed(query, Placement.HOST)
        assert_bit_identical(smart.rows, host.rows)
        assert smart.counters.pages_skipped > 0
        assert smart.row_count == 6


class TestTopNState:
    def test_compaction_keeps_selection_exact(self):
        state = TopNState(order_by="v", limit=3, descending=False)
        rng = np.random.default_rng(11)
        offered = []
        ordinal = 0
        for __ in range(200):  # far past the compaction threshold
            n = int(rng.integers(1, 9))
            values = rng.integers(0, 40, n).astype(np.int32)
            state.offer(np.arange(ordinal, ordinal + n),
                        {"v": values, "k": np.arange(n, dtype=np.int32)})
            offered.append(values)
            ordinal += n
        final = state.finish()
        everything = np.concatenate(offered)
        expected = np.sort(everything)[:3]
        assert np.array_equal(np.sort(final["v"]), expected)

    def test_finish_empty_returns_none(self):
        state = TopNState(order_by="v", limit=2, descending=True)
        assert state.finish() is None
