"""Tests for IN lists, post-join predicates, and WHERE-conjunct splitting."""

import numpy as np
import pytest

from repro import Placement, Session
from repro.bench.runners import DeviceKind, make_tpch_db
from repro.engine import run_reference
from repro.sql import compile_sql
from repro.storage import Layout
from repro.workloads import (
    generate_lineitem,
    generate_part,
    lineitem_schema,
    part_schema,
)

SCALE = 0.002

Q19_STYLE = """
SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue, COUNT(*) AS n
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND ( (p_container IN ('SM CASE', 'SM BOX') AND l_quantity BETWEEN 1 AND 11)
        OR (p_container IN ('MED BAG') AND l_quantity BETWEEN 10 AND 20)
        OR (p_brand = 'Brand#34' AND l_quantity < 30) )
  AND l_shipmode IN ('AIR', 'REG AIR')
"""


@pytest.fixture(scope="module")
def tpch_db():
    return make_tpch_db(DeviceKind.SMART, Layout.PAX, SCALE)


@pytest.fixture(scope="module")
def tpch_session(tpch_db):
    return Session(tpch_db)


@pytest.fixture(scope="module")
def tpch_arrays():
    return ({"lineitem": lineitem_schema(), "part": part_schema()},
            {"lineitem": generate_lineitem(SCALE),
             "part": generate_part(SCALE)})


class TestInLists:
    def test_in_equivalent_to_or_chain(self, tpch_session):
        with_in = tpch_session.execute(
            "SELECT COUNT(*) AS n FROM lineitem "
            "WHERE l_shipmode IN ('AIR', 'RAIL')")
        with_or = tpch_session.execute(
            "SELECT COUNT(*) AS n FROM lineitem "
            "WHERE l_shipmode = 'AIR' OR l_shipmode = 'RAIL'")
        assert with_in.rows[0]["n"] == with_or.rows[0]["n"] > 0

    def test_string_padding_matters(self, tpch_session):
        """'AIR' must match the space-padded CHAR(10) storage form."""
        report = tpch_session.execute(
            "SELECT COUNT(*) AS n FROM lineitem WHERE l_shipmode = 'AIR'")
        lineitem = generate_lineitem(SCALE)
        expected = int((lineitem["l_shipmode"] == b"AIR".ljust(10)).sum())
        assert report.rows[0]["n"] == expected > 0

    def test_numeric_in_scaled(self, tpch_session):
        report = tpch_session.execute(
            "SELECT COUNT(*) AS n FROM lineitem "
            "WHERE l_discount IN (0.05, 0.06)")
        lineitem = generate_lineitem(SCALE)
        expected = int(np.isin(lineitem["l_discount"], [5, 6]).sum())
        assert report.rows[0]["n"] == expected


class TestConjunctSplitting:
    def test_fact_side_goes_to_scan_predicate(self, tpch_db):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM lineitem, part "
            "WHERE l_partkey = p_partkey AND l_quantity < 10 "
            "AND p_size > 25", tpch_db.catalog)
        assert query.predicate is not None
        assert query.predicate.columns() == {"l_quantity"}
        # The build-only conjunct filters the hash build.
        assert query.join.build_predicate is not None
        assert query.join.build_predicate.columns() == {"p_size"}
        assert query.post_predicate is None

    def test_mixed_conjunct_goes_post_join(self, tpch_db):
        query = compile_sql(Q19_STYLE, tpch_db.catalog)
        assert query.post_predicate is not None
        referenced = query.post_predicate.columns()
        assert "p_container" in referenced
        assert "l_quantity" in referenced
        # Build columns used post-join travel as payload.
        assert set(query.join.payload) >= {"p_container", "p_brand"}

    def test_build_filter_reduces_matches(self, tpch_session):
        filtered = tpch_session.execute(
            "SELECT COUNT(*) AS n FROM lineitem, part "
            "WHERE l_partkey = p_partkey AND p_size > 48")
        unfiltered = tpch_session.execute(
            "SELECT COUNT(*) AS n FROM lineitem, part "
            "WHERE l_partkey = p_partkey")
        assert 0 < filtered.rows[0]["n"] < unfiltered.rows[0]["n"]


class TestQ19Style:
    @pytest.mark.parametrize("placement", ["host", "smart"])
    def test_matches_reference(self, tpch_session, tpch_arrays, placement):
        schemas, arrays = tpch_arrays
        query = tpch_session.compile(Q19_STYLE)
        expected = run_reference(query, schemas, arrays)
        report = tpch_session.execute(Q19_STYLE, placement)
        assert report.rows[0]["n"] == expected["n"] > 0
        assert report.rows[0]["revenue"] == pytest.approx(
            expected["revenue"])

    def test_row_mode_post_join(self, tpch_session, tpch_arrays):
        schemas, arrays = tpch_arrays
        sql = ("SELECT l_orderkey, p_brand FROM lineitem, part "
               "WHERE l_partkey = p_partkey AND p_brand = 'Brand#11' "
               "AND l_quantity > 49 OR l_partkey = p_partkey "
               "AND p_brand = 'Brand#22' AND l_quantity > 49")
        # Simpler variant with a clean mixed conjunct:
        sql = ("SELECT l_orderkey, p_brand FROM lineitem, part "
               "WHERE l_partkey = p_partkey "
               "AND (p_brand = 'Brand#11' OR l_quantity > 49)")
        query = tpch_session.compile(sql)
        assert query.post_predicate is not None
        expected = run_reference(query, schemas, arrays)
        host = tpch_session.execute(sql, Placement.HOST)
        smart = tpch_session.execute(sql, Placement.SMART)
        assert np.array_equal(host.rows, smart.rows)
        assert np.array_equal(host.rows["l_orderkey"],
                              expected["l_orderkey"])
