"""Tests for the SQL binder: scaling, joins, aggregates, end-to-end."""

import numpy as np
import pytest

from repro import Placement, Session
from repro.bench.runners import DeviceKind, make_tpch_db
from repro.engine import Col, Const, run_reference
from repro.host.db import Database
from repro.sql import compile_sql
from repro.sql.lexer import SqlError
from repro.storage import (
    Column,
    DecimalType,
    Int32Type,
    Layout,
    Schema,
)
from repro.workloads import (
    generate_lineitem,
    lineitem_schema,
    q1_query,
    q6_query,
    q14_query,
)

TPCH_SCALE = 0.002

Q6_SQL = """
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01'
  AND l_shipdate < DATE '1995-01-01'
  AND l_discount > 0.05 AND l_discount < 0.07
  AND l_quantity < 24
"""

Q14_SQL = """
SELECT 100 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                 THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
         / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= DATE '1995-09-01'
  AND l_shipdate < DATE '1995-10-01'
"""

Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       AVG(l_discount) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


@pytest.fixture(scope="module")
def tpch_db():
    return make_tpch_db(DeviceKind.SMART, Layout.PAX, TPCH_SCALE)


@pytest.fixture(scope="module")
def tpch_session(tpch_db):
    return Session(tpch_db)


class TestPaperQueriesViaSql:
    @pytest.mark.parametrize("placement", ["host", "smart"])
    def test_q6_matches_builder(self, tpch_session, placement):
        sql = tpch_session.execute(Q6_SQL, placement)
        built = tpch_session.execute(q6_query(), placement)
        assert sql.rows[0]["revenue"] == pytest.approx(
            built.rows[0]["revenue"])

    @pytest.mark.parametrize("placement", ["host", "smart"])
    def test_q14_matches_builder(self, tpch_session, placement):
        sql = tpch_session.execute(Q14_SQL, placement)
        built = tpch_session.execute(q14_query(), placement)
        assert sql.rows[0]["promo_revenue"] == pytest.approx(
            built.rows[0]["promo_revenue"])

    def test_q1_style_grouping(self, tpch_session):
        sql = tpch_session.execute(Q1_SQL, Placement.SMART)
        built = tpch_session.execute(q1_query(), Placement.SMART)
        assert len(sql.rows) == len(built.rows) == 6
        sql_by_group = {(r["l_returnflag"], r["l_linestatus"]): r
                        for r in sql.rows}
        for brow in built.rows:
            srow = sql_by_group[(brow["l_returnflag"], brow["l_linestatus"])]
            assert srow["sum_qty"] == pytest.approx(brow["sum_qty"])
            assert srow["sum_base_price"] == pytest.approx(
                brow["sum_base_price"])
            assert srow["avg_disc"] == pytest.approx(brow["avg_disc"])
            assert srow["count_order"] == brow["count_order"]

    def test_between_form_of_q6(self, tpch_session):
        between = tpch_session.execute(Q6_SQL.replace(
            "l_discount > 0.05 AND l_discount < 0.07",
            "l_discount BETWEEN 0.06 AND 0.06"))
        plain = tpch_session.execute(Q6_SQL)
        assert between.rows[0]["revenue"] == pytest.approx(
            plain.rows[0]["revenue"])


class TestScaling:
    def test_decimal_literal_scaled(self, tpch_db):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM lineitem WHERE l_discount = 0.06",
            tpch_db.catalog)
        # The predicate compares against the x100 storage form.
        assert "Const(6)" in repr(query.predicate)

    def test_date_literal_becomes_days(self, tpch_db):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM lineitem "
            "WHERE l_shipdate >= DATE '1994-01-01'", tpch_db.catalog)
        assert "Const(8766)" in repr(query.predicate)

    def test_sum_of_decimal_descaled(self, tpch_session):
        report = tpch_session.execute(
            "SELECT SUM(l_quantity) AS q FROM lineitem")
        lineitem = generate_lineitem(TPCH_SCALE)
        assert report.rows[0]["q"] == pytest.approx(
            lineitem["l_quantity"].astype(np.int64).sum() / 100)

    def test_avg_of_decimal_in_human_units(self, tpch_session):
        report = tpch_session.execute(
            "SELECT AVG(l_discount) AS d FROM lineitem")
        assert 0.0 <= report.rows[0]["d"] <= 0.10

    def test_scale_mismatch_rejected(self, tpch_db):
        with pytest.raises(SqlError, match="scale"):
            compile_sql(
                "SELECT SUM(l_extendedprice + l_shipdate) AS x "
                "FROM lineitem", tpch_db.catalog)


class TestJoins:
    def test_build_side_is_smaller_table(self, tpch_db):
        query = compile_sql(Q14_SQL, tpch_db.catalog)
        assert query.join.build_table == "part"
        assert query.table == "lineitem"
        assert query.join.probe_key == "l_partkey"
        assert query.join.payload == ("p_type",)

    def test_join_on_form(self, tpch_db):
        query = compile_sql(
            "SELECT COUNT(*) AS n FROM lineitem "
            "JOIN part ON l_partkey = p_partkey", tpch_db.catalog)
        assert query.join is not None
        report_host = tpch_db.execute_placed(query, Placement.HOST)
        assert report_host.rows[0]["n"] > 0

    def test_missing_join_condition_rejected(self, tpch_db):
        with pytest.raises(SqlError, match="join condition"):
            compile_sql("SELECT COUNT(*) AS n FROM lineitem, part "
                        "WHERE l_quantity < 10", tpch_db.catalog)


class TestRowQueries:
    @pytest.fixture
    def simple_session(self):
        schema = Schema([Column("k", Int32Type()),
                         Column("v", Int32Type()),
                         Column("price", DecimalType())])
        rows = schema.rows_to_array(
            [(i, i % 10, i * 50) for i in range(2000)])
        db = Database()
        db.create_smart_ssd()
        db.create_table("t", schema, Layout.PAX, rows, "smart-ssd")
        return Session(db)

    def test_projection_and_filter(self, simple_session):
        report = simple_session.execute(
            "SELECT k, v FROM t WHERE k < 5", Placement.SMART)
        assert report.rows["k"].tolist() == [0, 1, 2, 3, 4]

    def test_distinct_order_limit(self, simple_session):
        report = simple_session.execute(
            "SELECT DISTINCT v FROM t ORDER BY v DESC LIMIT 3")
        assert report.rows["v"].tolist() == [9, 8, 7]

    def test_computed_column_with_alias(self, simple_session):
        report = simple_session.execute(
            "SELECT k, k * 2 AS doubled FROM t ORDER BY k LIMIT 4")
        assert report.rows["doubled"].tolist() == [0, 2, 4, 6]

    def test_order_by_unknown_output_rejected(self, simple_session):
        with pytest.raises(SqlError, match="ORDER BY"):
            simple_session.execute("SELECT k FROM t ORDER BY v")


class TestBinderErrors:
    def test_unknown_table(self, tpch_db):
        with pytest.raises(Exception):
            compile_sql("SELECT a FROM nope", tpch_db.catalog)

    def test_unknown_column(self, tpch_db):
        with pytest.raises(SqlError, match="unknown column"):
            compile_sql("SELECT wat FROM lineitem", tpch_db.catalog)

    def test_bare_column_without_group_by(self, tpch_db):
        with pytest.raises(SqlError, match="GROUP BY"):
            compile_sql("SELECT l_quantity, COUNT(*) AS n FROM lineitem",
                        tpch_db.catalog)

    def test_suffix_like_rejected(self, tpch_db):
        with pytest.raises(SqlError, match="prefix"):
            compile_sql("SELECT COUNT(*) AS n FROM part "
                        "WHERE p_type LIKE '%COPPER'", tpch_db.catalog)

    def test_nested_aggregate_rejected(self, tpch_db):
        with pytest.raises(SqlError):
            compile_sql("SELECT SUM(SUM(l_quantity)) AS s FROM lineitem",
                        tpch_db.catalog)

    @pytest.mark.parametrize("placement", [Placement.HOST, Placement.SMART])
    @pytest.mark.parametrize("select", [
        "MIN(l_shipmode) AS m FROM lineitem",
        "SUM(l_shipmode) AS m FROM lineitem",
        "l_returnflag, MAX(l_shipmode) AS m FROM lineitem "
        "GROUP BY l_returnflag",
        "l_returnflag, AVG(l_shipmode) AS m FROM lineitem "
        "GROUP BY l_returnflag",
    ])
    def test_aggregate_over_char_column_rejected(self, tpch_db, select,
                                                 placement):
        """A typed error at the front door under either placement — not a
        raw NumPy exception on the host or a crashed device program."""
        with Session(tpch_db) as session:
            with pytest.raises(SqlError, match="numeric argument"):
                session.execute("SELECT " + select, placement)

    def test_bad_date_rejected(self, tpch_db):
        with pytest.raises(SqlError, match="DATE"):
            compile_sql("SELECT COUNT(*) AS n FROM lineitem "
                        "WHERE l_shipdate > DATE 'not-a-date'",
                        tpch_db.catalog)
