"""Tests for the front door: Placement, connect()/Session, the absence of
the old Database shims, and the versioned report JSON schema."""

import importlib.util
import warnings

import numpy as np
import pytest

import repro
from repro.engine import AggSpec, Col, Compare, Const, Placement, Query
from repro.errors import PlanError
from repro.host.db import Database
from repro.model.report import (
    REPORT_SCHEMA_VERSION,
    ExecutionReport,
    IoStats,
)
from repro.storage import Column, Int32Type, Layout, Schema


def schema():
    return Schema([Column("a", Int32Type()), Column("b", Int32Type())])


def loaded_session(observability=False):
    session = repro.connect(observability=observability)
    session.db.create_smart_ssd()
    rows = np.empty(2000, dtype=schema().numpy_dtype())
    rows["a"] = np.arange(2000)
    rows["b"] = np.arange(2000) % 11
    session.create_table("t", schema(), Layout.PAX, rows, "smart-ssd")
    return session


def agg_query():
    return Query(name="q", table="t",
                 predicate=Compare(Col("a"), "<", Const(1000)),
                 aggregates=(AggSpec("sum", Col("b"), "s"),
                             AggSpec("count", None, "n")))


class TestPlacement:
    def test_coerce_passthrough_and_strings(self):
        assert Placement.coerce(Placement.SMART) is Placement.SMART
        assert Placement.coerce("host") is Placement.HOST
        assert Placement.coerce("smart") is Placement.SMART
        assert Placement.coerce("auto") is Placement.AUTO

    def test_coerce_rejects_unknown(self):
        with pytest.raises(PlanError, match="placement"):
            Placement.coerce("gpu")
        with pytest.raises(PlanError):
            Placement.coerce(3)

    def test_str_renders_wire_value(self):
        assert str(Placement.SMART) == "smart"
        assert Placement.HOST.value == "host"

    def test_exported_at_top_level(self):
        assert repro.Placement is Placement


class TestSessionFacade:
    def test_connect_returns_session_without_obs(self):
        session = repro.connect()
        assert isinstance(session, repro.Session)
        assert session.obs is None

    def test_connect_with_observability(self):
        session = repro.connect(observability=True)
        assert session.obs is not None
        assert session.db.obs is session.obs

    def test_execute_accepts_query_and_enum(self):
        session = loaded_session()
        report = session.execute(agg_query(), placement=Placement.SMART)
        assert report.placement == "smart"
        assert report.row_count == 1

    def test_execute_accepts_sql_string(self):
        session = loaded_session()
        built = session.execute(agg_query(), placement=Placement.SMART)
        via_sql = session.execute(
            "SELECT SUM(b) AS s, COUNT(*) AS n FROM t WHERE a < 1000",
            placement="smart")
        assert via_sql.rows == built.rows

    def test_execute_rejects_other_types(self):
        session = loaded_session()
        with pytest.raises(TypeError, match="Query or a SQL string"):
            session.execute(42)

    def test_submit_mixes_sql_and_queries(self):
        session = loaded_session()
        session.submit(agg_query(), Placement.SMART)
        session.submit("SELECT COUNT(*) AS n FROM t", "host")
        reports = session.gather()
        assert len(reports) == 2
        assert [report.placement for report in reports] == ["smart", "host"]

    def test_explain_takes_sql(self):
        session = loaded_session()
        assert "t" in session.explain("SELECT COUNT(*) AS n FROM t",
                                      placement=Placement.SMART)


class TestDeprecatedShims:
    """The string-typed shims and the second fleet are gone for good."""

    def test_database_has_no_legacy_entry_points(self):
        for name in ("execute", "sql", "execute_concurrent"):
            assert not hasattr(Database, name)
        assert not hasattr(repro.Session, "execute_concurrent")
        # One fleet: nothing array-shaped is exported any more.
        assert not [name for name in dir(repro) + dir(repro.smart)
                    if "Array" in name]
        assert importlib.util.find_spec("repro.smart.array") is None

    def test_execute_placed_does_not_warn(self):
        session = loaded_session()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.db.execute_placed(agg_query(), Placement.SMART)


class TestReportJson:
    def test_aggregate_report_round_trips(self):
        session = loaded_session()
        report = session.execute(agg_query(), placement=Placement.SMART)
        clone = ExecutionReport.from_json(report.to_json())
        assert clone.rows == report.rows
        assert clone.elapsed_seconds == report.elapsed_seconds
        assert clone.counters == report.counters
        assert clone.io == report.io
        assert clone.energy == report.energy
        assert clone.placement == report.placement
        assert clone.utilization == report.utilization
        assert clone.to_json() == report.to_json()

    def test_structured_rows_round_trip_dates_and_chars(self):
        dtype = np.dtype([("k", "<i4"), ("day", "<M8[D]"), ("tag", "S5")])
        rows = np.array(
            [(1, np.datetime64("1994-01-01"), b"alpha"),
             (2, np.datetime64("1995-06-15"), b"bx")],
            dtype=dtype)
        report = ExecutionReport(rows=rows, elapsed_seconds=0.5,
                                 placement="host", device_name="sas-ssd",
                                 layout="nsm",
                                 io=IoStats(pages_read_device=3))
        clone = ExecutionReport.from_json(report.to_json())
        assert isinstance(clone.rows, np.ndarray)
        assert clone.rows.dtype == rows.dtype
        assert np.array_equal(clone.rows, rows)
        assert clone.io == report.io
        assert clone.energy is None

    def test_profile_survives_round_trip(self):
        session = loaded_session(observability=True)
        report = session.execute(agg_query(), placement=Placement.SMART)
        clone = ExecutionReport.from_json(report.to_json())
        assert clone.profile == report.profile
        assert clone.profile["spans"]["query"]["count"] == 1

    def test_version_mismatch_rejected(self):
        session = loaded_session()
        report = session.execute(agg_query(), placement=Placement.SMART)
        import json
        payload = json.loads(report.to_json())
        payload["schema_version"] = REPORT_SCHEMA_VERSION + 1
        with pytest.raises(PlanError, match="schema version"):
            ExecutionReport.from_json(json.dumps(payload))
