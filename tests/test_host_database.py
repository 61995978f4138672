"""Tests for the Database facade surfaces."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.host
from repro.api import Session
from repro.engine import AggSpec, Col, Placement, Query
from repro.errors import CatalogError, PlanError
from repro.flash.hdd import HddSpec
from repro.flash.ssd import SsdSpec
from repro.host.db import Database
from repro.smart.device import SmartSsdSpec
from repro.storage import Column, Int32Type, Layout, Schema


@pytest.fixture
def schema():
    return Schema([Column("a", Int32Type()), Column("b", Int32Type())])


def test_host_layer_does_not_import_device_programs():
    """Layering: the host drives a Smart SSD through the session protocol;
    the code uploaded into the device is not its business."""
    offenders = []
    for path in Path(repro.host.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}"
                           for alias in node.names]
            else:
                continue
            offenders += [(path.name, module) for module in modules
                          if module.startswith(("repro.smart.programs",
                                                "repro.smart.array"))]
    assert offenders == []


class TestDeviceManagement:
    def test_create_all_device_kinds(self):
        db = Database()
        db.create_ssd()
        db.create_smart_ssd()
        db.create_hdd()
        assert db.device_names() == ["sas-hdd", "sas-ssd", "smart-ssd"]

    def test_duplicate_device_name_rejected(self):
        db = Database()
        db.create_ssd()
        with pytest.raises(CatalogError, match="already attached"):
            db.create_ssd(SsdSpec())

    def test_custom_names_allowed(self):
        db = Database()
        db.create_smart_ssd(SmartSsdSpec(name="left"))
        db.create_smart_ssd(SmartSsdSpec(name="right"))
        assert db.device_names() == ["left", "right"]

    def test_unknown_device_lookup(self):
        with pytest.raises(CatalogError, match="unknown device"):
            Database().device("ghost")


class TestExecutionSurfaces:
    def make_db(self, schema):
        db = Database()
        db.create_smart_ssd()
        rows = np.empty(1000, dtype=schema.numpy_dtype())
        rows["a"] = np.arange(1000)
        rows["b"] = np.arange(1000) % 7
        db.create_table("t", schema, Layout.PAX, rows, "smart-ssd")
        return db

    def test_unknown_table_rejected(self, schema):
        db = self.make_db(schema)
        query = Query(table="ghost",
                      aggregates=(AggSpec("count", None, "n"),))
        with pytest.raises(CatalogError):
            db.execute_placed(query)

    def test_clock_advances_across_queries(self, schema):
        db = self.make_db(schema)
        query = Query(table="t", aggregates=(AggSpec("count", None, "n"),))
        db.execute_placed(query, Placement.SMART)
        t1 = db.sim.now
        db.execute_placed(query, Placement.SMART)
        assert db.sim.now > t1

    def test_reports_are_per_query_not_cumulative(self, schema):
        db = self.make_db(schema)
        query = Query(table="t", aggregates=(AggSpec("count", None, "n"),))
        first = db.execute_placed(query, Placement.SMART)
        second = db.execute_placed(query, Placement.SMART)
        # Same work => same per-run accounting despite the advancing clock.
        assert second.elapsed_seconds == pytest.approx(
            first.elapsed_seconds, rel=0.05)
        assert (second.counters.pages_parsed
                == first.counters.pages_parsed)

    def test_sql_kwargs_forwarded(self, schema):
        db = self.make_db(schema)
        report = Session(db).execute("SELECT COUNT(*) AS n FROM t",
                                     Placement.SMART, io_unit_pages=8)
        assert report.rows[0]["n"] == 1000
        assert report.counters.io_units >= 1

    def test_explain_accepts_query_and_sql(self, schema):
        db = self.make_db(schema)
        query = Query(table="t", aggregates=(AggSpec("count", None, "n"),))
        assert "aggregate" in db.explain(query)
        assert "aggregate" in db.explain("SELECT COUNT(*) AS n FROM t")

    def test_energy_includes_every_attached_device(self, schema):
        db = self.make_db(schema)
        db.create_hdd(HddSpec())  # idle bystander
        query = Query(table="t", aggregates=(AggSpec("count", None, "n"),))
        report = db.execute_placed(query, Placement.SMART)
        assert set(report.energy.device_j) == {"smart-ssd", "sas-hdd"}
        # The idle HDD contributes only idle power.
        elapsed = report.energy.elapsed_seconds
        assert report.energy.device_j["sas-hdd"] == pytest.approx(
            HddSpec().power.idle_w * elapsed)
