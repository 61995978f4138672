"""End-to-end integration: Database + devices + both placements vs reference.

Every test loads real generated data onto a simulated device, runs the query
through the full stack (protocol, pipelines, kernels), and checks results
against the placement-free reference executor.
"""

import numpy as np
import pytest

from repro.engine import Placement, run_reference
from repro.host.db import Database
from repro.storage import Layout
from repro.workloads import (
    generate_lineitem,
    generate_part,
    generate_synthetic64_r,
    generate_synthetic64_s,
    lineitem_schema,
    part_schema,
    q6_query,
    q14_query,
    synthetic64_r_schema,
    synthetic64_s_schema,
    synthetic_join_query,
    synthetic_scan_query,
)

SCALE = 0.002  # 12,000 LINEITEM rows, 400 PART rows


@pytest.fixture(scope="module")
def tpch_data():
    return generate_lineitem(SCALE), generate_part(SCALE)


@pytest.fixture(scope="module")
def synthetic_data():
    r = generate_synthetic64_r(0.001)           # 1,000 rows
    s = generate_synthetic64_s(0.00005, len(r))  # 20,000 rows
    return r, s


def smart_db(layout, tpch_data):
    lineitem, part = tpch_data
    db = Database()
    db.create_smart_ssd()
    db.create_table("lineitem", lineitem_schema(), layout, lineitem,
                    "smart-ssd")
    db.create_table("part", part_schema(), layout, part, "smart-ssd")
    return db


class TestQ6:
    @pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
    @pytest.mark.parametrize("placement", ["host", "smart"])
    def test_q6_matches_reference(self, tpch_data, layout, placement):
        lineitem, __ = tpch_data
        db = smart_db(layout, tpch_data)
        query = q6_query()
        report = db.execute_placed(query, placement)
        expected = run_reference(query, {"lineitem": lineitem_schema()},
                                 {"lineitem": lineitem})
        assert report.rows[0]["revenue"] == pytest.approx(expected["revenue"])
        assert report.elapsed_seconds > 0

    def test_q6_smart_and_host_agree(self, tpch_data):
        db = smart_db(Layout.PAX, tpch_data)
        query = q6_query()
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        assert host.rows[0]["revenue"] == pytest.approx(
            smart.rows[0]["revenue"])

    def test_q6_selectivity_is_small(self, tpch_data):
        """The paper quotes ~0.6% selectivity for Q6."""
        lineitem, __ = tpch_data
        expected = run_reference(
            q6_query(), {"lineitem": lineitem_schema()},
            {"lineitem": lineitem})
        assert expected["revenue"] > 0
        mask = ((lineitem["l_shipdate"] >= 8766)
                & (lineitem["l_shipdate"] < 9131)
                & (lineitem["l_discount"] == 6)
                & (lineitem["l_quantity"] < 2400))
        fraction = mask.sum() / len(lineitem)
        assert 0.002 < fraction < 0.02


class TestQ14:
    @pytest.mark.parametrize("placement", ["host", "smart"])
    def test_q14_matches_reference(self, tpch_data, placement):
        lineitem, part = tpch_data
        db = smart_db(Layout.PAX, tpch_data)
        query = q14_query()
        report = db.execute_placed(query, placement)
        expected = run_reference(
            query,
            {"lineitem": lineitem_schema(), "part": part_schema()},
            {"lineitem": lineitem, "part": part})
        assert report.rows[0]["promo_revenue"] == pytest.approx(
            expected["promo_revenue"])
        # PROMO is 1 of 6 leading type syllables.
        assert 5 < report.rows[0]["promo_revenue"] < 35


class TestSyntheticJoin:
    @pytest.mark.parametrize("placement", ["host", "smart"])
    @pytest.mark.parametrize("selectivity", [1, 25, 100])
    def test_join_matches_reference(self, synthetic_data, placement,
                                    selectivity):
        r, s = synthetic_data
        db = Database()
        db.create_smart_ssd()
        db.create_table("synthetic64_r", synthetic64_r_schema(), Layout.PAX,
                        r, "smart-ssd")
        db.create_table("synthetic64_s", synthetic64_s_schema(), Layout.PAX,
                        s, "smart-ssd")
        query = synthetic_join_query(selectivity)
        report = db.execute_placed(query, placement)
        expected = run_reference(
            query,
            {"synthetic64_s": synthetic64_s_schema(),
             "synthetic64_r": synthetic64_r_schema()},
            {"synthetic64_s": s, "synthetic64_r": r})
        assert np.array_equal(report.rows["s_col_1"], expected["s_col_1"])
        assert np.array_equal(report.rows["r_col_2"], expected["r_col_2"])

    def test_scan_query_row_mode(self, synthetic_data):
        r, s = synthetic_data
        db = Database()
        db.create_smart_ssd()
        db.create_table("synthetic64_s", synthetic64_s_schema(), Layout.NSM,
                        s, "smart-ssd")
        query = synthetic_scan_query(10)
        host = db.execute_placed(query, Placement.HOST)
        smart = db.execute_placed(query, Placement.SMART)
        assert np.array_equal(host.rows["s_col_1"], smart.rows["s_col_1"])
        expected_rows = int((s["s_col_3"] < 10).sum())
        assert len(host.rows) == expected_rows


class TestReports:
    def test_report_has_energy_and_io(self, tpch_data):
        db = smart_db(Layout.PAX, tpch_data)
        report = db.execute_placed(q6_query(), Placement.SMART)
        assert report.energy is not None
        assert report.energy.entire_system_j > 0
        assert report.energy.io_subsystem_j > 0
        assert report.io.bytes_over_dram_bus > 0
        assert report.device_cpu_core_seconds > 0
        assert report.placement == "smart"
        assert "smart" in report.summary()

    def test_smart_moves_less_over_interface(self, tpch_data):
        db = smart_db(Layout.PAX, tpch_data)
        host = db.execute_placed(q6_query(), Placement.HOST)
        db2 = smart_db(Layout.PAX, tpch_data)
        smart = db2.execute_placed(q6_query(), Placement.SMART)
        assert smart.io.bytes_over_interface < host.io.bytes_over_interface / 10

    def test_host_counters_equal_smart_counters_for_same_scan(self,
                                                              tpch_data):
        """Same kernels, same data => same work counted (minus placement)."""
        query = q6_query()
        host = smart_db(Layout.PAX, tpch_data).execute_placed(
            query, Placement.HOST)
        smart = smart_db(Layout.PAX, tpch_data).execute_placed(
            query, Placement.SMART)
        assert (host.counters.predicates_evaluated
                == smart.counters.predicates_evaluated)
        assert (host.counters.pax_values_extracted
                == smart.counters.pax_values_extracted)
        assert host.counters.pages_parsed == smart.counters.pages_parsed
