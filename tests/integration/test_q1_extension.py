"""Integration tests for the TPC-H Q1 extension (grouped aggregation)."""

import pytest

from repro.bench.runners import DeviceKind, make_tpch_db
from repro.engine import Placement, run_reference
from repro.storage import Layout
from repro.workloads import generate_lineitem, lineitem_schema, q1_query

SCALE = 0.002


@pytest.fixture(scope="module")
def lineitem():
    return generate_lineitem(SCALE)


class TestQ1:
    @pytest.mark.parametrize("placement", ["host", "smart"])
    @pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
    def test_matches_reference(self, lineitem, placement, layout):
        db = make_tpch_db(DeviceKind.SMART, layout, SCALE)
        query = q1_query()
        report = db.execute_placed(query, placement)
        expected = run_reference(query, {"lineitem": lineitem_schema()},
                                 {"lineitem": lineitem})
        assert len(report.rows) == len(expected)
        for row in report.rows:
            group = (row["l_returnflag"], row["l_linestatus"])
            entry = expected[group]
            # The reference executor does not run finalize per group; apply
            # it here for comparison.
            finalized = query.finalize(entry)
            for key, value in finalized.items():
                assert row[key] == pytest.approx(value), (group, key)

    def test_six_groups(self, lineitem):
        """3 return flags x 2 line statuses."""
        db = make_tpch_db(DeviceKind.SMART, Layout.PAX, SCALE)
        report = db.execute_placed(q1_query(), Placement.SMART)
        assert len(report.rows) == 6
        flags = {row["l_returnflag"] for row in report.rows}
        assert flags == {b"A", b"N", b"R"}

    def test_averages_consistent_with_sums(self, lineitem):
        db = make_tpch_db(DeviceKind.SMART, Layout.PAX, SCALE)
        report = db.execute_placed(q1_query(), Placement.SMART)
        for row in report.rows:
            assert row["avg_qty"] == pytest.approx(
                row["sum_qty"] / row["count_order"])
            assert row["avg_price"] == pytest.approx(
                row["sum_base_price"] / row["count_order"])
            assert 0.0 <= row["avg_disc"] <= 0.11

    def test_q1_is_a_strong_pushdown_case(self, lineitem):
        """Full scan folding into 6 rows: the device's sweet spot."""
        db = make_tpch_db(DeviceKind.SMART, Layout.PAX, SCALE)
        smart = db.execute_placed(q1_query(), Placement.SMART)
        assert smart.io.bytes_over_interface < 64 * 1024  # frames + 6 rows

    def test_rows_sorted_by_group(self, lineitem):
        db = make_tpch_db(DeviceKind.SMART, Layout.PAX, SCALE)
        report = db.execute_placed(q1_query(), Placement.HOST)
        groups = [(row["l_returnflag"], row["l_linestatus"])
                  for row in report.rows]
        assert groups == sorted(groups)
