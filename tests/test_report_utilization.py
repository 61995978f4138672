"""Tests for the per-resource utilization view of execution reports."""

import numpy as np
import pytest

from repro.bench.runners import DeviceKind, make_tpch_db
from repro.engine import Placement
from repro.storage import Layout
from repro.workloads import q6_query


@pytest.fixture(scope="module")
def reports():
    out = {}
    for placement, device, layout in (
            ("host", DeviceKind.SSD, Layout.NSM),
            ("smart", DeviceKind.SMART, Layout.PAX)):
        db = make_tpch_db(device, layout, 0.005)
        out[placement] = db.execute_placed(q6_query(), placement)
    return out


class TestUtilization:
    def test_values_are_fractions(self, reports):
        for report in reports.values():
            assert report.utilization
            for name, value in report.utilization.items():
                assert 0.0 <= value <= 1.0 + 1e-9, name

    def test_host_path_is_interface_bound(self, reports):
        util = reports["host"].utilization
        assert util["interface"] > 0.9
        assert util["host-cpu"] < 0.2

    def test_smart_path_is_device_cpu_bound(self, reports):
        util = reports["smart"].utilization
        # Q6 saturates the embedded cores (the paper's explanation for
        # landing at 1.7x rather than the bandwidth bound).
        assert util["device-cpu"] > 0.8
        # ...while the interface is nearly idle (only protocol frames).
        assert util["interface"] < 0.05
        assert util["host-cpu"] < 0.05

    def test_summary_mentions_utilization(self, reports):
        text = reports["smart"].summary()
        assert "utilization" in text
        assert "device-cpu" in text

    def test_hdd_reports_without_dram_bus(self):
        db = make_tpch_db(DeviceKind.HDD, Layout.NSM, 0.002)
        report = db.execute_placed(q6_query(), Placement.HOST)
        assert "dram-bus" not in report.utilization
        assert report.utilization["interface"] > 0.9
