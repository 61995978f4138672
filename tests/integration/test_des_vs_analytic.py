"""Consistency: the DES and the closed-form model must agree.

The extrapolation story (small functional run -> SF-100 numbers) is only
valid if the discrete-event simulation and the analytic pipeline formula
produce the same elapsed time when evaluated *at the same scale*. These
tests extrapolate with factor 1.0 and compare against the simulated clock.
"""

import pytest

from repro.bench.extrapolate import extrapolate_run
from repro.bench.runners import DeviceKind, make_tpch_db
from repro.engine import Placement
from repro.storage import Layout
from repro.workloads import q6_query, q14_query

SCALE = 0.01  # 60,000 LINEITEM rows: long enough to amortize pipeline fill


def run_and_compare(device, layout, placement, query, tolerance,
                    scale=SCALE):
    db = make_tpch_db(device, layout, scale)
    report = db.execute_placed(query, placement)
    estimate = extrapolate_run(db, query, report, factor=1.0)
    assert report.elapsed_seconds == pytest.approx(
        estimate.elapsed_seconds, rel=tolerance), (
        f"DES {report.elapsed_seconds:.4f}s vs analytic "
        f"{estimate.elapsed_seconds:.4f}s")
    return report, estimate


class TestAgreement:
    def test_q6_host_ssd(self):
        run_and_compare(DeviceKind.SSD, Layout.NSM, "host", q6_query(),
                        tolerance=0.10)

    def test_q6_host_hdd(self):
        run_and_compare(DeviceKind.HDD, Layout.NSM, "host", q6_query(),
                        tolerance=0.10)

    def test_q6_smart_pax(self):
        run_and_compare(DeviceKind.SMART, Layout.PAX, "smart", q6_query(),
                        tolerance=0.15)

    def test_q6_smart_nsm(self):
        run_and_compare(DeviceKind.SMART, Layout.NSM, "smart", q6_query(),
                        tolerance=0.15)

    def test_q14_smart_pax(self):
        # Q14's build-phase barrier needs a longer run to amortize the
        # pipeline fill; at scale 0.05 DES and analytic agree within ~5%.
        run_and_compare(DeviceKind.SMART, Layout.PAX, "smart", q14_query(),
                        tolerance=0.10, scale=0.05)

    def test_extrapolation_is_linear_in_factor(self):
        db = make_tpch_db(DeviceKind.SSD, Layout.NSM, SCALE)
        report = db.execute_placed(q6_query(), Placement.HOST)
        one = extrapolate_run(db, q6_query(), report, factor=1.0)
        ten = extrapolate_run(db, q6_query(), report, factor=10.0)
        # An interface-bound scan scales linearly with data size.
        assert ten.elapsed_seconds == pytest.approx(
            10 * one.elapsed_seconds, rel=0.02)
