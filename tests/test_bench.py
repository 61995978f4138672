"""Unit tests for the benchmark harness plumbing."""

import pytest

from repro.bench import (
    DeviceKind,
    extrapolate_run,
    format_table,
    make_synthetic_db,
    make_tpch_db,
    run_at_paper_scale,
)
from repro.bench import paper
from repro.engine import Placement
from repro.storage import Layout
from repro.workloads import q6_query, synthetic_join_query


class TestFormatting:
    def test_table_contains_everything(self):
        text = format_table("My Title", ["name", "value"],
                            [["alpha", 1.2345], ["beta", 12345.6]])
        assert "My Title" in text
        assert "alpha" in text
        assert "1.23" in text
        assert "12,346" in text

    def test_columns_align(self):
        text = format_table("T", ["a", "bbbb"], [["x", 1], ["yyyy", 2]])
        lines = text.splitlines()
        header = lines[2]
        first = lines[4]
        assert header.index("bbbb") == first.index("1")

    def test_zero_formats_bare(self):
        assert "0" in format_table("T", ["v"], [[0.0]])


class TestRunners:
    def test_tpch_db_has_both_tables(self):
        db = make_tpch_db(DeviceKind.SMART, Layout.PAX, 0.001)
        assert db.catalog.names() == ["lineitem", "part"]
        assert db.device_names() == ["smart-ssd"]

    def test_device_kinds_attach_matching_devices(self):
        for kind in DeviceKind:
            db = make_tpch_db(kind, Layout.NSM, 0.001)
            assert db.device_names() == [kind.value]

    def test_synthetic_db_preserves_ratio_floor(self):
        db = make_synthetic_db(DeviceKind.SMART, Layout.PAX, 5e-4)
        r = db.catalog.table("synthetic64_r")
        s = db.catalog.table("synthetic64_s")
        assert r.tuple_count == 500
        assert s.tuple_count == 200_000

    def test_run_at_paper_scale_returns_both_views(self):
        db = make_tpch_db(DeviceKind.SMART, Layout.PAX, 0.001)
        run = run_at_paper_scale(db, q6_query(), "smart", 0.001, 100.0)
        assert run.report.elapsed_seconds > 0
        assert run.elapsed_at_paper_scale > run.report.elapsed_seconds
        assert run.paper_scale.bottleneck in ("cpu", "dram_bus", "flash",
                                              "interface")


class TestExtrapolation:
    def test_factor_one_close_to_des(self):
        db = make_tpch_db(DeviceKind.SSD, Layout.NSM, 0.005)
        report = db.execute_placed(q6_query(), Placement.HOST)
        estimate = extrapolate_run(db, q6_query(), report, 1.0)
        assert estimate.elapsed_seconds == pytest.approx(
            report.elapsed_seconds, rel=0.15)

    def test_large_table_flag_flips_with_factor(self):
        """A tiny PART sample prices as cache-resident at run scale but as
        DRAM-resident at SF-100 — the flag must be decided at target."""
        from repro.workloads import q14_query
        db = make_tpch_db(DeviceKind.SMART, Layout.PAX, 0.002)
        report = db.execute_placed(q14_query(), Placement.SMART)
        small = extrapolate_run(db, q14_query(), report, 1.0)
        large = extrapolate_run(db, q14_query(), report, 50_000.0)
        per_build_small = small.device_cycles / max(
            1, report.counters.hash_builds)
        per_build_large = large.device_cycles / max(
            1, report.counters.scaled(50_000.0).hash_builds)
        assert per_build_large > per_build_small

    def test_energy_attached(self):
        db = make_tpch_db(DeviceKind.HDD, Layout.NSM, 0.002)
        report = db.execute_placed(q6_query(), Placement.HOST)
        estimate = extrapolate_run(db, q6_query(), report, 1000.0)
        assert estimate.energy.entire_system_j > 0
        assert estimate.energy.io_subsystem_j > 0


class TestPaperConstants:
    def test_table2_values(self):
        assert paper.TABLE2_SMART_INTERNAL_MB_S / paper.TABLE2_SAS_SSD_MB_S \
            == pytest.approx(paper.TABLE2_INTERNAL_SPEEDUP, abs=0.05)

    def test_speedup_ordering(self):
        """The paper's own ordering: join@1% > Q6 > Q14 > 1."""
        assert (paper.FIG5_JOIN_SPEEDUP_AT_1PCT > paper.FIG3_Q6_PAX_SPEEDUP
                > paper.FIG7_Q14_PAX_SPEEDUP > 1.0)
