"""Tests for the concurrent query scheduler (repro.sched).

Covers the ISSUE-4 contracts: solo submissions are bit-identical to
``Database.execute_placed``; shared scans return the same answers as solo
runs while eliding NAND traffic; scheduling is deterministic (identical
submissions produce identical report JSON); late arrivals attach to an
in-progress circular scan mid-extent; admission control bounds per-device
concurrency; and both admission policies order the queue as documented.
"""

import numpy as np
import pytest

import repro
from repro.bench.runners import DeviceKind, make_tpch_db
from repro.engine import (
    AggSpec,
    And,
    Col,
    Compare,
    Const,
    Placement,
    Query,
    run_reference,
)
from repro.errors import PlanError
from repro.host.db import Database
from repro.sched import AdmissionPolicy, QueryScheduler, SchedulerConfig
from repro.storage import Column, Int32Type, Layout, Schema
from repro.workloads import q6_query


def schema():
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def table_rows(count, rng):
    rows = np.empty(count, dtype=schema().numpy_dtype())
    rows["k"] = np.arange(count)
    rows["v"] = rng.integers(0, 100, count)
    return rows


def make_db(n=5000, extra_table_n=None):
    db = Database()
    db.create_smart_ssd()
    rng = np.random.default_rng(7)

    def load(name, count):
        db.create_table(name, schema(), Layout.PAX, table_rows(count, rng),
                        "smart-ssd")

    load("t", n)
    if extra_table_n is not None:
        load("small", extra_table_n)
    return db


def agg_query(table="t", name="agg"):
    return Query(name=name, table=table,
                 predicate=Compare(Col("v"), "<", Const(50)),
                 aggregates=(AggSpec("sum", Col("v"), "s"),
                             AggSpec("count", None, "n")))


def select_query(table="t", name="sel"):
    return Query(name=name, table=table,
                 predicate=Compare(Col("k"), "<", Const(100)),
                 select=(("k", Col("k")), ("v", Col("v"))))


class TestSoloFastPath:
    def test_bit_identical_to_execute_placed(self):
        direct = make_db().execute_placed(agg_query(), "smart")

        scheduler = QueryScheduler(make_db())
        scheduler.submit(agg_query(), "smart")
        via = scheduler.gather()[0]
        assert via.to_json() == direct.to_json()

    def test_window_seconds_set(self):
        scheduler = QueryScheduler(make_db())
        scheduler.submit(agg_query(), "smart")
        report = scheduler.gather()[0]
        assert scheduler.stats["window_seconds"] == report.elapsed_seconds


class TestSharedScans:
    def test_shared_batch_matches_solo_answers(self):
        solo = make_db().execute_placed(agg_query(), "smart")

        scheduler = QueryScheduler(make_db())
        for __ in range(3):
            scheduler.submit(agg_query(), "smart")
        reports = scheduler.gather()
        assert len(reports) == 3
        for report in reports:
            assert report.rows == solo.rows

    def test_shared_batch_elides_nand_reads(self):
        solo = make_db().execute_placed(agg_query(), "smart")
        solo_pages = solo.io.pages_read_device

        scheduler = QueryScheduler(make_db())
        for __ in range(4):
            scheduler.submit(agg_query(), "smart")
        scheduler.gather()
        assert scheduler.stats["shared_pages_read"] < 4 * solo_pages
        assert scheduler.stats["saved_page_reads"] > 0
        assert 4 in scheduler.stats["fan_in"]

    def test_mixed_select_and_aggregate_batch(self):
        solo_agg = make_db().execute_placed(agg_query(), "smart")
        solo_sel = make_db().execute_placed(select_query(), "smart")

        scheduler = QueryScheduler(make_db())
        scheduler.submit(agg_query(), "smart")
        scheduler.submit(select_query(), "smart")
        agg_report, sel_report = scheduler.gather()
        assert agg_report.rows == solo_agg.rows
        assert np.array_equal(sel_report.rows, solo_sel.rows)
        assert sel_report.row_count == solo_sel.row_count

    def test_right_nested_rider_shares_exactly(self):
        """A rider whose predicate is not batch-exact runs its slices of
        the shared unit page by page; nobody's answer or time moves."""
        nested = Query(
            name="nested", table="t",
            predicate=And(Compare(Col("v"), "<", Const(50)),
                          And(Compare(Col("k"), ">=", Const(100)),
                              Compare(Col("k"), "<", Const(4000)))),
            aggregates=(AggSpec("sum", Col("v"), "s"),
                        AggSpec("count", None, "n")))
        riders = [agg_query(), nested]
        rows = table_rows(5000, np.random.default_rng(7))  # make_db's "t"

        def window():
            scheduler = QueryScheduler(make_db())
            for query in riders:
                scheduler.submit(query, "smart")
            reports = scheduler.gather()
            assert scheduler.stats["shared_groups"] == 1
            return reports

        first, second = window(), window()
        for query, report in zip(riders, first):
            assert report.rows == make_db().execute_placed(query,
                                                           "smart").rows
            assert report.rows == [run_reference(query, {"t": schema()},
                                                 {"t": rows})]
        assert ([r.to_json() for r in first]
                == [r.to_json() for r in second])

    def test_sharing_disabled_still_correct(self):
        solo = make_db().execute_placed(agg_query(), "smart")
        scheduler = QueryScheduler(make_db(), SchedulerConfig(
            share_scans=False, max_inflight_per_device=2))
        for __ in range(3):
            scheduler.submit(agg_query(), "smart")
        reports = scheduler.gather()
        assert all(r.rows == solo.rows for r in reports)
        assert scheduler.stats["shared_groups"] == 0


class TestLateAttach:
    # A tiny I/O unit and window keep the circular scan in flight long
    # enough for a staggered arrival to catch it mid-extent.
    CONFIG = SchedulerConfig(io_unit_pages=2, window=2)

    def test_late_arrival_attaches_mid_scan(self):
        scheduler = QueryScheduler(make_db(), self.CONFIG)
        scheduler.submit(agg_query(), "smart")
        scheduler.submit(agg_query(), "smart", at=1e-5)
        reports = scheduler.gather()
        assert scheduler.stats["late_attaches"] >= 1
        solo = make_db().execute_placed(agg_query(), "smart")
        for report in reports:
            assert report.rows == solo.rows

    def test_arrival_after_scan_completes_runs_alone(self):
        scheduler = QueryScheduler(make_db(), self.CONFIG)
        scheduler.submit(agg_query(), "smart")
        scheduler.submit(agg_query(), "smart", at=10.0)
        reports = scheduler.gather()
        assert scheduler.stats["late_attaches"] == 0
        assert reports[0].rows == reports[1].rows


class TestDeterminism:
    def submit_mix(self, scheduler):
        scheduler.submit(agg_query(), "smart")
        scheduler.submit(select_query(), "smart")
        scheduler.submit(agg_query(), "host")
        scheduler.submit(agg_query(), "smart", at=1e-5)
        return scheduler.gather()

    def test_same_submissions_identical_reports(self):
        first = [r.to_json() for r in self.submit_mix(
            QueryScheduler(make_db()))]
        second = [r.to_json() for r in self.submit_mix(
            QueryScheduler(make_db()))]
        assert first == second


class TestAdmissionControl:
    def test_inflight_bound_serializes(self):
        def window(max_inflight):
            scheduler = QueryScheduler(make_db(), SchedulerConfig(
                share_scans=False, max_inflight_per_device=max_inflight))
            for __ in range(3):
                scheduler.submit(agg_query(), "smart")
            scheduler.gather()
            return scheduler.stats

        serialized = window(1)
        wide_open = window(3)
        assert (serialized["window_seconds"]
                > wide_open["window_seconds"])
        # With one slot, the second and third queries wait for admission.
        assert any(w > 0 for w in serialized["admission_waits"])
        assert serialized["max_queue_depth"]["smart-ssd"] >= 2

    def test_policy_orders_queue(self):
        def finish_order(policy):
            db = make_db(n=8000, extra_table_n=500)
            scheduler = QueryScheduler(db, SchedulerConfig(
                max_inflight_per_device=1, policy=policy))
            big = scheduler.submit(agg_query("t"), "smart")
            small = scheduler.submit(agg_query("small"), "smart")
            scheduler.gather()
            return big.done_at, small.done_at

        fifo_big, fifo_small = finish_order(AdmissionPolicy.FIFO)
        assert fifo_big < fifo_small  # submission order
        sef_big, sef_small = finish_order(
            AdmissionPolicy.SHORTEST_EXTENT_FIRST)
        assert sef_small < sef_big    # smaller extent jumps the queue

    def test_policy_coerce(self):
        assert AdmissionPolicy.coerce("fifo") is AdmissionPolicy.FIFO
        assert AdmissionPolicy.coerce("sef") is \
            AdmissionPolicy.SHORTEST_EXTENT_FIRST
        with pytest.raises(PlanError):
            AdmissionPolicy.coerce("lifo")


class TestSubmissionValidation:
    def test_negative_arrival_rejected(self):
        scheduler = QueryScheduler(make_db())
        with pytest.raises(PlanError, match="arrival"):
            scheduler.submit(agg_query(), "smart", at=-1.0)

    def test_unknown_table_rejected_at_submit(self):
        scheduler = QueryScheduler(make_db())
        with pytest.raises(Exception):
            scheduler.submit(agg_query(table="nope"), "smart")

    def test_empty_gather_is_empty(self):
        assert QueryScheduler(make_db()).gather() == []


class TestPushdownVeto:
    def test_smart_veto_raises_from_gather(self):
        """Dirty pooled pages veto an explicit SMART submission (§4.3):
        gather raises, as execute does, instead of rerunning on the host."""
        db = make_db()
        db.update_rows("t", Compare(Col("k"), "==", Const(0)), {"v": 1})
        count = Query(name="count", table="t",
                      aggregates=(AggSpec("count", None, "n"),))
        scheduler = QueryScheduler(db)
        scheduler.submit(count, "smart")
        with pytest.raises(PlanError, match="dirty"):
            scheduler.gather()
        assert scheduler.submissions == []
        assert scheduler.write_submissions == []
        db.flush_table("t")
        ticket = scheduler.submit(count, "smart")
        (report,) = scheduler.gather()
        assert report.placement == "smart"
        assert report.rows == [{"n": 5000}]
        assert report.io.pages_read_device > 0
        assert not ticket.rescued
        assert scheduler.stats["solo_rescues"] == 0


class TestObservability:
    def test_scheduled_run_emits_valid_chrome_trace(self):
        """The sched spans ride the chrome-trace export and validate."""
        import json

        from repro.obs import chrome_trace, validate_chrome_trace

        db = make_db()
        obs = db.enable_observability()
        scheduler = QueryScheduler(db)
        for __ in range(3):
            scheduler.submit(agg_query(), "smart")
        scheduler.gather()

        # One admission per clique: the leader queues, riders share its
        # slot via the cooperative scan.
        assert len(obs.spans_named("sched.queued")) == 1
        assert len(obs.spans_named("query")) == 3

        payload = json.loads(json.dumps(chrome_trace(obs)))
        counts = validate_chrome_trace(payload)
        assert counts["X"] > 0
        names = {event["name"] for event in payload["traceEvents"]
                 if event.get("ph") == "X"}
        assert "sched.queued" in names

    def test_cli_sched_target_traces(self, tmp_path, capsys):
        from repro.cli import cmd_trace

        output = tmp_path / "trace.json"
        assert cmd_trace("sched", output, None) == 0
        assert output.exists()


class TestSessionFrontDoor:
    def loaded_session(self):
        session = repro.connect()
        session.db.create_smart_ssd()
        rows = np.empty(3000, dtype=schema().numpy_dtype())
        rows["k"] = np.arange(3000)
        rows["v"] = np.arange(3000) % 13
        session.create_table("t", schema(), Layout.PAX, rows, "smart-ssd")
        return session

    def test_submit_gather_round_trip(self):
        session = self.loaded_session()
        solo = session.db.execute_placed(agg_query(), "smart")
        session.submit(agg_query(), placement=Placement.SMART)
        session.submit(agg_query(), placement=Placement.SMART)
        reports = session.gather()
        assert len(reports) == 2
        assert all(r.rows == solo.rows for r in reports)

    def test_submit_compiles_sql(self):
        session = self.loaded_session()
        session.submit("SELECT COUNT(*) AS n FROM t WHERE v < 5",
                       placement=Placement.SMART)
        report = session.gather()[0]
        direct = session.execute("SELECT COUNT(*) AS n FROM t WHERE v < 5",
                                 placement=Placement.SMART)
        assert report.rows == direct.rows

    def test_delayed_q6_reports_the_pages_it_read(self):
        # A submission arriving after the window opens runs as a one-member
        # shared scan; its report must count the NAND pages like execute.
        def session():
            return repro.Session(make_tpch_db(DeviceKind.SMART, Layout.PAX,
                                              0.005))

        direct = session().execute(q6_query(), Placement.SMART)
        delayed = session()
        delayed.submit(q6_query(), Placement.SMART, at=1e-3)
        report = delayed.gather()[0]
        assert report.counters.shared_scans_joined == 1
        assert report.rows == direct.rows
        assert report.io.pages_read_device == direct.io.pages_read_device > 0


class TestSharedScanSkipping:
    """Shared scans with per-rider pruning: the stream reads the union of
    the riders' needed pages — never skipping a page another rider wants —
    and every answer stays identical to a solo run."""

    def make_clustered_db(self, n=6000):
        # v sorted across the extent -> narrow per-page zone maps -> the
        # range predicates below each need a different slice of pages.
        db = Database()
        db.create_smart_ssd()
        rows = np.empty(n, dtype=schema().numpy_dtype())
        rows["k"] = np.arange(n)
        rows["v"] = np.arange(n)
        db.create_table("t", schema(), Layout.PAX, rows, "smart-ssd")
        return db

    @staticmethod
    def low_query(n=6000):
        return Query(name="low", table="t",
                     predicate=Compare(Col("v"), "<", Const(n // 10)),
                     aggregates=(AggSpec("count", None, "n"),
                                 AggSpec("sum", Col("v"), "s")))

    @staticmethod
    def high_query(n=6000):
        return Query(name="high", table="t",
                     predicate=Compare(Col("v"), ">=", Const(n - n // 10)),
                     aggregates=(AggSpec("count", None, "n"),
                                 AggSpec("sum", Col("v"), "s")))

    def test_heterogeneous_riders_read_the_union(self):
        solo_low = self.make_clustered_db().execute_placed(
            self.low_query(), "smart")
        solo_high = self.make_clustered_db().execute_placed(
            self.high_query(), "smart")
        assert solo_low.counters.pages_skipped > 0
        assert solo_high.counters.pages_skipped > 0

        db = self.make_clustered_db()
        page_count = db.catalog.table("t").page_count
        scheduler = QueryScheduler(db)
        scheduler.submit(self.low_query(), "smart")
        scheduler.submit(self.high_query(), "smart")
        low_report, high_report = scheduler.gather()
        assert low_report.rows == solo_low.rows
        assert high_report.rows == solo_high.rows
        # The stream skipped the middle of the extent but read the union
        # of both riders' page sets: no rider's page was skipped for it.
        union = (solo_low.io.pages_read_device
                 + solo_high.io.pages_read_device)
        assert scheduler.stats["shared_pages_read"] == union
        assert scheduler.stats["pages_skipped"] == page_count - union
        assert scheduler.stats["pages_skipped"] > 0
        # Each rider's report counts the pages read on its behalf: exactly
        # what its solo scan reads.
        assert (low_report.io.pages_read_device
                == solo_low.io.pages_read_device)
        assert (high_report.io.pages_read_device
                == solo_high.io.pages_read_device)

    def test_identical_riders_skip_identically(self):
        solo = self.make_clustered_db().execute_placed(
            self.low_query(), "smart")
        scheduler = QueryScheduler(self.make_clustered_db())
        for __ in range(3):
            scheduler.submit(self.low_query(), "smart")
        reports = scheduler.gather()
        assert all(r.rows == solo.rows for r in reports)
        assert (scheduler.stats["shared_pages_read"]
                == solo.io.pages_read_device)
        assert scheduler.stats["saved_page_reads"] > 0

    def test_mid_scan_attach_with_pruning_stays_exact(self):
        config = SchedulerConfig(io_unit_pages=2, window=2)
        solo_low = self.make_clustered_db().execute_placed(
            self.low_query(), "smart")
        solo_high = self.make_clustered_db().execute_placed(
            self.high_query(), "smart")
        scheduler = QueryScheduler(self.make_clustered_db(), config)
        scheduler.submit(self.low_query(), "smart")
        scheduler.submit(self.high_query(), "smart", at=1e-5)
        low_report, high_report = scheduler.gather()
        assert low_report.rows == solo_low.rows
        assert high_report.rows == solo_high.rows

    def test_obs_metric_matches_scheduler_stats(self):
        db = self.make_clustered_db()
        obs = db.enable_observability()
        scheduler = QueryScheduler(db)
        scheduler.submit(self.low_query(), "smart")
        scheduler.submit(self.high_query(), "smart")
        scheduler.gather()
        skipped = obs.metrics.counter("device.pages_skipped",
                                      device="smart-ssd").value
        assert skipped == scheduler.stats["pages_skipped"] > 0

    def test_solo_pages_read_reflects_skips(self):
        db = self.make_clustered_db()
        page_count = db.catalog.table("t").page_count
        report = db.execute_placed(self.low_query(), "smart")
        assert report.counters.pages_skipped > 0
        assert report.io.pages_read_device == (
            page_count - report.counters.pages_skipped)

    def test_two_limit_queries_share_one_scan(self):
        # Every member of a shared scan keeps its own device top-N pool,
        # so LIMIT queries share like any other scan.
        db = self.make_clustered_db()
        scheduler = QueryScheduler(db)
        limited = Query(name="topn", table="t",
                        select=(("k", Col("k")), ("v", Col("v"))),
                        order_by="v", descending=True, limit=5)
        scheduler.submit(limited, "smart")
        scheduler.submit(limited, "smart")
        reports = scheduler.gather()
        assert scheduler.stats["shared_members"] == 2
        solo = self.make_clustered_db().execute_placed(limited, "smart")
        for report in reports:
            for name in ("k", "v"):
                assert np.array_equal(report.rows[name], solo.rows[name])
