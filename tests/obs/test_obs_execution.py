"""Observability through real executions: nesting, export, determinism.

The contracts under test:

* spans on any one track nest properly (or are disjoint) even when several
  queries run concurrently — each run gets its own ``query:<name>#<i>``
  lane, so Perfetto renders clean stacked slices;
* the chrome-trace export round-trips through JSON and validates, with one
  track per flash channel / DRAM bus / session;
* metrics are deterministic: two identical seeded worlds produce the same
  snapshot, value for value;
* with observability *disabled* (the default) the run is bit-identical to
  the uninstrumented seed — same virtual elapsed, rows, counters, and the
  committed golden figure output.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.engine import AggSpec, Col, Compare, Const, Placement, Query
from repro.host.db import Database
from repro.obs import chrome_trace, validate_chrome_trace
from repro.sched import QueryScheduler, SchedulerConfig
from repro.storage import Column, Int32Type, Layout, Schema

RESULTS = Path(__file__).resolve().parents[2] / "results"


def schema():
    return Schema([Column("a", Int32Type()), Column("b", Int32Type())])


def table_rows(n=4000):
    rng = np.random.default_rng(7)
    rows = np.empty(n, dtype=schema().numpy_dtype())
    rows["a"] = rng.permutation(n).astype(np.int32)
    rows["b"] = rng.integers(0, 100, n)
    return rows


def make_db(observability):
    db = Database()
    db.create_smart_ssd()
    db.create_table("t", schema(), Layout.PAX, table_rows(), "smart-ssd")
    if observability:
        db.enable_observability()
    return db


def agg_query(name="agg-q"):
    return Query(name=name, table="t",
                 predicate=Compare(Col("a"), "<", Const(2000)),
                 aggregates=(AggSpec("sum", Col("b"), "s"),
                             AggSpec("count", None, "n")))


def assert_properly_nested(records):
    """Spans on one track must nest or be disjoint — never partially overlap."""
    eps = 1e-12
    stack = []
    for record in records:  # pre-sorted by (start, -end)
        while stack and record.start >= stack[-1].end - eps:
            stack.pop()
        for parent in stack:
            assert record.start >= parent.start - eps
            assert record.end <= parent.end + eps, (
                f"{record.name} [{record.start}, {record.end}] straddles "
                f"{parent.name} [{parent.start}, {parent.end}]")
        stack.append(record)


class TestSpanNesting:
    def test_single_run_records_protocol_spans(self):
        db = make_db(observability=True)
        report = db.execute_placed(agg_query(), Placement.SMART)
        names = {record.name for record in db.obs.spans}
        assert {"query", "smart.session", "smart.open", "smart.get",
                "smart.close", "device.scan",
                "nand.read", "ftl.lookup", "dram.dma"} <= names
        root = db.obs.spans_named("query")[0]
        assert root.duration == pytest.approx(report.elapsed_seconds)
        assert report.profile is not None
        assert report.profile["spans"]["query"]["count"] == 1

    def test_every_track_nests_under_concurrency(self):
        db = make_db(observability=True)
        runs = [(agg_query("c0"), Placement.SMART),
                (agg_query("c1"), Placement.SMART),
                (agg_query("c2"), Placement.HOST)]
        session = Session(db, SchedulerConfig(share_scans=False))
        for query, placement in runs:
            session.submit(query, placement)
        reports = session.gather()
        grouped = db.obs.spans_by_track()
        for track, records in grouped.items():
            assert_properly_nested(records)
        roots = db.obs.spans_named("query")
        assert len(roots) == len(runs)
        # Each run owns its own lane and its root span times the whole run.
        by_track = {record.track: record for record in roots}
        assert set(by_track) == {"query:c0#0", "query:c1#1", "query:c2#2"}
        for i, report in enumerate(reports):
            root = by_track[f"query:{runs[i][0].name}#{i}"]
            assert root.duration == pytest.approx(report.elapsed_seconds)

    def test_session_tracks_are_per_session(self):
        db = make_db(observability=True)
        db.execute_placed(agg_query(), Placement.SMART)
        session_tracks = [track for track in db.obs.spans_by_track()
                          if track.startswith("smart-ssd:session-")]
        assert session_tracks, "device program spans missing"


class TestChannelSpansCoverBusyTime:
    def test_contended_channel_spans_sum_to_busy_time(self):
        """Three unshared scans queue on the same flash channels; each
        channel's root spans still add up to exactly its busy time."""
        db = make_db(observability=True)
        scheduler = QueryScheduler(db, SchedulerConfig(share_scans=False))
        for i in range(3):
            scheduler.submit(agg_query(f"c{i}"), Placement.SMART)
        scheduler.gather()
        now = db.sim.now
        grouped = db.obs.spans_by_track()
        handoffs = 0
        for channel in db.device("smart-ssd").controller.channels:
            records = grouped.get(channel.name, [])
            for record in records:
                assert 0.0 <= record.start <= record.end <= now
            roots = [record for record in records if record.depth == 0]
            busy = channel.busy.busy_time(now)
            assert sum(record.duration for record in roots) == \
                pytest.approx(busy, rel=1e-12, abs=0.0)
            handoffs += sum(1 for left, right in zip(roots, roots[1:])
                            if right.start == left.end)
        # Queued holds start the instant the previous holder releases.
        assert handoffs > 0


class TestChromeTraceExport:
    def test_round_trip_validates_with_expected_tracks(self):
        db = make_db(observability=True)
        db.execute_placed(agg_query(), Placement.SMART)
        payload = json.loads(json.dumps(chrome_trace(db.obs)))
        counts = validate_chrome_trace(payload)
        assert counts["X"] > 0 and counts["M"] > 0 and counts["C"] > 0

        tracks = {event["args"]["name"]
                  for event in payload["traceEvents"]
                  if event["ph"] == "M" and event["name"] == "thread_name"}
        assert "flash-channel-0" in tracks
        assert "device-dram-bus" in tracks
        assert any(track.startswith("query:") for track in tracks)
        assert any(track.startswith("smart-ssd:session-")
                   for track in tracks)

        span_names = {event["name"] for event in payload["traceEvents"]
                      if event["ph"] == "X"}
        assert {"smart.open", "smart.get", "smart.close",
                "nand.read"} <= span_names

    def test_counter_samples_come_from_resource_tracer(self):
        db = make_db(observability=True)
        db.execute_placed(agg_query(), Placement.SMART)
        payload = chrome_trace(db.obs)
        counters = {event["name"] for event in payload["traceEvents"]
                    if event["ph"] == "C"}
        assert "device-dram-bus" in counters
        payload = chrome_trace(db.obs, include_counters=False)
        assert not any(event["ph"] == "C"
                       for event in payload["traceEvents"])


class TestDeterminism:
    def run_once(self):
        db = make_db(observability=True)
        db.execute_placed(agg_query(), Placement.SMART)
        db.execute_placed(agg_query("second"), Placement.HOST)
        return db

    def test_metrics_identical_across_seeded_runs(self):
        first = self.run_once().obs.metrics.snapshot()
        second = self.run_once().obs.metrics.snapshot()
        assert first == second
        assert any(key.startswith("nand.read.pages{channel=")
                   for key in first)
        assert any(key.startswith("work.") for key in first)

    def test_virtual_spans_identical_across_seeded_runs(self):
        first = self.run_once().obs
        second = self.run_once().obs
        assert [(r.name, r.track, r.start, r.end, r.depth)
                for r in first.spans] == \
               [(r.name, r.track, r.start, r.end, r.depth)
                for r in second.spans]


class TestDisabledObservabilityIsFree:
    def test_enabled_run_matches_disabled_run_exactly(self):
        plain = make_db(observability=False)
        traced = make_db(observability=True)
        query = agg_query()
        report_plain = plain.execute_placed(query, Placement.SMART)
        report_traced = traced.execute_placed(query, Placement.SMART)
        # Spans never schedule events: the virtual timeline is bit-identical.
        assert report_plain.elapsed_seconds == report_traced.elapsed_seconds
        assert report_plain.rows == report_traced.rows
        assert report_plain.counters == report_traced.counters
        assert report_plain.io.pages_read_device == \
            report_traced.io.pages_read_device
        assert report_plain.profile is None
        assert report_traced.profile is not None

    def test_disabled_obs_keeps_golden_figure_bit_identical(self):
        from repro.bench.figures import fig3_q6
        rendered = fig3_q6().table() + "\n"
        golden = (RESULTS / "figure_3.txt").read_text()
        assert rendered == golden
