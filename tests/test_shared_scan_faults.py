"""Fault injection on shared device scans: one retry ladder for every member.

A device scan serving several queries recovers exactly like a scan serving
one: a lost GET reply is re-polled inside the session, a crashed session is
re-OPENed for the members it had not finished, and when every attempt
fails those members run on the host. Every answer must still equal the
reference executor's.
"""

import numpy as np

from repro.engine import (
    AggSpec,
    Col,
    Compare,
    Const,
    Placement,
    Query,
    run_reference,
)
from repro.faults import SITE_GET_TIMEOUT, SITE_SESSION_CRASH, FaultPlan
from repro.host.db import Database
from repro.sched import QueryScheduler
from repro.storage import Column, Int32Type, Layout, Schema

ROWS = 20_000


def schema():
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def rows_array():
    rng = np.random.default_rng(11)
    array = np.empty(ROWS, dtype=schema().numpy_dtype())
    array["k"] = np.arange(ROWS, dtype=np.int32)
    array["v"] = rng.integers(0, 1000, ROWS)
    return array


def queries():
    return [
        Query(name="sum", table="t",
              predicate=Compare(Col("k"), "<", Const(7_000)),
              aggregates=(AggSpec("sum", Col("v"), "s"),
                          AggSpec("count", None, "n"))),
        Query(name="sel", table="t",
              predicate=Compare(Col("v"), "<", Const(20)),
              select=(("k", Col("k")), ("v", Col("v")))),
        Query(name="top", table="t",
              select=(("k", Col("k")), ("v", Col("v"))),
              order_by="v", descending=True, limit=7),
    ]


def run_batch(plan, batch):
    db = Database()
    db.install_fault_plan(plan)
    db.create_smart_ssd()
    array = rows_array()
    db.create_table("t", schema(), Layout.PAX, array, "smart-ssd")
    scheduler = QueryScheduler(db)
    for query in batch:
        scheduler.submit(query, Placement.SMART)
    return scheduler, scheduler.gather(), array


def assert_reference(report, query, array):
    expected = run_reference(query, {"t": schema()}, {"t": array})
    if query.aggregates:
        assert report.rows == [expected]
    else:
        for name in expected:
            assert np.array_equal(report.rows[name], expected[name])
            assert report.rows[name].dtype == expected[name].dtype


class TestSessionCrash:
    def test_crash_re_opens_the_scan_for_every_member(self):
        plan = FaultPlan(seed=3)
        plan.add(SITE_SESSION_CRASH, limit=1)
        batch = queries()
        scheduler, reports, array = run_batch(plan, batch)
        assert plan.fired_count(SITE_SESSION_CRASH) == 1
        assert scheduler.stats["shared_members"] == 3
        for report, query in zip(reports, batch):
            assert_reference(report, query, array)
            assert report.placement == "smart"
            assert report.counters.device_program_crashes == 1
            assert report.counters.session_retries == 1
            assert report.counters.pushdown_fallbacks == 0

    def test_persistent_crash_falls_back_to_host_per_member(self):
        plan = FaultPlan(seed=3)
        plan.add(SITE_SESSION_CRASH)
        batch = queries()
        scheduler, reports, array = run_batch(plan, batch)
        assert scheduler.stats["solo_rescues"] == 3
        for report, query in zip(reports, batch):
            assert_reference(report, query, array)
            assert report.counters.session_retries == 1
            assert report.counters.pushdown_fallbacks == 1


class TestGetTimeout:
    def test_lost_reply_is_retried_in_the_session(self):
        plan = FaultPlan(seed=5)
        plan.add(SITE_GET_TIMEOUT, limit=1)
        batch = queries()[:2]
        scheduler, reports, array = run_batch(plan, batch)
        assert scheduler.stats["shared_members"] == 2
        assert scheduler.stats["solo_rescues"] == 0
        for report, query in zip(reports, batch):
            assert_reference(report, query, array)
            assert report.counters.get_timeouts == 1
            assert report.counters.session_retries == 0
            assert report.counters.device_program_crashes == 0
