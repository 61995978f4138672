"""One device scan: a solo query is a one-member shared scan.

Every query runs through the same scheduler window (``Session.execute`` is
a one-submission window) and every pushdown through the same device body
and host driver, so the door a query comes in by cannot change what it
costs: ``Session.execute``, an immediate ``submit`` and a delayed
``submit`` give the same time, rows, counters and page count, on the host,
on the device and under the optimizer. Members of a multi-query scan split
the scan's work between them without losing or doubling any of it.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.engine import AggSpec, Col, Compare, Const, JoinSpec, Placement, Query
from repro.host.db import Database
from repro.smart.protocol import OpenParams, SessionStatus
from repro.storage import Column, Int32Type, Layout, Schema

#: A delayed arrival. Event times shift by the offset, so an offset whose
#: float sums round differently (such as 1e-3) would move the last bit of
#: the elapsed time — a clock effect, not a door difference.
DELAY = 2.0 ** -20


def schema():
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def make_db(n=20_000):
    db = Database()
    db.create_smart_ssd()
    rng = np.random.default_rng(7)
    rows = np.empty(n, dtype=schema().numpy_dtype())
    rows["k"] = np.arange(n)
    rows["v"] = rng.integers(0, 100, n)
    db.create_table("t", schema(), Layout.PAX, rows, "smart-ssd")
    dim_schema = Schema([Column("pk", Int32Type()),
                         Column("label", Int32Type())])
    dim = np.empty(100, dtype=dim_schema.numpy_dtype())
    dim["pk"] = np.arange(100)
    dim["label"] = np.arange(100) * 3
    db.create_table("dim", dim_schema, Layout.PAX, dim, "smart-ssd")
    return db


QUERIES = {
    "select": Query(name="sel", table="t",
                    predicate=Compare(Col("k"), "<", Const(100)),
                    select=(("k", Col("k")), ("v", Col("v")))),
    "aggregate": Query(name="agg", table="t",
                       predicate=Compare(Col("v"), "<", Const(50)),
                       aggregates=(AggSpec("sum", Col("v"), "s"),
                                   AggSpec("count", None, "n"))),
    "top-n": Query(name="top", table="t",
                   select=(("k", Col("k")), ("v", Col("v"))),
                   order_by="v", descending=True, limit=5),
    "join": Query(name="join", table="t",
                  join=JoinSpec(build_table="dim", build_key="pk",
                                probe_key="v", payload=("label",)),
                  predicate=Compare(Col("k"), "<", Const(5_000)),
                  select=(("k", Col("k")), ("label", Col("label")))),
}


def via_submit(query, at, placement=Placement.SMART):
    session = repro.Session(make_db())
    session.submit(query, placement, at=at)
    (report,) = session.gather()
    return report


def same_rows(a, b):
    if isinstance(a, list):
        return a == b
    return a.dtype == b.dtype and all(np.array_equal(a[name], b[name])
                                      for name in a.dtype.names)


@pytest.mark.parametrize("shape", sorted(QUERIES))
def test_three_doors_agree(shape):
    query = QUERIES[shape]
    direct = repro.Session(make_db()).execute(query, Placement.SMART)
    now = via_submit(query, 0.0)
    later = via_submit(query, DELAY)
    for report in (now, later):
        assert report.elapsed_seconds == direct.elapsed_seconds
        assert same_rows(report.rows, direct.rows)
        assert report.counters == direct.counters
        assert report.io.pages_read_device == direct.io.pages_read_device
    # Immediate submission measures the same window as execute does.
    assert now.to_json() == direct.to_json()


@pytest.mark.parametrize("placement", [Placement.HOST, Placement.AUTO])
@pytest.mark.parametrize("shape", sorted(QUERIES))
def test_three_doors_agree_on_host_and_auto(shape, placement):
    query = QUERIES[shape]
    direct = repro.Session(make_db()).execute(query, placement)
    now = via_submit(query, 0.0, placement)
    later = via_submit(query, DELAY, placement)
    for report in (now, later):
        assert report.placement == direct.placement
        assert report.elapsed_seconds == direct.elapsed_seconds
        assert same_rows(report.rows, direct.rows)
        assert report.counters == direct.counters
        assert report.io == direct.io
    # The delayed window's energy and utilization also cover its idle
    # lead-in, so only the immediate door matches in full.
    assert now.to_json() == direct.to_json()


def test_execute_leaves_pending_submissions_alone():
    """``execute`` runs a window of its own: a submission queued on the
    session's scheduler stays pending and unchanged until ``gather``."""
    session = repro.Session(make_db())
    query = QUERIES["aggregate"]
    ticket = session.submit(query, Placement.SMART)
    before = dataclasses.replace(ticket)
    session.execute(QUERIES["select"], Placement.SMART)
    assert session.scheduler.submissions == [ticket]
    assert ticket == before and ticket.outcome is None
    (report,) = session.gather()
    alone = via_submit(query, 0.0)
    assert report.elapsed_seconds == alone.elapsed_seconds
    assert same_rows(report.rows, alone.rows)
    assert report.counters == alone.counters


def test_members_split_the_session_work():
    """The members' counters of a shared scan sum to the session's."""
    db = make_db()
    table = db.catalog.table("t")
    device = db.device("smart-ssd")
    batch = (QUERIES["aggregate"],
             Query(name="agg2", table="t",
                   predicate=Compare(Col("k"), ">=", Const(4_000)),
                   aggregates=(AggSpec("count", None, "n"),)))

    def driver():
        session_id = yield from device.open_session(OpenParams(
            program="shared_scan",
            arguments={"queries": batch, "heap": table.heap}))
        done = []
        while True:
            response = yield from device.get(session_id)
            done.extend(item[2] for item in response.payload
                        if item[0] == "done")
            if (response.status is SessionStatus.DONE
                    and not response.payload):
                break
        session = device.runtime.session(session_id).counters
        yield from device.close_session(session_id)
        return done, session

    proc = db.sim.process(driver())
    db.sim.run()
    done, session = proc.value
    assert len(done) == 2
    total = type(session)()
    for counters in done:
        total.add(counters)
    assert total == session
    assert session.io_units > 0 and session.pages_parsed > 0
