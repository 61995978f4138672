"""Every door works on every table kind, served or not.

The doors are ``execute``, ``submit``/``gather``, ``submit_update`` +
``gather``, ``explain`` and, with serving on, ``update``. The table kinds
are a plain one-device table and hash-, range-, round-robin-sharded and
replicated tables over two Smart SSDs. Every answer equals
``run_reference`` over the same rows; the queries are integer-exact, so
the comparison is exact. A session owns one scheduler: serving runs on
it, so a write ticket submitted beside served queries runs in their
window.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro import Layout, Placement, ServeConfig, ShardSpec
from repro.engine import Add, AggSpec, Col, Compare, Const, Query
from repro.engine import run_reference
from repro.errors import CatalogError, ServingError
from repro.smart.device import SmartSsdSpec
from repro.workloads.tpch import generate_lineitem, lineitem_schema, q6_query

SCALE = 0.002  # 12,000 LINEITEM rows
LINEITEM = generate_lineitem(SCALE)
DEVICES = ("smart-0", "smart-1")
SPECS = {
    "plain": None,
    "hash": ShardSpec(kind="hash", key="l_orderkey"),
    "range": ShardSpec(kind="range", key="l_orderkey",
                       bounds=(int(np.median(LINEITEM["l_orderkey"])),)),
    "round_robin": ShardSpec(kind="round_robin"),
    "replicated": ShardSpec(kind="replicated"),
}
KINDS = sorted(SPECS)

#: The statement every write door runs: 117 rows at this scale.
PREDICATE = Compare(Col("l_orderkey"), "<", Const(100))
ASSIGNMENTS = {"l_quantity": Add(Col("l_quantity"), Const(100))}

SCALAR = Query(
    name="scalar", table="lineitem",
    predicate=Compare(Col("l_quantity"), "<", Const(2500)),
    aggregates=(AggSpec("count", None, "n"),
                AggSpec("sum", Col("l_quantity"), "qty"),
                AggSpec("min", Col("l_orderkey"), "lo"),
                AggSpec("max", Col("l_orderkey"), "hi")))
GROUPED = Query(
    name="grouped", table="lineitem", group_by="l_returnflag",
    aggregates=(AggSpec("count", None, "n"),
                AggSpec("sum", Col("l_quantity"), "qty")))
QUERIES = (SCALAR, GROUPED)


def world(kind, serve=False, rows=LINEITEM, replicas=len(DEVICES)):
    session = repro.connect()
    names = [f"smart-{i}" for i in range(replicas)]
    for name in names:
        session.db.create_smart_ssd(SmartSsdSpec(name=name))
    if SPECS[kind] is None:
        session.create_table("lineitem", lineitem_schema(), Layout.PAX,
                             rows, names[0])
    else:
        session.create_sharded_table("lineitem", lineitem_schema(),
                                     Layout.PAX, rows, names,
                                     spec=SPECS[kind])
    if serve:
        session.serve()
    return session


def updated_rows():
    rows = LINEITEM.copy()
    hit = rows["l_orderkey"] < 100
    rows["l_quantity"][hit] += 100
    return rows


def expected(query, rows=LINEITEM):
    """``run_reference`` in the shape a report carries."""
    result = run_reference(query, {"lineitem": lineitem_schema()},
                           {"lineitem": rows})
    if query.group_by is None:
        return [result]
    return [{query.group_by: group, **result[group]}
            for group in sorted(result)]


def assert_reads(session, rows=LINEITEM):
    for query in QUERIES:
        assert session.execute(query, Placement.SMART).rows == \
            expected(query, rows)


CHANGED = int((LINEITEM["l_orderkey"] < 100).sum())


@pytest.mark.parametrize("serve", [False, True], ids=["unserved", "served"])
@pytest.mark.parametrize("kind", KINDS)
class TestDoorMatrix:
    def test_execute(self, kind, serve):
        assert_reads(world(kind, serve))

    def test_submit_gather(self, kind, serve):
        session = world(kind, serve)
        tickets = [session.submit(query, Placement.SMART)
                   for query in QUERIES]
        reports = session.gather()
        assert [report.rows for report in reports] == \
            [expected(query) for query in QUERIES]
        if serve:
            assert [ticket.report for ticket in tickets] == reports

    def test_submit_update_gather(self, kind, serve):
        session = world(kind, serve)
        ticket = session.submit_update("lineitem", PREDICATE, ASSIGNMENTS)
        assert session.gather() == []
        assert ticket.rows_changed == CHANGED
        assert ticket.done_at is not None
        assert_reads(session, updated_rows())

    def test_explain(self, kind, serve):
        session = world(kind, serve)
        lines = session.explain(SCALAR).split("\n")
        if kind == "plain":
            assert lines[0].startswith("scalar (placement=smart, "
                                       "device=smart-0")
            return
        fan_out = 1 if kind == "replicated" else 2
        assert lines[0] == (f"scalar (scatter over {kind} table lineitem: "
                            f"fan-out {fan_out} of 2 shards, pruned [])")
        # Below the scatter line: shard 0's own plan, unchanged.
        shard = session.db.explain(
            dataclasses.replace(SCALAR, table="lineitem#0", name="scalar/s0"))
        assert lines[1:] == shard.split("\n")

    def test_update(self, kind, serve):
        session = world(kind, serve)
        if not serve and kind != "plain":
            # The synchronous write door over a sharded table is the next
            # slice of ROADMAP item 8; today it is refused by name.
            with pytest.raises(CatalogError, match="unknown table"):
                session.update("lineitem", PREDICATE, ASSIGNMENTS)
            return
        assert session.update("lineitem", PREDICATE, ASSIGNMENTS) == CHANGED
        if not serve:
            session.flush_table("lineitem")
        assert_reads(session, updated_rows())


def test_explain_names_pruned_range_shards():
    session = world("range")
    query = dataclasses.replace(SCALAR, predicate=PREDICATE)
    first = session.explain(query).split("\n")[0]
    assert first == ("scalar (scatter over range table lineitem: "
                     "fan-out 1 of 2 shards, pruned [1])")


@pytest.mark.parametrize("kind", ["plain", "hash"])
def test_served_update_ticket_is_not_lost(kind):
    """A write ticket submitted beside served queries runs in their
    window: one gather resolves both, and nothing is left for the next."""
    session = world(kind, serve=True)
    handle = session.submit(SCALAR, tenant="a")
    ticket = session.submit_update("lineitem", PREDICATE, ASSIGNMENTS)
    (report,) = session.gather()
    assert handle.report is report
    assert ticket.done_at is not None
    assert ticket.rows_changed == CHANGED
    assert_reads(session, updated_rows())
    assert session.gather() == []


def test_one_scheduler_per_session():
    session = world("plain")
    assert session.serve().scheduler is session.scheduler


def test_serve_configures_the_one_scheduler():
    session = world("plain")
    session.serve(ServeConfig(backend="thread"))
    assert session.scheduler.config.backend == "thread"
    session.close()
    session = world("plain")
    session.scheduler  # built with the default serial backend
    with pytest.raises(ServingError, match="serial"):
        session.serve(ServeConfig(backend="process"))


@pytest.mark.parametrize("kind", KINDS)
def test_doors_report_identical_elapsed(kind):
    """On fresh worlds ``execute``, ``submit(at=0)`` and a served submit
    price the same query to the last bit."""
    direct = world(kind).execute(SCALAR, Placement.SMART)
    unserved = world(kind)
    unserved.submit(SCALAR, Placement.SMART, at=0.0)
    (submitted,) = unserved.gather()
    served = world(kind, serve=True)
    served.submit(SCALAR, Placement.SMART, tenant="a")
    (through_frontend,) = served.gather()
    assert submitted.elapsed_seconds == direct.elapsed_seconds
    assert through_frontend.elapsed_seconds == direct.elapsed_seconds
    assert submitted.rows == through_frontend.rows == direct.rows


COUNT = Query(name="count", table="lineitem",
              aggregates=(AggSpec("count", None, "n"),))


@pytest.mark.parametrize("replicas", [1, 2, 3])
@pytest.mark.parametrize("query", [COUNT, q6_query()], ids=["count", "q6"])
def test_replicated_table_is_read_once(query, replicas):
    """Every copy holds every row, so a read scans one of them."""
    want = expected(query)
    session = world("replicated", replicas=replicas)
    session.submit(query, tenant="a")
    (report,) = session.gather()
    assert report.rows == want
    assert session.execute(query, Placement.SMART).rows == want


def test_replicated_write_counts_logical_rows():
    """Every copy is written; the count and the version bump are the
    logical table's."""
    session = world("replicated", serve=True, replicas=3)
    catalog = session.db.catalog
    assert session.update("lineitem", PREDICATE, ASSIGNMENTS) == CHANGED
    assert catalog.version("lineitem") == 1
    ticket = session.submit_update("lineitem", PREDICATE, ASSIGNMENTS)
    session.gather()
    assert ticket.rows_changed == CHANGED
    assert catalog.version("lineitem") == 2
    for index in range(3):
        query = dataclasses.replace(SCALAR, table=f"lineitem#{index}")
        rows = LINEITEM.copy()
        rows["l_quantity"][rows["l_orderkey"] < 100] += 200
        assert session.execute(query, Placement.SMART).rows == \
            expected(SCALAR, rows)


@pytest.mark.parametrize("kind", ["hash", "round_robin"])
def test_sharded_submit_update_bumps_version_once(kind):
    session = world(kind)
    catalog = session.db.catalog
    noop = Compare(Col("l_orderkey"), "<", Const(-1))
    session.submit_update("lineitem", noop, ASSIGNMENTS)
    session.gather()
    assert catalog.version("lineitem") == 0
    ticket = session.submit_update("lineitem", PREDICATE, ASSIGNMENTS)
    session.gather()
    assert len(ticket.shards) == 2
    assert ticket.rows_changed == sum(
        shard.rows_changed for shard in ticket.shards) == CHANGED
    assert catalog.version("lineitem") == 1
