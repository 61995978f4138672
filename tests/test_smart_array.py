"""The multi-Smart-SSD array (paper §4.3 endpoint) on the sharded catalog.

An "array" is a round-robin sharded table over N Smart SSDs (dimension
tables replicated), queried through the session's scatter/gather path.
"""

import numpy as np
import pytest

import repro
from repro import Layout, Placement, ShardSpec, SmartSsdSpec
from repro.engine import AggSpec, Col, Compare, Const, Query, run_reference
from repro.errors import CatalogError, PlanError
from repro.storage import Column, Int32Type, Schema
from repro.workloads import (
    generate_lineitem,
    generate_part,
    lineitem_schema,
    part_schema,
    q6_query,
    q14_query,
)


@pytest.fixture
def schema():
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def make_rows(schema, n=1000):
    rng = np.random.default_rng(11)
    rows = np.empty(n, dtype=schema.numpy_dtype())
    rows["k"] = np.arange(n)
    rows["v"] = rng.integers(0, 100, n)
    return rows


def make_array(device_count, tables):
    """A session over ``device_count`` Smart SSDs; ``tables`` maps a name
    to ``(schema, rows, ShardSpec)``."""
    session = repro.connect()
    names = [f"smart-ssd-{i}" for i in range(device_count)]
    for name in names:
        session.db.create_smart_ssd(SmartSsdSpec(name=name))
    for table, (schema, rows, spec) in tables.items():
        session.create_sharded_table(table, schema, Layout.PAX, rows, names,
                                     spec=spec)
    return session


def run(session, query):
    session.submit(query, tenant="array")
    (report,) = session.gather()
    return report


ROUND_ROBIN = ShardSpec(kind="round_robin")
REPLICATED = ShardSpec(kind="replicated")


class TestPartitioning:
    def test_round_robin_covers_all_rows(self, schema):
        rows = make_rows(schema)
        session = make_array(4, {"t": (schema, rows, ROUND_ROBIN)})
        table = session.db.catalog.sharded("t")
        assert table.tuple_count == len(rows)
        counts = [shard.tuple_count for shard in table.shards]
        assert len(counts) == 4
        assert max(counts) - min(counts) <= 1

    def test_replication_copies_everywhere(self, schema):
        rows = make_rows(schema, 100)
        session = make_array(3, {"t": (schema, rows, REPLICATED)})
        table = session.db.catalog.sharded("t")
        assert [shard.tuple_count for shard in table.shards] == [100] * 3
        assert table.tuple_count == 100

    def test_zero_devices_rejected(self, schema):
        with pytest.raises(PlanError, match="at least one device"):
            make_array(0, {"t": (schema, make_rows(schema), ROUND_ROBIN)})

    def test_unknown_table_rejected(self, schema):
        session = make_array(2, {})
        with pytest.raises(CatalogError, match="nope"):
            session.submit(Query(table="nope", select=(("k", Col("k")),)),
                           tenant="array")


class TestPartitionedExecution:
    def test_aggregate_matches_reference(self, schema):
        rows = make_rows(schema)
        query = Query(table="t",
                      predicate=Compare(Col("v"), "<", Const(50)),
                      aggregates=(AggSpec("sum", Col("v"), "s"),
                                  AggSpec("count", None, "n")))
        expected = run_reference(query, {"t": schema}, {"t": rows})
        for devices in (1, 2, 4):
            session = make_array(devices, {"t": (schema, rows, ROUND_ROBIN)})
            handle = session.submit(query, tenant="array")
            session.gather()
            assert handle.result() == [expected]
            assert handle.fan_out == devices

    def test_select_returns_all_matches(self, schema):
        rows = make_rows(schema)
        query = Query(table="t",
                      predicate=Compare(Col("v"), "<", Const(10)),
                      select=(("k", Col("k")),))
        report = run(make_array(3, {"t": (schema, rows, ROUND_ROBIN)}), query)
        expected = sorted(rows["k"][rows["v"] < 10].tolist())
        assert sorted(report.rows["k"].tolist()) == expected

    def test_join_with_replicated_build_side(self):
        """Q14: LINEITEM striped, PART replicated so every shard joins
        locally; any width gives the reference answer."""
        lineitem, part = generate_lineitem(0.002), generate_part(0.002)
        expected = run_reference(
            q14_query(),
            {"lineitem": lineitem_schema(), "part": part_schema()},
            {"lineitem": lineitem, "part": part})
        for devices in (1, 2, 4):
            session = make_array(devices, {
                "lineitem": (lineitem_schema(), lineitem, ROUND_ROBIN),
                "part": (part_schema(), part, REPLICATED)})
            assert run(session, q14_query()).rows == [expected]

    def test_more_devices_is_faster(self, schema):
        rows = make_rows(schema, 20_000)
        query = Query(table="t",
                      aggregates=(AggSpec("sum", Col("v"), "s"),))
        elapsed = {
            devices: run(make_array(devices,
                                    {"t": (schema, rows, ROUND_ROBIN)}),
                         query).elapsed_seconds
            for devices in (1, 4)}
        assert elapsed[4] < elapsed[1]

    def test_empty_partition_is_fine(self, schema):
        """More devices than rows: three shards hold no tuple at all."""
        rows = make_rows(schema, 5)
        session = make_array(8, {"t": (schema, rows, ROUND_ROBIN)})
        counts = [shard.tuple_count
                  for shard in session.db.catalog.sharded("t").shards]
        assert counts == [1] * 5 + [0] * 3
        query = Query(table="t",
                      aggregates=(AggSpec("count", None, "n"),
                                  AggSpec("sum", Col("v"), "s"),
                                  AggSpec("min", Col("v"), "lo")))
        expected = run_reference(query, {"t": schema}, {"t": rows})
        assert run(session, query).rows == [expected]

    def test_one_device_is_exactly_a_plain_pushdown(self):
        """The fleet path adds nothing at width one: E2's first row is the
        elapsed time of ``Session.execute`` on a single Smart SSD."""
        from repro.bench.ablations import ext_multi_ssd

        lineitem = generate_lineitem(0.02)
        with repro.connect() as session:
            session.db.create_smart_ssd(SmartSsdSpec(name="smart-ssd-0"))
            session.create_table("lineitem", lineitem_schema(), Layout.PAX,
                                 lineitem, "smart-ssd-0")
            solo = session.execute(q6_query(), Placement.SMART)
        row = ext_multi_ssd(run_scale=0.02, device_counts=(1,)).rows[0]
        assert row[1] == solo.elapsed_seconds * 1e3
        assert row[3] == solo.rows[0]["revenue"]
