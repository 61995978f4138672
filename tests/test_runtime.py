"""Unit tests for the parallel fleet runtime (repro.runtime).

The differential in tests/property/test_runtime_differential.py proves
end-to-end bit-identity; these tests pin the individual moving parts —
lane planning and its decline reasons, world fingerprints, fleet reuse,
the idle-clock jump, and backend resolution.
"""

import numpy as np
import pytest

from repro import Layout, ServeConfig, ShardSpec
from repro.engine import AggSpec, Col, Compare, Const, JoinSpec, Query
from repro.errors import PlanError, SimulationError
from repro.faults import SITE_SESSION_CRASH, FaultPlan
from repro.host.db import Database
from repro.runtime import (
    LanePlan,
    plan_lanes,
    resolve_backend,
    world_fingerprint,
)
from repro.runtime.lanes import lane_partition
from repro.serve import Frontend
from repro.smart.device import SmartSsdSpec
from repro.storage import Column, Int32Type, Schema
from repro.workloads.tpch import generate_lineitem, lineitem_schema, q6_query

LINEITEM = generate_lineitem(0.001)


def small_schema():
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def small_rows(schema, n=400, offset=0):
    rows = np.empty(n, dtype=schema.numpy_dtype())
    rows["k"] = np.arange(n) + offset
    rows["v"] = np.arange(n) % 50
    return rows


def build_devices(db, count):
    return [db.create_smart_ssd(SmartSsdSpec(name=f"smart-{i}"))
            for i in range(count)]


def build_two_tables():
    """Two plain tables on two devices — the minimal two-lane world."""
    db = Database()
    build_devices(db, 2)
    schema = small_schema()
    db.create_table("t0", schema, Layout.PAX, small_rows(schema), "smart-0")
    db.create_table("t1", schema, Layout.PAX, small_rows(schema), "smart-1")
    return db


def sum_query(table):
    return Query(table=table,
                 aggregates=(AggSpec("sum", Col("v"), "s"),),
                 name=f"sum-{table}")


def planned_units(db, queries, placement="smart"):
    from repro.sched.scheduler import QueryScheduler

    scheduler = QueryScheduler(db)
    for query in queries:
        scheduler.submit(query, placement=placement)
    return scheduler, scheduler._plan(scheduler.submissions)


class TestLanePartition:
    def test_dedups_and_sorts(self):
        assert lane_partition(["b", "a", "b", "c", "a"]) == ("a", "b", "c")

    def test_empty(self):
        assert lane_partition([]) == ()


class TestPlanLanes:
    def test_two_tables_two_lanes(self):
        db = build_two_tables()
        scheduler, units = planned_units(
            db, [sum_query("t0"), sum_query("t1")])
        plan, reason = plan_lanes(scheduler, units)
        assert reason == ""
        assert plan == LanePlan(groups=(("smart-0",), ("smart-1",)),
                                unit_lanes=(0, 1))

    def test_single_device_declines(self):
        db = Database()
        build_devices(db, 1)
        schema = small_schema()
        db.create_table("t0", schema, Layout.PAX, small_rows(schema),
                        "smart-0")
        scheduler, units = planned_units(
            db, [sum_query("t0"), sum_query("t0")])
        plan, reason = plan_lanes(scheduler, units)
        assert plan is None and reason == "single_lane"

    def test_host_placement_declines(self):
        db = build_two_tables()
        scheduler, units = planned_units(
            db, [sum_query("t0"), sum_query("t1")], placement="host")
        plan, reason = plan_lanes(scheduler, units)
        assert plan is None and reason == "host_placement"

    def test_fault_plan_declines(self):
        db = build_two_tables()
        fault_plan = FaultPlan(seed=7)
        fault_plan.add(SITE_SESSION_CRASH, probability=0.0)
        db.install_fault_plan(fault_plan)
        scheduler, units = planned_units(
            db, [sum_query("t0"), sum_query("t1")])
        plan, reason = plan_lanes(scheduler, units)
        assert plan is None and reason == "fault_plan"

    def test_dirty_pages_decline_until_flush(self):
        db = build_two_tables()
        db.update_rows("t0", Compare(Col("k"), "<", Const(5)), {"v": 1})
        scheduler, units = planned_units(
            db, [sum_query("t0"), sum_query("t1")])
        plan, reason = plan_lanes(scheduler, units)
        assert plan is None and reason == "dirty_pages"
        db.flush_table("t0")
        plan, reason = plan_lanes(scheduler, units)
        assert reason == "" and plan is not None

    def test_join_couples_build_and_probe_devices(self):
        """A join's build table drags its device into the probe table's
        lane; an unrelated table still gets its own lane."""
        db = Database()
        build_devices(db, 3)
        fact_schema = Schema([Column("fk", Int32Type()),
                              Column("v", Int32Type())])
        dim_schema = Schema([Column("pk", Int32Type()),
                             Column("label", Int32Type())])
        fact = np.empty(300, dtype=fact_schema.numpy_dtype())
        fact["fk"] = np.arange(300) % 20
        fact["v"] = np.arange(300)
        dim = np.empty(20, dtype=dim_schema.numpy_dtype())
        dim["pk"] = np.arange(20)
        dim["label"] = np.arange(20) * 10
        schema = small_schema()
        db.create_table("fact", fact_schema, Layout.PAX, fact, "smart-0")
        db.create_table("dim", dim_schema, Layout.PAX, dim, "smart-1")
        db.create_table("solo", schema, Layout.PAX, small_rows(schema),
                        "smart-2")
        join_q = Query(
            table="fact",
            join=JoinSpec(build_table="dim", build_key="pk",
                          probe_key="fk", payload=("label",)),
            select=(("v", Col("v")), ("label", Col("label"))),
            name="join")
        scheduler, units = planned_units(db, [join_q, sum_query("solo")])
        plan, reason = plan_lanes(scheduler, units)
        assert reason == ""
        assert plan.groups == (("smart-0", "smart-1"), ("smart-2",))


class TestWorldFingerprint:
    def test_changes_on_every_mutation_kind(self):
        db = build_two_tables()
        seen = {world_fingerprint(db)}

        db.update_rows("t0", None, {"v": 2})
        seen.add(world_fingerprint(db))
        db.flush_table("t0")
        seen.add(world_fingerprint(db))
        db.install_fault_plan(FaultPlan(seed=1))
        seen.add(world_fingerprint(db))
        db.create_smart_ssd(SmartSsdSpec(name="smart-9"))
        seen.add(world_fingerprint(db))
        schema = small_schema()
        db.create_table("t9", schema, Layout.PAX, small_rows(schema),
                        "smart-9")
        seen.add(world_fingerprint(db))
        assert len(seen) == 6  # every mutation produced a fresh fingerprint

    def test_stable_across_reads(self):
        from repro.sched.scheduler import QueryScheduler

        db = build_two_tables()
        before = world_fingerprint(db)
        scheduler = QueryScheduler(db)
        scheduler.submit(sum_query("t0"))
        scheduler.gather()
        assert world_fingerprint(db) == before


class TestAdvanceTo:
    def test_backwards_jump_rejected(self):
        db = Database()
        db.sim.advance_to(1.5)
        assert db.sim.now == 1.5
        with pytest.raises(SimulationError, match="backwards"):
            db.sim.advance_to(1.0)

    def test_pending_work_rejected(self):
        db = Database()
        db.sim.timeout(10.0)
        with pytest.raises(SimulationError, match="pending"):
            db.sim.advance_to(5.0)


class TestFleetLifecycle:
    def build_frontend(self, backend="process"):
        db = Database()
        devices = build_devices(db, 3)
        db.catalog.create_sharded_table(
            "lineitem", lineitem_schema(), Layout.PAX, LINEITEM, devices,
            spec=ShardSpec(kind="hash", key="l_orderkey"))
        # Cache off: repeat batches must reach the scheduler, not the
        # result cache, for fleet reuse to be observable.
        return db, Frontend(db, ServeConfig(backend=backend,
                                            cache_enabled=False))

    def test_fleet_reused_across_batches(self):
        db, frontend = self.build_frontend()
        frontend.submit(q6_query(), tenant="a")
        frontend.submit(q6_query(), tenant="b", at=0.001)
        frontend.gather()
        # Different tenants/arrivals dodge the result cache; same world →
        # the second batch reuses the forked fleet.
        frontend.submit(q6_query(), tenant="c", at=0.002)
        frontend.submit(q6_query(), tenant="d", at=0.003)
        frontend.gather()
        stats = frontend.scheduler.runtime_stats
        assert stats["parallel_batches"] == 2
        assert stats["fleet_builds"] == 1
        frontend.close()

    def test_fleet_rebuilt_after_update(self):
        db, frontend = self.build_frontend()
        frontend.submit(q6_query(), tenant="a")
        frontend.submit(q6_query(), tenant="b", at=0.001)
        frontend.gather()
        # Write-through UPDATE flushes (no dirty-page decline) but bumps
        # the world version, so the cached fleet must be rebuilt.
        frontend.update("lineitem",
                        Compare(Col("l_orderkey"), "<", Const(0)),
                        {"l_quantity": 100})  # 1.00, stored x100
        frontend.submit(q6_query(), tenant="c")
        frontend.submit(q6_query(), tenant="d", at=0.001)
        frontend.gather()
        stats = frontend.scheduler.runtime_stats
        assert stats["parallel_batches"] == 2
        assert stats["fleet_builds"] == 2
        frontend.close()

    def test_close_is_idempotent_and_context_managed(self):
        db, frontend = self.build_frontend()
        with frontend as fe:
            fe.submit(q6_query(), tenant="a")
            fe.submit(q6_query(), tenant="b", at=0.001)
            fe.gather()
        frontend.close()
        frontend.close()

    def test_direct_scheduler_process_matches_serial(self):
        """The runtime is not serving-layer-only: a bare QueryScheduler
        with backend=\"process\" is bit-identical to serial too."""
        from repro.sched.scheduler import QueryScheduler, SchedulerConfig

        results = {}
        for backend in ("serial", "process"):
            db = build_two_tables()
            scheduler = QueryScheduler(
                db, SchedulerConfig(backend=backend))
            t0 = scheduler.submit(sum_query("t0"))
            t1 = scheduler.submit(sum_query("t1"), at=0.0005)
            reports = scheduler.gather()
            results[backend] = {
                "rows": [repr(r.rows) for r in reports],
                "elapsed": [r.elapsed_seconds for r in reports],
                "done": (t0.done_at, t1.done_at),
                "now": db.sim.now,
            }
            scheduler.close()
        assert results["serial"] == results["process"]


class TestResolveBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(PlanError, match="unknown runtime backend"):
            resolve_backend("bogus")

    def test_known_backends_resolve(self):
        for name in ("serial", "thread", "process"):
            assert resolve_backend(name) is not None
