"""Tests for the multi-tenant serving layer: sharding, scatter/gather
bit-identity against the single-device plans, tenant QoS, the cross-query
result cache, and the finalized Session front door."""

import numpy as np
import pytest

import repro
from repro import Layout, Placement, ServeConfig, ShardSpec, TenantSpec
from repro.engine import AggSpec, Col, Compare, Const, Query
from repro.errors import (
    AdmissionRejected,
    CatalogError,
    PlanError,
    ServingError,
    ShardUnavailable,
)
from repro.host.catalog import (
    hash_shard_indices,
    range_shard_indices,
    round_robin_indices,
    shard_table_name,
)
from repro.host.db import Database
from repro.host.planner import _shard_might_match, plan_scatter
from repro.sched.qos import TokenBucket
from repro.serve import Frontend
from repro.serve.cache import MISS, ResultCache, cache_key
from repro.smart.device import SmartSsdSpec
from repro.storage import Column, Int32Type, Schema
from repro.workloads.tpch import (
    generate_lineitem,
    generate_part,
    lineitem_schema,
    part_schema,
    q1_query,
    q6_query,
    q14_query,
)

SCALE = 0.001  # 6,000 LINEITEM rows — enough for every shard to see work
LINEITEM = generate_lineitem(SCALE)
PART = generate_part(SCALE)
HASH_SPEC = ShardSpec(kind="hash", key="l_orderkey")
RR_SPEC = ShardSpec(kind="round_robin")


def build_sharded(shards=3, spec=HASH_SPEC, with_part=True):
    db = Database()
    devices = [db.create_smart_ssd(SmartSsdSpec(name=f"smart-{i}"))
               for i in range(shards)]
    db.catalog.create_sharded_table("lineitem", lineitem_schema(),
                                    Layout.PAX, LINEITEM, devices,
                                    spec=spec)
    if with_part:
        db.catalog.create_sharded_table("part", part_schema(), Layout.PAX,
                                        PART, devices,
                                        spec=ShardSpec(kind="replicated"))
    return db


def build_single():
    db = Database()
    db.create_smart_ssd()
    db.create_table("lineitem", lineitem_schema(), Layout.PAX, LINEITEM,
                    "smart-ssd")
    db.create_table("part", part_schema(), Layout.PAX, PART, "smart-ssd")
    return db


def topn_query(limit=7):
    return Query(table="lineitem",
                 select=(("l_orderkey", Col("l_orderkey")),
                         ("l_extendedprice", Col("l_extendedprice"))),
                 order_by="l_extendedprice", descending=True, limit=limit,
                 name="topn")


def distinct_query():
    return Query(table="lineitem",
                 select=(("l_returnflag", Col("l_returnflag")),
                         ("l_linestatus", Col("l_linestatus"))),
                 distinct=True, name="distinct-flags")


def serve_one(db, query, **submit_kwargs):
    frontend = Frontend(db)
    handle = frontend.submit(query, **submit_kwargs)
    frontend.gather()
    return handle


class TestShardingHelpers:
    def test_hash_assignment_is_stable_and_complete(self):
        keys = np.arange(1000, dtype=np.int64)
        a = hash_shard_indices(keys, 4)
        b = hash_shard_indices(keys, 4)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) == {0, 1, 2, 3}
        # roughly balanced: no empty shard, none over half the rows
        counts = np.bincount(a, minlength=4)
        assert counts.min() > 0 and counts.max() < 500

    def test_hash_rejects_non_integer_keys(self):
        with pytest.raises(PlanError, match="integer-like"):
            hash_shard_indices(np.array([1.5, 2.5]), 2)

    def test_range_assignment_respects_bounds(self):
        values = np.array([0, 5, 10, 15, 20], dtype=np.int64)
        out = range_shard_indices(values, (10, 20))
        assert out.tolist() == [0, 0, 1, 1, 2]

    def test_range_rejects_unsorted_bounds(self):
        with pytest.raises(PlanError, match="sorted"):
            range_shard_indices(np.arange(5), (20, 10))

    def test_round_robin_stripes(self):
        assert round_robin_indices(5, 2).tolist() == [0, 1, 0, 1, 0]

    def test_shard_spec_validation(self):
        with pytest.raises(PlanError, match="unknown shard kind"):
            ShardSpec(kind="modulo")
        with pytest.raises(PlanError, match="key column"):
            ShardSpec(kind="hash")
        with pytest.raises(PlanError, match="key column"):
            ShardSpec(kind="range")

    def test_sharded_table_registration(self):
        db = build_sharded(3)
        sharded = db.catalog.sharded("lineitem")
        assert len(sharded.shards) == 3
        assert sharded.tuple_count == len(LINEITEM)
        assert db.catalog.is_sharded("lineitem")
        assert not db.catalog.is_sharded("lineitem#0")
        assert db.catalog.table(shard_table_name("lineitem", 0)) \
            is sharded.shards[0]
        assert db.catalog.sharded_names() == ["lineitem", "part"]

    def test_replicated_table_copies_everything(self):
        db = build_sharded(3)
        part = db.catalog.sharded("part")
        assert part.spec.kind == "replicated"
        assert part.tuple_count == len(PART)  # copies count once
        for shard in part.shards:
            assert shard.tuple_count == len(PART)

    def test_versions_resolve_through_shards(self):
        db = build_sharded(2)
        assert db.catalog.version("lineitem") == 0
        db.catalog.bump_version("lineitem#1")
        assert db.catalog.version("lineitem") == 1
        assert db.catalog.version("lineitem#0") == 1


class TestScatterPlanner:
    def prune(self, predicate, lo, hi, key="k"):
        return not _shard_might_match(predicate, key, lo, hi)

    def test_comparison_interval_logic(self):
        lt = Compare(Col("k"), "<", Const(10))
        assert self.prune(lt, 10, 20)
        assert not self.prune(lt, 9, 20)
        ge = Compare(Col("k"), ">=", Const(10))
        assert self.prune(ge, 0, 10)
        assert not self.prune(ge, 0, 11)
        eq = Compare(Col("k"), "==", Const(10))
        assert self.prune(eq, 11, 20)
        assert self.prune(eq, 0, 10)
        assert not self.prune(eq, 10, 11)

    def test_unbounded_ends_never_prune_that_side(self):
        lt = Compare(Col("k"), "<", Const(10))
        assert not self.prune(lt, None, 5)
        gt = Compare(Col("k"), ">", Const(10))
        assert not self.prune(gt, 20, None)

    def test_other_columns_and_shapes_never_prune(self):
        other = Compare(Col("j"), "<", Const(0))
        assert not self.prune(other, 100, 200)
        assert not self.prune(None, 100, 200)
        ne = Compare(Col("k"), "!=", Const(150))
        assert not self.prune(ne, 100, 200)

    def test_plan_scatter_prunes_range_shards(self):
        days = LINEITEM["l_shipdate"].astype("datetime64[D]") \
            .astype(np.int64)
        bounds = tuple(int(q) for q in
                       np.quantile(days, [1 / 3, 2 / 3]).astype(np.int64))
        db = build_sharded(3, ShardSpec(kind="range", key="l_shipdate",
                                        bounds=bounds), with_part=False)
        plan = plan_scatter(db, q6_query())
        assert plan.fan_out < 3
        assert plan.pruned_shards
        # correctness despite pruning
        handle = serve_one(db, q6_query())
        reference = build_single().execute_placed(q6_query(), "smart")
        assert repr(handle.result()) == repr(reference.rows)

    def test_fully_pruned_query_still_types_its_result(self):
        db = build_sharded(2, ShardSpec(kind="range", key="l_orderkey",
                                        bounds=(10**9,)), with_part=False)
        impossible = Query(
            table="lineitem",
            predicate=Compare(Col("l_orderkey"), "<", Const(-1)),
            aggregates=(AggSpec("count", None, "n"),), name="empty")
        plan = plan_scatter(db, impossible)
        assert plan.fan_out == 1  # one shard kept for the typed zero row
        handle = serve_one(db, impossible)
        assert handle.result()[0]["n"] == 0

    def test_join_requires_replicated_build(self):
        db = Database()
        devices = [db.create_smart_ssd(SmartSsdSpec(name=f"smart-{i}"))
                   for i in range(2)]
        db.catalog.create_sharded_table("lineitem", lineitem_schema(),
                                        Layout.PAX, LINEITEM, devices,
                                        spec=HASH_SPEC)
        db.catalog.create_sharded_table(
            "part", part_schema(), Layout.PAX, PART, devices,
            spec=ShardSpec(kind="hash", key="p_partkey"))
        with pytest.raises(PlanError, match="replicated"):
            plan_scatter(db, q14_query())


class TestScatterGatherBitIdentical:
    """Acceptance: sharded results match the single-device plans exactly."""

    @pytest.fixture(scope="class")
    def reference(self):
        db = build_single()
        queries = {"q6": q6_query(), "q1": q1_query(), "q14": q14_query(),
                   "topn": topn_query(), "distinct": distinct_query()}
        return {name: db.execute_placed(query, "smart").rows
                for name, query in queries.items()}

    @pytest.mark.parametrize("spec", [HASH_SPEC, RR_SPEC],
                             ids=["hash", "round_robin"])
    @pytest.mark.parametrize("name,query_factory", [
        ("q6", q6_query), ("q1", q1_query), ("q14", q14_query)])
    def test_figure_aggregates_bit_identical(self, reference, spec, name,
                                             query_factory):
        handle = serve_one(build_sharded(3, spec), query_factory())
        assert repr(handle.result()) == repr(reference[name])

    def test_topn_re_merge_matches_single_device_order(self, reference):
        handle = serve_one(build_sharded(3), topn_query())
        got, want = handle.result(), reference["topn"]
        assert got["l_extendedprice"].tolist() == \
            want["l_extendedprice"].tolist()
        assert sorted(map(repr, got.tolist())) == \
            sorted(map(repr, want.tolist()))

    def test_distinct_union_matches(self, reference):
        handle = serve_one(build_sharded(3), distinct_query())
        assert sorted(map(repr, handle.result().tolist())) == \
            sorted(map(repr, reference["distinct"].tolist()))

    def test_single_shard_degenerates_to_single_device(self):
        db = build_sharded(1, RR_SPEC)
        handle = serve_one(db, q6_query())
        reference = build_single().execute_placed(q6_query(), "smart")
        assert repr(handle.result()) == repr(reference.rows)

    def test_replay_is_deterministic(self):
        def run():
            db = build_sharded(2)
            frontend = Frontend(db)
            handles = [
                frontend.submit(q6_query(), tenant="a", at=0.0),
                frontend.submit(q1_query(), tenant="b", at=0.1),
                frontend.submit(q6_query(), tenant="a", at=0.2),
            ]
            frontend.gather()
            return [(repr(h.result()), h.report.elapsed_seconds,
                     h.admitted_at) for h in handles]
        assert run() == run()


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        bucket = TokenBucket(TenantSpec("t", rate=4.0, burst=2.0))
        grants = [bucket.admit_at(0.0) for _ in range(4)]
        assert grants == [0.0, 0.0, 0.25, 0.5]

    def test_idle_refill_is_capped_at_burst(self):
        bucket = TokenBucket(TenantSpec("t", rate=1.0, burst=2.0))
        for _ in range(4):
            bucket.admit_at(0.0)
        # long idle: refills to burst (2 tokens), not to 100
        grants = [bucket.admit_at(100.0) for _ in range(3)]
        assert grants == [100.0, 100.0, 101.0]

    def test_bucket_clock_restarts_with_each_gather_window(self):
        # Arrival offsets count from each window's origin, so a tenant
        # sending the same arrivals twice is admitted the same way twice.
        session = repro.Session(build_sharded(2))
        session.serve(tenants=(TenantSpec("a", rate=8.0, burst=4.0),))
        admitted = []
        for _ in range(2):
            handles = [session.submit(q6_query(year=1993 + i), tenant="a",
                                      at=at)
                       for i, at in enumerate((0.0, 1e-3))]
            session.gather_batches()
            admitted.append([handle.admitted_at for handle in handles])
        assert admitted[0] == [0.0, 1e-3]
        assert admitted[1] == admitted[0]

    def test_spec_validation(self):
        with pytest.raises(PlanError, match="rate"):
            TenantSpec("t", rate=0)
        with pytest.raises(PlanError, match="burst"):
            TenantSpec("t", burst=0)
        with pytest.raises(PlanError, match="name"):
            TenantSpec("")


class TestQoSFairness:
    def test_flooding_tenant_cannot_starve_a_light_one(self):
        db = build_sharded(2, with_part=False)
        frontend = Frontend(db, tenants=(
            TenantSpec("heavy", rate=2.0, burst=1.0),
            TenantSpec("light", rate=50.0, burst=4.0),
        ))
        heavy = [frontend.submit(q6_query(), tenant="heavy", at=0.0)
                 for _ in range(10)]
        light = frontend.submit(q6_query(year=1995), tenant="light", at=0.5)
        frontend.gather()
        # the flood queues behind its own token bucket...
        assert heavy[-1].qos_delay_seconds >= 4.0
        # ...while the light tenant is admitted at its arrival instant
        assert light.qos_delay_seconds == 0.0

    def test_per_tenant_batches_are_versioned(self):
        db = build_sharded(2, with_part=False)
        frontend = Frontend(db)
        frontend.submit(q6_query(), tenant="a")
        batches = frontend.gather()
        assert batches["a"].sequence == 1
        frontend.submit(q6_query(), tenant="a")
        frontend.submit(q6_query(), tenant="b")
        batches = frontend.gather()
        assert batches["a"].sequence == 2
        assert batches["b"].sequence == 1
        assert set(batches) == {"a", "b"}

    def test_admission_rejects_oversubscribed_tenant(self):
        db = build_sharded(2, with_part=False)
        frontend = Frontend(db, ServeConfig(max_queue_per_tenant=3))
        for _ in range(3):
            frontend.submit(q6_query(), tenant="a")
        with pytest.raises(AdmissionRejected, match="max_queue_per_tenant"):
            frontend.submit(q6_query(), tenant="a")
        # other tenants are unaffected
        frontend.submit(q6_query(), tenant="b")


class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh a
        cache.put(("c",), 3)           # evicts b
        assert cache.get(("b",)) is MISS
        assert cache.get(("a",)) == 1
        assert cache.evictions == 1

    def test_key_changes_with_table_version(self):
        db = build_sharded(2, with_part=False)
        before = cache_key(db.catalog, q6_query(), Placement.SMART)
        db.catalog.bump_version("lineitem")
        after = cache_key(db.catalog, q6_query(), Placement.SMART)
        assert before != after

    def test_key_ignores_finalize_but_not_shape(self):
        db = build_sharded(2, with_part=False)
        catalog = db.catalog
        assert cache_key(catalog, q6_query(), Placement.SMART) == \
            cache_key(catalog, q6_query(), Placement.SMART)
        assert cache_key(catalog, q6_query(), Placement.SMART) != \
            cache_key(catalog, q6_query(year=1995), Placement.SMART)
        assert cache_key(catalog, q6_query(), Placement.SMART) != \
            cache_key(catalog, q6_query(), Placement.HOST)

    def test_cached_rows_are_isolated_copies(self):
        cache = ResultCache()
        rows = np.array([(1,)], dtype=[("a", "<i4")])
        cache.put(("k",), rows)
        got = cache.get(("k",))
        got["a"][0] = 99
        assert cache.get(("k",))["a"][0] == 1


class TestFrontendCache:
    def test_repeat_query_hits_and_matches(self):
        db = build_sharded(2, with_part=False)
        frontend = Frontend(db)
        cold = frontend.submit(q6_query())
        frontend.gather()
        warm = frontend.submit(q6_query())  # a fresh but identical Query
        frontend.gather()
        assert not cold.cached and warm.cached
        assert repr(warm.result()) == repr(cold.result())
        assert warm.report.elapsed_seconds == \
            frontend.config.cache_hit_seconds
        assert warm.report.elapsed_seconds < \
            cold.report.elapsed_seconds / 10

    def test_dml_through_front_door_invalidates(self):
        db = build_sharded(2, with_part=False)
        frontend = Frontend(db)
        stale = frontend.submit(q6_query())
        frontend.gather()
        changed = frontend.update(
            "lineitem", Compare(Col("l_quantity"), "<", Const(2500)),
            {"l_discount": 0})
        assert changed > 0
        fresh = frontend.submit(q6_query())
        frontend.gather()
        assert not fresh.cached
        assert repr(fresh.result()) != repr(stale.result())
        # write-through: pushdown stayed safe (no dirty-page veto), and a
        # cache-off world agrees on the post-update answer
        off = Frontend(build_sharded(2, with_part=False),
                       ServeConfig(cache_enabled=False))
        off.update("lineitem", Compare(Col("l_quantity"), "<", Const(2500)),
                   {"l_discount": 0})
        check = off.submit(q6_query())
        off.gather()
        assert repr(check.result()) == repr(fresh.result())

    def test_multi_shard_update_bumps_version_atomically(self):
        # Regression: the front-door UPDATE used to bump the logical
        # version once per shard, so a cache entry could bind an
        # intermediate version in which some shards were new and others
        # old. Now every shard applies with its bump suppressed and the
        # logical version rises exactly once, after the last flush.
        db = build_sharded(3, with_part=False)
        obs = db.enable_observability()
        frontend = Frontend(db)
        before = db.catalog.version("lineitem")
        changed = frontend.update(
            "lineitem", Compare(Col("l_quantity"), "<", Const(2500)),
            {"l_discount": 0})
        assert changed > 0
        assert db.catalog.version("lineitem") == before + 1
        latency = obs.metrics.snapshot()[
            "serve.dml_latency_seconds{table=lineitem}"]
        assert latency["count"] == 1
        assert latency["min"] > 0

    def test_noop_update_does_not_bump_version(self):
        db = build_sharded(2, with_part=False)
        frontend = Frontend(db)
        before = db.catalog.version("lineitem")
        changed = frontend.update(
            "lineitem", Compare(Col("l_quantity"), "<", Const(-1)),
            {"l_discount": 0})
        assert changed == 0
        assert db.catalog.version("lineitem") == before

    def test_cache_hits_record_latency_and_fan_out(self):
        # Regression: hits used to skip the metrics block entirely, so a
        # warming cache *thinned out* the latency series instead of
        # pulling it down — p50 rose as the hit rate improved.
        db = build_sharded(2, with_part=False)
        obs = db.enable_observability()
        frontend = Frontend(db)
        cold = frontend.submit(q6_query(), tenant="a")
        frontend.gather()
        warm = frontend.submit(q6_query(), tenant="a")
        frontend.gather()
        assert not cold.cached and warm.cached
        snapshot = obs.metrics.snapshot()
        latency = snapshot["serve.latency_seconds{tenant=a}"]
        assert latency["count"] == 2
        assert latency["min"] == frontend.config.cache_hit_seconds
        fan_out = snapshot["serve.fan_out"]
        assert fan_out["count"] == 2
        assert fan_out["min"] == 0  # the hit never fanned out

    def test_cache_off_never_reports_hits(self):
        frontend = Frontend(build_sharded(2, with_part=False),
                            ServeConfig(cache_enabled=False))
        for _ in range(2):
            handle = frontend.submit(q6_query())
            frontend.gather()
            assert not handle.cached
        assert frontend.cache.hits == 0

    def test_shard_unavailable(self):
        db = build_sharded(2, with_part=False)
        db._devices.pop("smart-1")
        frontend = Frontend(db)
        with pytest.raises(ShardUnavailable, match="smart-1"):
            frontend.submit(q6_query())


class TestSessionFrontDoor:
    def make_session(self):
        session = repro.connect()
        for i in range(2):
            session.db.create_smart_ssd(SmartSsdSpec(name=f"smart-{i}"))
        session.create_sharded_table("lineitem", lineitem_schema(),
                                     Layout.PAX, LINEITEM,
                                     ["smart-0", "smart-1"],
                                     spec=HASH_SPEC)
        return session

    def test_context_manager_closes(self):
        with repro.connect() as session:
            assert not session.closed
        assert session.closed
        with pytest.raises(ServingError, match="closed"):
            session.execute(q6_query())
        with pytest.raises(ServingError, match="closed"):
            session.submit(q6_query())
        session.close()  # idempotent

    def test_tenant_submit_routes_through_frontend(self):
        session = self.make_session()
        handle = session.submit(q6_query(), tenant="a")
        assert session.frontend is not None
        reports = session.gather()
        assert len(reports) == 1
        assert handle.report is reports[0]
        reference = build_single().execute_placed(q6_query(), "smart")
        assert repr(reports[0].rows) == repr(reference.rows)

    def test_gather_returns_submission_order_across_tenants(self):
        session = self.make_session()
        first = session.submit(q6_query(), tenant="b")
        second = session.submit(q6_query(year=1995), tenant="a")
        reports = session.gather()
        assert reports[0] is first.report
        assert reports[1] is second.report

    def test_gather_batches_requires_serving(self):
        session = repro.connect()
        with pytest.raises(ServingError, match="serve"):
            session.gather_batches()

    def test_plain_gather_goes_through_scheduler(self):
        session = repro.connect()
        session.db.create_smart_ssd()
        schema = Schema([Column("a", Int32Type())])
        rows = np.zeros(100, dtype=schema.numpy_dtype())
        session.create_table("t", schema, Layout.PAX, rows, "smart-ssd")
        count = Query(table="t",
                      aggregates=(AggSpec("count", None, "n"),))
        session.submit(count, Placement.SMART)
        session.submit(count, Placement.HOST)
        reports = session.gather()
        assert [r.placement for r in reports] == ["smart", "host"]
        assert all(r.rows[0]["n"] == 100 for r in reports)
        assert session.scheduler.stats["submitted"] == 2

    def test_serving_update_keeps_pushdown_safe(self):
        session = self.make_session()
        session.serve()
        session.update("lineitem",
                       Compare(Col("l_quantity"), "<", Const(2500)),
                       {"l_discount": 0})
        handle = session.submit(q6_query(), tenant="a")
        session.gather()  # would raise the dirty-page veto if not flushed
        assert handle.done

    def test_unflushed_shard_update_vetoes_served_pushdown(self):
        session = self.make_session()
        session.serve()
        db = session.db
        db.update_rows("lineitem#0",
                       Compare(Col("l_quantity"), "<", Const(2500)),
                       {"l_discount": 0}, bump_version=False)
        session.submit(q6_query(), tenant="a")
        with pytest.raises(PlanError, match="dirty"):
            session.gather()
        db.flush_table("lineitem#0")
        handle = session.submit(q6_query(), tenant="a")
        session.gather()
        assert handle.done
        assert handle.report.placement == "smart"
        for name in db.device_names():
            assert db.device(name).runtime.open_session_count == 0

    def test_serve_metrics_recorded(self):
        session = repro.connect(observability=True)
        for i in range(2):
            session.db.create_smart_ssd(SmartSsdSpec(name=f"smart-{i}"))
        session.create_sharded_table("lineitem", lineitem_schema(),
                                     Layout.PAX, LINEITEM,
                                     ["smart-0", "smart-1"],
                                     spec=HASH_SPEC)
        session.submit(q6_query(), tenant="a")
        session.submit(q6_query(), tenant="a")
        session.gather_batches()
        session.submit(q6_query(), tenant="a")
        session.gather_batches()
        snapshot = session.obs.metrics.snapshot()
        names = {name.split("{")[0] for name in snapshot}
        assert {"serve.submitted", "serve.cache_hits", "serve.cache_misses",
                "serve.latency_seconds", "serve.qos_delay_seconds",
                "serve.fan_out"} <= names
        assert session.obs.spans_named("serve.gather")
