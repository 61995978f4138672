"""Fault kind x recovery outcome matrix for the `repro.faults` layer.

Each test pins one (fault site, outcome) pair:

* **retry succeeds** — the bounded retry loop absorbs the fault and the
  query still returns the exact fault-free answer;
* **fallback** — pushdown attempts are exhausted and the query degrades to
  the conventional host path, again with the exact answer;
* **hard fail** — recovery is impossible and a *typed* error surfaces.

Injection is seeded and the simulator is deterministic, so every scenario
is also replayed twice from scratch and must produce identical results,
identical virtual elapsed times, and an identical fault audit log.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.engine import AggSpec, Col, Compare, Const, Placement, Query
from repro.errors import (
    DeviceTimeoutError,
    ProgramCrashError,
    ShardUnavailable,
    UncorrectableMediaError,
)
from repro.faults import (
    SITE_DEVICE_DEAD,
    SITE_DEVICE_SLOW,
    SITE_GET_TIMEOUT,
    SITE_NAND_PROGRAM,
    SITE_NAND_READ,
    SITE_SESSION_CRASH,
    SITE_UNCLEAN_SHUTDOWN,
    FaultPlan,
    RetryPolicy,
)
from repro.host.db import Database
from repro.host.executor import SharedScanHandle, execute_many
from repro.sim import Simulator, Tracer
from repro.smart.device import SmartSsdSpec
from repro.storage import Column, Int32Type, Layout, Schema

ROWS = 20_000
CUT = 7_000


def schema():
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())])


def rows_array(n=ROWS, seed=7):
    rng = np.random.default_rng(seed)
    array = np.empty(n, dtype=schema().numpy_dtype())
    array["k"] = np.arange(n, dtype=np.int32)
    array["v"] = rng.integers(0, 1000, n)
    return array


def sum_query(cut=CUT):
    return Query(name="fault-sum", table="t",
                 predicate=Compare(Col("k"), "<", Const(cut)),
                 aggregates=(AggSpec("sum", Col("v"), "s"),))


def make_db(plan=None, layout=Layout.PAX, array=None):
    db = Database()
    if plan is not None:
        db.install_fault_plan(plan)
    db.create_smart_ssd()
    data = array if array is not None else rows_array()
    db.create_table("t", schema(), layout, data, "smart-ssd")
    return db, data


def expected_sum(array, cut=CUT):
    return int(array["v"][array["k"] < cut].sum())


# ---------------------------------------------------------------------------
# Configuration validation and plan observability
# ---------------------------------------------------------------------------

class TestPlanConfig:
    def test_unknown_site_rejected(self):
        from repro.errors import FaultConfigError
        with pytest.raises(FaultConfigError, match="unknown fault site"):
            FaultPlan().add("nonsense.site")

    def test_bad_knobs_rejected(self):
        from repro.errors import FaultConfigError
        with pytest.raises(FaultConfigError, match="probability"):
            FaultPlan().add(SITE_NAND_READ, probability=1.5)
        with pytest.raises(FaultConfigError, match="after"):
            FaultPlan().add(SITE_NAND_READ, after=-1)
        with pytest.raises(FaultConfigError, match="limit"):
            FaultPlan().add(SITE_NAND_READ, limit=0)

    def test_bad_retry_policy_rejected(self):
        from repro.errors import FaultConfigError
        with pytest.raises(FaultConfigError, match="retry counts"):
            RetryPolicy(max_session_attempts=0)
        with pytest.raises(FaultConfigError, match="backoff"):
            RetryPolicy(backoff_s=1.0, backoff_cap_s=0.5)

    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(backoff_s=1e-3, backoff_cap_s=4e-3)
        assert [policy.backoff(n) for n in range(1, 5)] == \
            [1e-3, 2e-3, 4e-3, 4e-3]

    def test_after_arms_rule_late(self):
        plan = FaultPlan()
        rule = plan.add(SITE_GET_TIMEOUT, after=2, limit=1)
        assert plan.check(SITE_GET_TIMEOUT) is None
        assert plan.check(SITE_GET_TIMEOUT) is None
        assert plan.check(SITE_GET_TIMEOUT) is not None
        assert plan.check(SITE_GET_TIMEOUT) is None  # limit exhausted
        assert rule.hits == 4 and rule.fired == 1
        assert plan.summary() == {SITE_GET_TIMEOUT: 1}
        assert plan.fired_count() == 1

    def test_match_filters_context(self):
        plan = FaultPlan()
        plan.add(SITE_DEVICE_DEAD, match={"device": "b"})
        assert plan.check(SITE_DEVICE_DEAD, device="a") is None
        assert plan.check(SITE_DEVICE_DEAD, device="b") is not None

    def test_health_registry_quarantine_and_reset(self):
        from repro.faults import HealthRegistry
        registry = HealthRegistry(quarantine_after=2)
        registry.record_failure("d")
        assert not registry.is_quarantined("d")
        registry.record_success("d")  # resets the consecutive streak
        registry.record_failure("d")
        registry.record_failure("d")
        assert registry.is_quarantined("d")
        assert registry.status("d").total_failures == 3
        assert registry.status("d").total_successes == 1

    def test_transient_error_classifier(self):
        from repro.faults import is_transient_error
        assert is_transient_error("ProgramCrashError: injected")
        assert is_transient_error("DeviceTimeoutError: lost")
        assert not is_transient_error("DeviceResourceError: DRAM exhausted")
        assert not is_transient_error("ProtocolError: bad argument")


# ---------------------------------------------------------------------------
# nand.read: ECC retries
# ---------------------------------------------------------------------------

class TestNandRead:
    def test_ecc_retry_succeeds(self):
        plan = FaultPlan(seed=3)
        plan.add(SITE_NAND_READ, limit=2, retries=2)
        db, array = make_db(plan)
        report = db.execute_placed(sum_query(), Placement.HOST)
        assert report.rows[0]["s"] == expected_sum(array)
        assert report.counters.ecc_retries == 4  # 2 pages x 2 rounds
        assert plan.fired_count(SITE_NAND_READ) == 2

    def test_uncorrectable_hard_fails(self):
        plan = FaultPlan(seed=3)
        plan.add(SITE_NAND_READ, limit=1, retries=16)  # > ecc_retry_limit
        db, __ = make_db(plan)
        with pytest.raises(UncorrectableMediaError, match="ECC"):
            db.execute_placed(sum_query(), Placement.HOST)
        assert db.device("smart-ssd").controller.ecc_uncorrectable == 1


# ---------------------------------------------------------------------------
# nand.program: failed programs, retried on fresh pages by the FTL
# ---------------------------------------------------------------------------

class TestNandProgram:
    def test_ftl_retries_on_next_slot(self):
        plan = FaultPlan(seed=11)
        plan.add(SITE_NAND_PROGRAM, limit=3)
        sim = Simulator()
        sim.faults = plan
        from repro.flash.ssd import Ssd
        from repro.storage import build_heap_pages
        ssd = Ssd(sim)
        pages = build_heap_pages(schema(), rows_array(200), Layout.PAX)
        first = ssd.load_extent(pages)
        assert ssd.ftl.stats.program_retries == 3
        assert ssd.nand.program_failures == 3
        for offset, data in enumerate(pages):
            assert ssd.read_page_direct(first + offset) == data


# ---------------------------------------------------------------------------
# ftl.unclean_shutdown: crash recovery from out-of-band metadata
# ---------------------------------------------------------------------------

class TestUncleanShutdown:
    def test_recovery_preserves_data(self):
        plan = FaultPlan(seed=5)
        plan.add(SITE_UNCLEAN_SHUTDOWN, limit=1)
        db, array = make_db(plan)
        device = db.device("smart-ssd")
        db.sim.tracer = Tracer()
        recovered = device.power_cycle()  # plan forces the unclean path
        assert recovered > 0
        assert device.ftl.stats.recoveries == 1
        assert db.sim.tracer.marks("ftl-recovery")
        # The query still computes the exact answer from recovered mappings.
        report = db.execute_placed(sum_query(), Placement.SMART)
        assert report.rows[0]["s"] == expected_sum(array)

    def test_clean_cycle_is_noop(self):
        db, __ = make_db()
        assert db.device("smart-ssd").power_cycle() == 0
        assert db.device("smart-ssd").ftl.stats.recoveries == 0


# ---------------------------------------------------------------------------
# session.crash: device program dies mid-query
# ---------------------------------------------------------------------------

class TestSessionCrash:
    def test_retry_succeeds(self):
        plan = FaultPlan(seed=1)
        plan.add(SITE_SESSION_CRASH, limit=1)
        db, array = make_db(plan)
        report = db.execute_placed(sum_query(), Placement.SMART)
        assert report.rows[0]["s"] == expected_sum(array)
        assert report.counters.device_program_crashes == 1
        assert report.counters.session_retries == 1
        assert report.counters.pushdown_fallbacks == 0
        assert db.health.status("smart-ssd").total_failures == 1
        assert db.health.status("smart-ssd").total_successes == 1

    def test_persistent_crash_falls_back_to_host(self):
        plan = FaultPlan(seed=1)
        plan.add(SITE_SESSION_CRASH)  # unlimited: every attempt dies
        db, array = make_db(plan)
        db.sim.tracer = Tracer()
        report = db.execute_placed(sum_query(), Placement.SMART)
        assert report.rows[0]["s"] == expected_sum(array)
        assert report.counters.device_program_crashes == 2
        assert report.counters.session_retries == 1
        assert report.counters.pushdown_fallbacks == 1
        assert db.sim.tracer.marks("pushdown-fallback")
        assert db.sim.tracer.marks("session-failed")

    def test_hard_fails_without_fallback(self):
        plan = FaultPlan(seed=1)
        plan.add(SITE_SESSION_CRASH)
        db, __ = make_db(plan)
        policy = RetryPolicy(max_session_attempts=2, fallback_to_host=False)
        table = db.catalog.table("t")
        handle = SharedScanHandle(db, db.device("smart-ssd"), table)
        db.sim.process(execute_many(db, handle, [sum_query()],
                                    retry_policy=policy))
        with pytest.raises(ProgramCrashError, match="injected crash"):
            db.sim.run()

    def test_quarantined_device_vetoed_by_optimizer(self):
        plan = FaultPlan(seed=1)
        plan.add(SITE_SESSION_CRASH)
        db, __ = make_db(plan)
        from repro.host.optimizer import choose_placement
        for __run in range(2):
            # Falls back each run.
            db.execute_placed(sum_query(), Placement.SMART)
        assert db.health.is_quarantined("smart-ssd")
        decision = choose_placement(db, sum_query())
        assert decision.placement == "host"
        assert "quarantined" in decision.reason


# ---------------------------------------------------------------------------
# get.timeout: lost GET replies, idempotent resume
# ---------------------------------------------------------------------------

class TestGetTimeout:
    def test_retry_resumes_idempotently(self):
        plan = FaultPlan(seed=9)
        plan.add(SITE_GET_TIMEOUT, limit=1)
        db, array = make_db(plan)
        baseline, __ = make_db()
        clean = baseline.execute_placed(sum_query(), Placement.SMART)
        report = db.execute_placed(sum_query(), Placement.SMART)
        assert report.rows == clean.rows
        assert report.counters.get_timeouts == 1
        assert report.counters.pushdown_fallbacks == 0
        # The lost reply costs time: timeout wait plus backoff.
        assert report.elapsed_seconds > clean.elapsed_seconds

    def test_exhausted_get_retries_fall_back(self):
        plan = FaultPlan(seed=9)
        plan.add(SITE_GET_TIMEOUT)  # every reply lost, forever
        db, array = make_db(plan)
        report = db.execute_placed(sum_query(), Placement.SMART)
        assert report.rows[0]["s"] == expected_sum(array)
        assert report.counters.pushdown_fallbacks == 1
        # attempts x (1 initial GET + max_get_retries) replies lost
        assert report.counters.get_timeouts == 8


# ---------------------------------------------------------------------------
# device.dead / device.slow
# ---------------------------------------------------------------------------

class TestDeadAndSlow:
    def test_dead_device_hard_fails(self):
        plan = FaultPlan(seed=2)
        plan.add(SITE_DEVICE_DEAD)
        db, __ = make_db(plan)
        # Pushdown retries, then the host fallback's block reads also time
        # out: the device is gone and the typed error says so.
        with pytest.raises(DeviceTimeoutError, match="no reply"):
            db.execute_placed(sum_query(), Placement.SMART)

    def test_slow_device_is_observable_not_fatal(self):
        delay = 0.05
        plan = FaultPlan(seed=2)
        plan.add(SITE_DEVICE_SLOW, match={"command": "open"}, delay=delay)
        db, array = make_db(plan)
        baseline, __ = make_db()
        clean = baseline.execute_placed(sum_query(), Placement.SMART)
        report = db.execute_placed(sum_query(), Placement.SMART)
        assert report.rows == clean.rows
        assert report.elapsed_seconds >= clean.elapsed_seconds + delay


# ---------------------------------------------------------------------------
# Sharded fleet: degraded members
# ---------------------------------------------------------------------------

class TestArrayDegradation:
    """One member of a 3-shard round-robin table misbehaves."""

    DEVICES = tuple(f"smart-ssd-{i}" for i in range(3))

    def _session(self, plan=None):
        session = repro.connect()
        if plan is not None:
            session.db.install_fault_plan(plan)
        for name in self.DEVICES:
            session.db.create_smart_ssd(SmartSsdSpec(name=name))
        session.create_sharded_table("t", schema(), Layout.PAX,
                                     rows_array(), self.DEVICES)
        return session

    def _run(self, session):
        session.submit(sum_query(), tenant="fleet")
        (report,) = session.gather()
        return report

    def test_worker_crash_degrades_to_coordinator_scan(self):
        plan = FaultPlan(seed=4)
        plan.add(SITE_SESSION_CRASH, match={"device": "smart-ssd-1"})
        report = self._run(self._session(plan))
        assert report.rows[0]["s"] == expected_sum(rows_array())
        assert report.counters.pushdown_fallbacks == 1
        assert report.counters.session_retries == 1

    def test_dead_member_hard_fails(self):
        plan = FaultPlan(seed=4)
        plan.add(SITE_DEVICE_DEAD, match={"device": "smart-ssd-2"})
        session = self._session(plan)
        session.create_table("u", schema(), Layout.PAX, rows_array(),
                             "smart-ssd-0")
        session.submit(sum_query(), tenant="fleet")
        with pytest.raises(ShardUnavailable,
                           match=r"'t#2'.*'smart-ssd-2'") as failure:
            session.gather()
        assert isinstance(failure.value.__cause__, DeviceTimeoutError)
        assert session.frontend.pending_count == 0
        assert not session.frontend.scheduler.submissions
        for name in self.DEVICES:
            assert session.db.device(name).runtime.open_session_count == 0
        # The session keeps serving what the live devices hold.
        session.submit(replace(sum_query(), table="u"), tenant="fleet")
        (report,) = session.gather()
        assert report.rows[0]["s"] == expected_sum(rows_array())

    def test_slow_member_stretches_but_completes(self):
        plan = FaultPlan(seed=4)
        plan.add(SITE_DEVICE_SLOW, match={"device": "smart-ssd-0"},
                 delay=0.02)
        clean = self._run(self._session())
        report = self._run(self._session(plan))
        assert report.rows == clean.rows
        assert report.counters.pushdown_fallbacks == 0
        assert report.elapsed_seconds >= clean.elapsed_seconds + 0.02


# ---------------------------------------------------------------------------
# Acceptance: TPC-H Q6 pushdown survives a device program crash
# ---------------------------------------------------------------------------

class TestQ6UnderFaults:
    def test_q6_exact_answer_via_fallback(self):
        """A crashing device program must not change Q6's answer — the
        query degrades to the host path and returns the exact reference
        result, with the recovery visible in counters and trace marks."""
        from repro.bench.runners import DeviceKind, make_tpch_db
        from repro.engine import run_reference
        from repro.workloads import generate_lineitem, lineitem_schema
        from repro.workloads import q6_query

        plan = FaultPlan(seed=2013)
        plan.add(SITE_SESSION_CRASH)  # every pushdown attempt dies
        db = make_tpch_db(DeviceKind.SMART, Layout.PAX)
        db.install_fault_plan(plan)
        db.sim.tracer = Tracer()
        report = db.execute_placed(q6_query(), Placement.SMART)

        expected = run_reference(q6_query(),
                                 {"lineitem": lineitem_schema()},
                                 {"lineitem": generate_lineitem(0.002)})
        assert report.rows[0]["revenue"] == expected["revenue"]
        assert report.counters.pushdown_fallbacks == 1
        assert report.counters.session_retries == 1
        assert report.counters.device_program_crashes == 2
        assert db.sim.tracer.marks("session-failed")
        assert db.sim.tracer.marks("pushdown-fallback")
        assert plan.fired_count(SITE_SESSION_CRASH) >= 2


# ---------------------------------------------------------------------------
# Determinism: same plan seed => identical run, twice
# ---------------------------------------------------------------------------

def _seeded_run(seed):
    plan = FaultPlan(seed=seed)
    plan.add(SITE_SESSION_CRASH, probability=0.6)
    plan.add(SITE_GET_TIMEOUT, probability=0.3)
    plan.add(SITE_NAND_READ, probability=0.001, retries=2)
    db, __ = make_db(plan)
    report = db.execute_placed(sum_query(), Placement.SMART)
    log = [(e.site, e.rule_index, e.hit, e.time) for e in plan.events]
    return report, log


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 17])
    def test_two_runs_are_identical(self, seed):
        first, first_log = _seeded_run(seed)
        second, second_log = _seeded_run(seed)
        assert first.rows == second.rows
        assert first.elapsed_seconds == second.elapsed_seconds
        assert first_log == second_log
        assert first.counters == second.counters

    def test_different_seeds_diverge(self):
        def read_fault_log(seed):
            plan = FaultPlan(seed=seed)
            # ~40 heap pages at p=0.3 each: the per-seed firing patterns
            # coincide with probability ~0.58^40.
            plan.add(SITE_NAND_READ, probability=0.3, retries=1)
            db, __ = make_db(plan)
            db.execute_placed(sum_query(), Placement.HOST)
            return [(e.site, e.rule_index, e.hit) for e in plan.events]

        assert read_fault_log(0) != read_fault_log(1)

    def test_empty_plan_is_bit_identical_to_no_plan(self):
        db_plain, __ = make_db()
        db_empty, __ = make_db(FaultPlan(seed=0))
        plain = db_plain.execute_placed(sum_query(), Placement.SMART)
        empty = db_empty.execute_placed(sum_query(), Placement.SMART)
        assert plain.rows == empty.rows
        assert plain.elapsed_seconds == empty.elapsed_seconds
        assert plain.counters == empty.counters
