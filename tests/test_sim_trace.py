"""Tests for the resource tracer."""

import pytest

from repro.engine import Placement
from repro.sim import Resource, Simulator, Tracer, seize
from repro.sim.trace import LevelChange


class TestTracerMath:
    def test_busy_fraction_exact(self):
        tracer = Tracer()
        tracer.record("bus", 0.0, 1)
        tracer.record("bus", 2.0, 0)
        assert tracer.busy_fraction("bus", 0.0, 4.0) == pytest.approx(0.5)
        assert tracer.busy_fraction("bus", 0.0, 2.0) == pytest.approx(1.0)
        assert tracer.busy_fraction("bus", 2.0, 4.0) == pytest.approx(0.0)

    def test_busy_fraction_with_capacity(self):
        tracer = Tracer()
        tracer.record("cpu", 0.0, 2)
        tracer.record("cpu", 1.0, 0)
        assert tracer.busy_fraction("cpu", 0.0, 2.0,
                                    capacity=4) == pytest.approx(0.25)

    def test_timeline_buckets(self):
        tracer = Tracer()
        tracer.record("x", 0.0, 1)
        tracer.record("x", 1.0, 0)
        assert tracer.timeline("x", 0.0, 2.0, 2) == [
            pytest.approx(1.0), pytest.approx(0.0)]

    def test_unknown_resource_is_idle(self):
        assert Tracer().busy_fraction("ghost", 0.0, 1.0) == 0.0

    def test_empty_window(self):
        assert Tracer().busy_fraction("x", 1.0, 1.0) == 0.0
        assert Tracer().timeline("x", 0.0, 1.0, 0) == []


class TestIntegration:
    def test_resources_report_when_tracer_attached(self):
        sim = Simulator()
        sim.tracer = Tracer()
        resource = Resource(sim, 1, name="bus")

        def worker():
            yield from seize(resource, 2.0)
            yield sim.timeout(2.0)

        sim.process(worker())
        sim.run()
        assert sim.tracer.resources() == ["bus"]
        assert sim.tracer.events("bus") == [
            LevelChange(0.0, 1), LevelChange(2.0, 0)]
        assert sim.tracer.busy_fraction("bus", 0.0, 4.0) == pytest.approx(0.5)

    def test_no_tracer_no_overhead(self):
        sim = Simulator()
        resource = Resource(sim, 1)

        def worker():
            yield from seize(resource, 1.0)

        sim.process(worker())
        sim.run()  # must simply not crash

    def test_gantt_renders_all_resources(self):
        sim = Simulator()
        sim.tracer = Tracer()
        a = Resource(sim, 1, name="alpha")
        b = Resource(sim, 1, name="beta")

        def worker(resource, hold):
            yield from seize(resource, hold)

        sim.process(worker(a, 4.0))
        sim.process(worker(b, 1.0))
        sim.run()
        chart = sim.tracer.gantt(width=8)
        assert "alpha" in chart and "beta" in chart
        assert "100%" in chart   # alpha is busy the whole window
        assert "(no traced" not in chart

    def test_query_execution_traces_device_resources(self):
        """End to end: attach a tracer to a Database's simulator."""
        from repro.bench.runners import DeviceKind, make_tpch_db
        from repro.storage import Layout
        from repro.workloads import q6_query

        db = make_tpch_db(DeviceKind.SMART, Layout.PAX, 0.005)
        db.sim.tracer = Tracer()
        db.execute_placed(q6_query(), Placement.SMART)
        names = db.sim.tracer.resources()
        assert any("smart-ssd-cpu" in name for name in names)
        assert any("device-dram-bus" in name for name in names)
        # The device CPU dominates (Q6's saturation story).
        end = db.sim.now
        cpu = db.sim.tracer.busy_fraction("smart-ssd-cpu", 0.0, end,
                                          capacity=3)
        assert cpu > 0.7


class TestLateAttach:
    def test_attach_after_construction_backfills_occupancy(self):
        """A tracer attached mid-run still sees currently-held resources."""
        sim = Simulator()
        resource = Resource(sim, 1, name="bus")

        def worker():
            yield from seize(resource, 4.0)
            yield sim.timeout(2.0)

        sim.process(worker())
        sim.run(until=1.0)           # bus is held, no tracer yet
        sim.attach_tracer(Tracer())  # late attach: backfill current level
        sim.run()
        assert sim.tracer.events("bus") == [
            LevelChange(1.0, 1), LevelChange(4.0, 0)]
        assert sim.tracer.busy_fraction("bus", 1.0, 4.0) == pytest.approx(1.0)

    def test_attach_on_idle_sim_records_nothing_until_use(self):
        sim = Simulator()
        resource = Resource(sim, 1, name="lane")
        sim.attach_tracer(Tracer())
        assert sim.tracer.resources() == []

        def worker():
            yield from seize(resource, 1.0)

        sim.process(worker())
        sim.run()
        assert sim.tracer.events("lane") == [
            LevelChange(0.0, 1), LevelChange(1.0, 0)]
