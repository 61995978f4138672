"""``serve_replay``: queueing, scan sharing and caching decide the result.

LINEITEM hash-sharded over four Smart SSDs, two tenants with token buckets,
serial backend. The load is an open loop in virtual time at four fixed
arrival rates, from a quarter of the measured capacity to almost four times
it. ``dashboard`` sends Q6 variants with ``Placement.AUTO`` and
``analytics`` sends Q1 variants with ``Placement.SMART``, both drawn from a
seeded Zipf pool sized for a result-cache hit ratio of about 0.4. Every rate
starts with one write-through ``Session.update`` that invalidates the cache.
An op is one logical query, timed from its due arrival, QoS and admission
waits included. The scheduler, the serving layer and the planner's
scatter/merge do the work.
"""

from __future__ import annotations

import numpy as np

import repro
from repro import Col, Compare, Const
from repro.host.db import DatabaseConfig
from repro.host.machine import HostSpec
from repro.storage.page import PAGE_SIZE
from repro.workloads import (
    generate_lineitem,
    lineitem_schema,
    q1_query,
    q6_query,
)

from harness import World, percentile, run_pass, same_rows
from loads.base import (
    Workload,
    matches_reference,
    reference_rows,
    timed,
)

#: One query in four is an analytics Q1; the rest are dashboard Q6.
ANALYTICS_EVERY = 4
#: Backlog may differ by this much between the middle and the end of a
#: window before it counts as growing.
BACKLOG_SLACK = 2


def zipf_ranks(count: int, pool: int, skew: float) -> np.ndarray:
    """``count`` ranks in ``[0, pool)`` at the quantiles of a Zipf law.

    The multiset is fixed, not sampled: the number of distinct queries per
    rate, and so the cache hit ratio, does not move with the seed, and
    neither do the virtual metrics that follow from it.
    """
    weights = 1.0 / np.arange(1, pool + 1) ** skew
    cdf = np.cumsum(weights / weights.sum())
    return np.searchsorted(cdf, (np.arange(count) + 0.5) / count)


def backlog_grows(arrivals: list[float], latencies: list[float]) -> bool:
    """True when more queries are in flight at the last arrival of a window
    than at its middle arrival: the queue is not draining at this rate."""
    done = [a + l for a, l in zip(arrivals, latencies)]

    def in_flight(t: float) -> int:
        return (sum(1 for a in arrivals if a <= t)
                - sum(1 for d in done if d <= t))

    middle = in_flight(arrivals[len(arrivals) // 2 - 1])
    return in_flight(arrivals[-1]) > middle + BACKLOG_SLACK


class ServeReplay(Workload):
    name = "serve_replay"

    def __init__(self, seed: int, size: dict):
        super().__init__(seed, size)
        rng = self.rng()
        pool, skew = size["pool"], size["zipf_skew"]
        per_window, window_count = (size["queries_per_window"],
                                    size["windows_per_rate"])
        is_q1 = [i % ANALYTICS_EVERY == ANALYTICS_EVERY - 1
                 for i in range(per_window)]
        # Which parameters a rank stands for is seeded ...
        q1_params = [(int(days),) for days in rng.permutation(
            np.arange(60, 121))[:pool]]
        q6_params = [(1993 + int(v) % 5, (2 + int(v) // 5 % 8) / 100.0,
                      24 + int(v) // 40) for v in rng.permutation(80)[:pool]]
        self.phases = []
        self.tenants = []
        for rate in size["rates_qps"]:
            # ... and so is the order within a window, but which ranks a
            # window draws is not: popular ranks recur in every window.
            dealt = {
                kind: [list(ranks[w::window_count])
                       for w in range(window_count)]
                for kind, ranks in (
                    ("q1", zipf_ranks(sum(is_q1) * window_count, pool, skew)),
                    ("q6", zipf_ranks((per_window - sum(is_q1))
                                      * window_count, pool, skew)))}
            windows = []
            for w in range(window_count):
                analytics, dashboard = self._tenant_pair(len(self.tenants))
                q1 = list(rng.permutation(dealt["q1"][w]))
                q6 = list(rng.permutation(dealt["q6"][w]))
                window = []
                for i in range(per_window):
                    if is_q1[i]:
                        params = q1_params[q1.pop()]
                        window.append((analytics, repro.Placement.SMART,
                                       ("q1", params), q1_query(*params)))
                    else:
                        params = q6_params[q6.pop()]
                        window.append((dashboard, repro.Placement.AUTO,
                                       ("q6", params), q6_query(*params)))
                windows.append(window)
            self.phases.append((float(rate), windows))
        self._rows = None

    def _tenant_pair(self, index: int) -> tuple[str, str]:
        """The two tenants of one window.

        A token bucket keeps its clock across gather cycles while arrival
        offsets restart at zero in each, so a tenant reused in the next
        window would wait out the previous window's span first. Each window
        therefore gets its own pair with the same contracts.
        """
        names = []
        for kind in ("analytics", "dashboard"):
            spec = self.size["tenants"][kind]
            names.append(f"{kind}-{index // 2}")
            self.tenants.append(repro.TenantSpec(
                names[-1], rate=spec["rate"], burst=spec["burst"]))
        return tuple(names)

    def build(self) -> None:
        self._rows = generate_lineitem(self.size["scale"])
        self.fresh()

    def fresh(self, backend: str = "serial") -> World:
        # A host pool far smaller than the table: data does not stay cached
        # on the host, so Placement.AUTO is decided by the cost model.
        session = repro.connect(DatabaseConfig(host=HostSpec(
            buffer_pool_nbytes=self.size["host_pool_pages"] * PAGE_SIZE)))
        names = [f"smart-{i}" for i in range(self.size["shards"])]
        devices = [session.db.create_smart_ssd(repro.SmartSsdSpec(name=name))
                   for name in names]
        session.create_sharded_table(
            "lineitem", lineitem_schema(), repro.Layout.PAX, self._rows,
            names, spec=repro.ShardSpec(kind="hash", key="l_orderkey"))
        session.serve(repro.ServeConfig(backend=backend),
                      tenants=tuple(self.tenants))
        return World(devices=[(d, session.db.sim) for d in devices],
                     session=session)

    def _invalidate(self, session) -> int:
        """A write-through update that changes no value: it rewrites and
        flushes the touched pages and bumps the table version, so results
        stay comparable with the reference while the cache empties."""
        cutoff = int(len(self._rows) * self.size["update_fraction"])
        return session.update(
            "lineitem", Compare(Col("l_orderkey"), "<", Const(cutoff)),
            {"l_linenumber": Col("l_linenumber")})

    def run_pass(self, world: World, tally) -> None:
        session = world.session
        frontend = session.frontend
        sim = session.db.sim
        scanned = len(self._rows)
        counts = tally.counts
        summary = []
        for rate, windows in self.phases:
            start = sim.now
            with tally.span("Session.update", op=rate):
                _, wall = timed(lambda: self._invalidate(session))
            tally.op("update", None, wall, sim.now - start)
            latencies_ms, grows = [], False
            for index, window in enumerate(windows):
                arrivals = [i / rate for i in range(len(window))]

                def submit():
                    return [session.submit(query, placement, at=at,
                                           tenant=tenant)
                            for at, (tenant, placement, _, query)
                            in zip(arrivals, window)]

                with tally.span("Session.submit", op=(rate, index)):
                    handles, submit_wall = timed(submit)
                with tally.span("Session.gather_batches", op=(rate, index)):
                    _, gather_wall = timed(session.gather_batches)
                tally.samples["serve.gather_ms_p50"].append(gather_wall)
                share = (submit_wall + gather_wall) / len(window)
                latencies = []
                energy = None
                for handle, (_, placement, key, _) in zip(handles, window):
                    report = handle.report
                    latency = report.elapsed_seconds
                    if handle.cached:
                        latency += handle.qos_delay_seconds
                    else:
                        energy = energy or report.energy
                        counts["serve.fan_out_total"] += handle.fan_out
                        counts["engine.rows_examined"] += scanned
                        if placement is repro.Placement.AUTO:
                            counts["host.auto_submitted"] += 1
                            counts["host.auto_smart"] += (
                                report.placement == "smart")
                    latencies.append(latency)
                    tally.op(key[0], key, share, latency, report.rows)
                    tally.report(report, energy=False)
                    counts["serve.qos_delay_vs"] += handle.qos_delay_seconds
                    counts["serve.pruned_shards"] += handle.pruned_shards
                if energy is not None:
                    # Some query reached a device, so the scheduler ran a
                    # window and its stats are this window's.
                    tally.energy_j += energy.entire_system_j
                    tally.window(frontend.stats["scheduler"])
                latencies_ms.extend(l * 1e3 for l in latencies)
                grows = grows or backlog_grows(arrivals, latencies)
            p95_ms = percentile(latencies_ms, 95.0)
            summary.append({
                "rate_qps": rate, "virt_p50_ms": percentile(latencies_ms, 50),
                "virt_p95_ms": p95_ms, "backlog_grows": grows,
                "ok": p95_ms <= self.size["p95_limit_ms"] and not grows})
        counts["serve.cache_hits"] = frontend.cache.hits
        counts["serve.cache_misses"] = frontend.cache.misses
        counts["serve.cache_evictions"] = frontend.cache.evictions
        world.state["rates"] = summary
        world.state["rate_ok_qps"] = max(
            (row["rate_qps"] for row in summary if row["ok"]), default=0.0)

    def verify(self, tally) -> tuple[int, int]:
        schemas = {"lineitem": lineitem_schema()}
        tables = {"lineitem": self._rows}
        queries = {key: query for _, windows in self.phases
                   for window in windows for _, _, key, query in window}
        # The same queries on one unsharded device: scatter/gather must not
        # change a result.
        single = repro.connect()
        single.db.create_smart_ssd()
        single.create_table("lineitem", lineitem_schema(), repro.Layout.PAX,
                            self._rows, "smart-ssd")
        failed = 0
        for key, query in queries.items():
            rows = tally.results[key]
            expected = reference_rows(query, schemas, tables)
            alone = single.execute(query, repro.Placement.SMART).rows
            if not (matches_reference(rows, expected)
                    and same_rows(rows, alone)):
                failed += 1
        return len(queries), failed

    def runtime_pass(self, serial_tally) -> dict:
        """One more pass on the process backend; the virtual clock must be
        the serial one, whatever the wall-clock does."""
        world = self.fresh("process")
        frontend = world.session.frontend
        try:
            tally = run_pass(self, world=world)
            runtime = frontend.stats["runtime"]
        finally:
            frontend.close()        # stops the forked lane workers
        if tally.probe.delta()["now"] != serial_tally.probe.delta()["now"]:
            raise AssertionError(
                "process backend moved the virtual clock: "
                f"{tally.probe.delta()['now']} != "
                f"{serial_tally.probe.delta()['now']}")
        return {
            "runtime.parallel_batches": runtime["parallel_batches"],
            "runtime.fallbacks": sum(runtime["fallbacks"].values()),
            "runtime.process_wall_s": tally.wall_s,
            "runtime.process_speedup_x": serial_tally.wall_s / tally.wall_s,
        }

    def specific(self, tally) -> dict:
        return {**super().specific(tally),
                "virt_rate_ok_qps": tally.world.state["rate_ok_qps"]}

    def detail(self, tally) -> dict:
        return {"rates": tally.world.state["rates"],
                "p95_limit_ms": self.size["p95_limit_ms"]}
