#!/usr/bin/env python
"""Perf-regression micro-harness: times the hot paths, emits BENCH_PR<N>.json.

Plain stdlib + numpy script (no pytest-benchmark) so it runs anywhere the
library runs, including CI. It measures four micro-benchmarks (page encode,
page decode, kernel page processing, DES event throughput), two end-to-end
figures (Fig. 3 Q6 and Fig. 5 join selectivity), scheduler scan-sharing
throughput in *virtual* time, data-skipping page-read reduction and top-N
interface shrink (both machine-independent), the serving layer's sharded
scatter/gather scaling and result-cache hit speedup (also virtual-time
figures from the E6 traffic replay), the parallel fleet runtime's
serial-vs-parallel wall-clock on the same replay (a top-level
``parallel`` block, CPU-count-conditional gate), the HTAP write path's
GC-policy face-off and DML-vs-scan interference (virtual-time/seeded
figures from the E7 experiment, floor- and ceiling-gated), and two more
machine-independent metrics: the total Python function-call counts of two
fixed workloads (Fig. 3 Q6 and one Q1), captured with cProfile. Wall-clock
numbers are normalized by a CPU calibration loop so the regression gate
(``check_regression.py``) is meaningful across machines of different speeds.

Usage::

    PYTHONPATH=src python benchmarks/perf/harness.py [--pr N | --output PATH]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
import time
from pathlib import Path

import numpy as np

#: The PR whose baseline this harness emits by default.
CURRENT_PR = 10


def default_output(pr: int = CURRENT_PR) -> Path:
    return Path(__file__).resolve().parent / f"BENCH_PR{pr}.json"


def _best_of(fn, repeats=3):
    """Minimum wall-clock of ``repeats`` runs (noise-resistant)."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def calibrate() -> float:
    """Seconds for a fixed CPU-bound workload; the unit for normalization."""
    def work():
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        rng = np.random.default_rng(0)
        a = rng.standard_normal(200_000)
        for __ in range(20):
            a = np.sort(a)[::-1].copy()
        return acc

    return _best_of(work)


def bench_encode():
    """Batched extent encoding, both layouts (pages/second)."""
    from repro.storage import Layout, encode_pages
    from repro.workloads import generate_lineitem, lineitem_schema

    schema = lineitem_schema()
    rows = generate_lineitem(0.002)
    out = {}
    for layout in (Layout.NSM, Layout.PAX):
        pages = encode_pages(layout, schema, rows)  # warm geometry caches
        elapsed = _best_of(lambda: encode_pages(layout, schema, rows))
        out[f"encode_{layout.value}_pages_per_s"] = len(pages) / elapsed
    return out


def bench_decode():
    """Full-page and projected-column decode (pages/second).

    The projected path decodes I/O-unit batches (32 pages per
    :meth:`repro.storage.UnitColumns.decode` call) — the decode the
    kernel actually performs; per-page projected decode is kept alongside
    for the speedup denominator.
    """
    from repro.storage import (
        Layout,
        UnitColumns,
        decode_columns,
        decode_page,
        encode_pages,
    )
    from repro.workloads import generate_lineitem, lineitem_schema

    schema = lineitem_schema()
    rows = generate_lineitem(0.002)
    pages = encode_pages(Layout.PAX, schema, rows)
    names = ("l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
    unit = 32
    units = [pages[i:i + unit] for i in range(0, len(pages), unit)]

    def full():
        for page in pages:
            decode_page(schema, page)

    def projected():
        for batch in units:
            UnitColumns(schema, batch).decode(names)

    def projected_per_page():
        for page in pages:
            decode_columns(schema, page, names)

    return {
        "decode_full_pages_per_s": len(pages) / _best_of(full),
        "decode_projected_pages_per_s": len(pages) / _best_of(projected),
        "decode_projected_page_at_a_time_pages_per_s":
            len(pages) / _best_of(projected_per_page),
    }


def bench_kernel():
    """Filter kernel throughput over encoded pages in 32-page units
    (pages/second)."""
    from repro.engine.expressions import Col, Compare, Const
    from repro.engine.kernels import BatchKernel
    from repro.engine.plans import Query
    from repro.model.counters import WorkCounters
    from repro.storage import Layout, encode_pages
    from repro.workloads import generate_lineitem, lineitem_schema

    schema = lineitem_schema()
    rows = generate_lineitem(0.002)
    pages = encode_pages(Layout.PAX, schema, rows)
    unit = 32
    units = [pages[i:i + unit] for i in range(0, len(pages), unit)]
    query = Query(table="lineitem",
                  predicate=Compare(Col("l_quantity"), "<", Const(2400)),
                  select=(("l_extendedprice", Col("l_extendedprice")),),
                  name="perf-filter")

    def run_batch():
        kernel = BatchKernel(query, schema, Layout.PAX)
        for batch in units:
            kernel.process_unit(batch, counters=WorkCounters())

    return {
        "kernel_filter_batch_pages_per_s": len(pages) / _best_of(run_batch),
    }


def bench_des():
    """DES engine throughput (scheduled events/second of wall time)."""
    from repro.sim import Resource, Simulator, seize

    def run():
        sim = Simulator()
        resource = Resource(sim, 2)

        def worker(start):
            yield sim.timeout(start)
            for __ in range(40):
                yield from seize(resource, 0.001)

        for i in range(500):
            sim.process(worker(i * 0.0001))
        sim.run()
        return sim._sequence

    events = run()
    return {"des_events_per_s": events / _best_of(run)}


def bench_figures():
    """End-to-end wall-clock of two committed figures, cold caches."""
    from repro.bench.figures import fig3_q6, fig5_join_selectivity
    from repro.bench.runners import invalidate_workload_cache

    out = {}
    for name, fn in (("fig3_q6", fig3_q6),
                     ("fig5_join_selectivity", fig5_join_selectivity)):
        invalidate_workload_cache()
        start = time.perf_counter()
        fn()
        out[f"{name}_s"] = time.perf_counter() - start
    return out


def bench_scheduler():
    """Scan-sharing throughput at fan-in 8, in virtual (simulated) time.

    Virtual-time figures are deterministic across machines, so these
    metrics gate on absolute floors (see check_regression.FLOORS) rather
    than the calibrated relative tolerance.
    """
    from repro.bench.runners import DeviceKind, make_tpch_db
    from repro.sched import QueryScheduler
    from repro.storage import Layout
    from repro.workloads import q6_query

    solo_db = make_tpch_db(DeviceKind.SMART, Layout.PAX)
    solo = solo_db.execute_placed(q6_query(), "smart")

    fan_in = 8
    db = make_tpch_db(DeviceKind.SMART, Layout.PAX)
    scheduler = QueryScheduler(db)
    for __ in range(fan_in):
        scheduler.submit(q6_query(), "smart")
    scheduler.gather()
    window = scheduler.stats["window_seconds"]
    return {
        "sched_fanin8_speedup_x": solo.elapsed_seconds * fan_in / window,
        "sched_fanin8_queries_per_vs": fan_in / window,
        "sched_fanin8_saved_page_reads":
            float(scheduler.stats["saved_page_reads"]),
    }


def bench_skipping():
    """Data skipping + top-N pushdown on a shipdate-clustered LINEITEM.

    Deterministic virtual-time figures (floor-gated, like the scheduler
    metrics): a one-month Q6-style window over a date-sorted extent must
    read >= 5x fewer NAND pages with per-page statistics than without, and
    ORDER BY ... LIMIT k must shrink interface traffic by >= 5x versus
    shipping the full qualifying set.
    """
    from repro.engine import Col, Compare, Const, Query, and_all
    from repro.host.db import Database
    from repro.storage import Layout
    from repro.workloads import (
        date_to_days,
        generate_lineitem,
        lineitem_schema,
    )

    schema = lineitem_schema()
    rows = generate_lineitem(0.002)
    # Clustered extent: sorted by ship date, the way a date-partitioned
    # fact table lands on disk. Zone maps then carry one narrow date range
    # per page.
    rows = np.sort(rows, order="l_shipdate")

    def make_db(stats_config):
        db = Database()
        db.create_smart_ssd()
        db.create_table("lineitem", schema, Layout.PAX, rows, "smart-ssd",
                        stats_config=stats_config)
        return db

    window_query = Query(
        name="q6-window", table="lineitem",
        predicate=and_all([
            Compare(Col("l_shipdate"), ">=",
                    Const(date_to_days(1994, 6, 1))),
            Compare(Col("l_shipdate"), "<",
                    Const(date_to_days(1994, 7, 1))),
            Compare(Col("l_quantity"), "<", Const(2400)),
        ]),
        select=(("l_extendedprice", Col("l_extendedprice")),
                ("l_discount", Col("l_discount"))))

    from repro.storage import StatsConfig
    pruned = make_db(StatsConfig()).execute_placed(window_query, "smart")
    full = make_db(None).execute_placed(window_query, "smart")
    assert pruned.counters.pages_skipped > 0

    topn = Query(
        name="q6-topn", table="lineitem", predicate=window_query.predicate,
        select=window_query.select, order_by="l_extendedprice",
        descending=True, limit=10)
    folded = make_db(StatsConfig()).execute_placed(topn, "smart")
    unfolded = make_db(StatsConfig()).execute_placed(
        Query(name="q6-all", table="lineitem", select=window_query.select),
        "smart")

    return {
        "skip_q6_page_reduction_x":
            full.io.pages_read_device / pruned.io.pages_read_device,
        "skip_q6_pages_read": float(pruned.io.pages_read_device),
        "skip_q6_pages_skipped": float(pruned.counters.pages_skipped),
        "topn_interface_shrink_x":
            unfolded.io.bytes_over_interface / folded.io.bytes_over_interface,
    }


def bench_serving():
    """Multi-tenant serving over a sharded fleet, in virtual time.

    Deterministic floor-gated figures from the E6 traffic replay
    (``repro.bench.ablations.ext_serving``): scatter/gather must deliver
    >= 2.5x queries/sec at four shards versus one, and a repeated query
    must come back from the result cache >= 50x faster than its cold run.
    """
    from repro.bench.ablations import ext_serving

    result = ext_serving()
    by_shards = {row[0]: row for row in result.rows}
    return {
        "serve_shard_scaling_x": by_shards[4][2] / by_shards[1][2],
        "serve_4shard_queries_per_vs": by_shards[4][2],
        "serve_cache_hit_speedup_x": min(row[7] for row in result.rows),
        "serve_4shard_p99_vms": by_shards[4][4],
    }


def bench_htap():
    """HTAP write path: GC-policy face-off + DML-vs-scan interference.

    Every figure is seeded or virtual-time, so all are deterministic and
    machine-independent. Gated absolutely (``check_regression.FLOORS`` /
    ``CEILINGS``): cost-benefit + wear leveling must beat greedy on write
    amplification under overwrite skew, wear spread must stay bounded,
    concurrent DML may not move scan p99 past a small ceiling, and shared
    scans must return bit-identical results with DML in the window.
    """
    from repro.bench.ablations import htap_metrics

    metrics = htap_metrics()
    return {
        "htap_greedy_wa": metrics["htap_greedy_wa"],
        "htap_costbenefit_wa": metrics["htap_costbenefit_wa"],
        "htap_wa_policy_gain_x": metrics["htap_wa_policy_gain_x"],
        "htap_wear_spread_erases": metrics["htap_wear_spread_erases"],
        "htap_scan_p99_interference_x":
            metrics["htap_scan_p99_interference_x"],
        "htap_scans_bit_identical": metrics["htap_scans_bit_identical"],
    }


def bench_parallel_serving(backend: str = "process") -> dict:
    """Wall-clock of the E6 replay, serial engine vs a parallel backend.

    The only wall-clock figure in the report that measures *host* CPU
    parallelism rather than simulated device parallelism: the same
    four-shard two-tenant traffic replay runs once on the serial engine
    and once on ``backend`` (thread/process lanes, one per shard), and
    both must land on the identical virtual clock — the determinism
    contract of :mod:`repro.runtime`. The speedup is gated by
    ``check_regression.py`` only on machines with >= 4 CPUs; this
    harness just reports what it saw alongside the CPU count so the
    gate can tell "runtime regressed" from "machine too small".
    """
    import os

    from repro.host.catalog import ShardSpec
    from repro.host.db import Database
    from repro.sched.qos import TenantSpec
    from repro.serve import Frontend, ServeConfig
    from repro.smart.device import SmartSsdSpec
    from repro.storage import Layout
    from repro.workloads import (
        generate_lineitem,
        lineitem_schema,
        q1_query,
        q6_query,
    )

    shards = 4
    queries_per_tenant = 6
    schema = lineitem_schema()
    lineitem = generate_lineitem(0.004)

    def replay(backend_name):
        db = Database()
        devices = [db.create_smart_ssd(SmartSsdSpec(name=f"smart-{i}"))
                   for i in range(shards)]
        db.catalog.create_sharded_table(
            "lineitem", schema, Layout.PAX, lineitem, devices,
            spec=ShardSpec(kind="hash", key="l_orderkey"))
        frontend = Frontend(
            db, ServeConfig(backend=backend_name, cache_enabled=False),
            tenants=(TenantSpec("analytics", rate=500.0, burst=32.0),
                     TenantSpec("dashboard", rate=500.0, burst=32.0)))
        for i in range(queries_per_tenant):
            arrival = i * 1e-4
            frontend.submit(q1_query(delta_days=60 + i),
                            tenant="analytics", at=arrival)
            frontend.submit(q6_query(year=1993 + i % 3),
                            tenant="dashboard", at=arrival)
        start = time.perf_counter()
        frontend.gather()
        elapsed = time.perf_counter() - start
        now = db.sim.now
        runtime = dict(frontend.scheduler.runtime_stats)
        frontend.close()
        return elapsed, now, runtime

    serial_s, serial_now, _ = replay("serial")
    parallel_s, parallel_now, runtime = replay(backend)
    assert parallel_now == serial_now, (
        f"{backend} backend broke the virtual clock: "
        f"{parallel_now} != {serial_now}")
    return {
        "backend": backend,
        "serial_s": serial_s,
        f"{backend}_s": parallel_s,
        "speedup_x": serial_s / parallel_s,
        "workers": shards,
        "cpu_count": os.cpu_count() or 1,
        "parallel_batches": runtime["parallel_batches"],
        "fallbacks": runtime["fallbacks"],
    }


def _profiled_calls(fn) -> int:
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    profiler.create_stats()
    return int(sum(stat[0] for stat in profiler.stats.values()))


def count_calls():
    """Total function calls of two fixed workloads — machine-independent.

    ``fig3_q6`` is the filter-and-scalar-fold path with cold caches; one
    ``q1_query()`` on the built Smart SSD PAX world is the grouped fold.
    """
    from repro.bench.figures import fig3_q6
    from repro.bench.runners import (
        DeviceKind,
        invalidate_workload_cache,
        make_tpch_db,
    )
    from repro.storage import Layout
    from repro.workloads import q1_query

    invalidate_workload_cache()
    counts = {"fig3_q6_function_calls": _profiled_calls(fig3_q6)}
    db = make_tpch_db(DeviceKind.SMART, Layout.PAX)
    counts["q1_function_calls"] = _profiled_calls(
        lambda: db.execute_placed(q1_query(), "smart"))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pr", type=int, default=CURRENT_PR,
                        help="PR number the baseline is for; names the "
                             f"default output BENCH_PR<N>.json "
                             f"(default: {CURRENT_PR})")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON (overrides --pr; "
                             f"default: {default_output()})")
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="process",
                        help="parallel runtime backend the serial-vs-"
                             "parallel serving bench compares against "
                             "(default: process)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = default_output(args.pr)

    calibration = calibrate()
    metrics = {}
    for section in (bench_encode, bench_decode, bench_kernel, bench_des,
                    bench_figures, bench_scheduler, bench_skipping,
                    bench_serving, bench_htap):
        section_metrics = section()
        metrics.update(section_metrics)
        for key, value in section_metrics.items():
            print(f"  {key}: {value:,.1f}")
    for key, value in count_calls().items():
        metrics[key] = value
        print(f"  {key}: {value:,}")

    # Top-level block, not a metric: wall-clock parallel speedup is gated
    # by check_regression.py conditionally on the CPU count, never by the
    # calibrated-ratio machinery.
    parallel = bench_parallel_serving(args.backend)
    print(f"  parallel[{parallel['backend']}]: "
          f"{parallel['speedup_x']:.2f}x over serial "
          f"({parallel['cpu_count']} cpus)")

    from repro.bench.runners import workload_cache_stats
    report = {
        "calibration_s": calibration,
        "metrics": metrics,
        "parallel": parallel,
        "workload_cache": dict(workload_cache_stats),
        "python": sys.version.split()[0],
    }
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
