"""One workload's run: set-up, verify, warm-up, timed passes, traced pass.

Every number says which clock it uses. *Virtual* numbers (``virt_*``, counts,
ratios) are what the modelled Smart SSD would take; they are deterministic
and every timed pass must reproduce them exactly. *Host* numbers (``*_s``,
``*_ms``, ``*_per_s``, ``peak_rss_mb``) are what the Python simulator takes
on this machine.

A pass is a fixed, seeded op list run on a fresh world; its length never
depends on a timer. The number of timed passes does: at least
``MIN_TIMED_PASSES``, then more until ``--seconds`` of timed work are done.
Virtual metrics are those of one pass, so they do not depend on how many
passes the timer allowed.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

import layers

MIN_TIMED_PASSES = 5
MAX_TIMED_PASSES = 60
#: p95 needs ten samples beyond it.
MIN_P95_SAMPLES = 200
SETUP_BUILDS = 5
#: Untraced passes of a ``--trace 1`` run: what the overhead is measured on.
UNTRACED_PASSES = 2


class BenchmarkError(Exception):
    """The benchmark cannot report a metric it was asked for."""


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    return float(np.percentile(values, q))


def p95(values) -> float:
    """p95, refused when fewer than ten samples lie beyond it."""
    if len(values) < MIN_P95_SAMPLES:
        raise BenchmarkError(
            f"p95 needs at least {MIN_P95_SAMPLES} samples, got "
            f"{len(values)}")
    return percentile(values, 95.0)


# ---------------------------------------------------------------------------
# Worlds, probes and the per-pass tally
# ---------------------------------------------------------------------------

@dataclass
class World:
    """What one pass runs against.

    ``devices`` pairs every simulated device with its simulator (the device
    door workload owns two). ``session`` is the front door, when the
    workload has one.
    """

    devices: list                      # [(device, sim)]
    session: Any = None
    state: dict = field(default_factory=dict)

    def sims(self) -> list:
        return list({id(sim): sim for _, sim in self.devices}.values())


def _device_snapshot(device, sim) -> dict:
    now = sim.now
    stats = device.ftl.stats
    snap = {
        "nand_reads": device.nand.reads,
        "nand_programs": device.nand.programs,
        "host_writes": stats.host_writes,
        "gc_relocations": stats.gc_relocations,
        "erases": stats.erases,
        "interface_bytes": device.interface.bytes_moved,
        "interface_busy": device.interface.busy.busy_time(now),
        "dram_bus_bytes": device.controller.dram_bus.bytes_moved,
        "dram_bus_busy": device.controller.dram_bus.busy.busy_time(now),
        "cpu_busy": 0.0,
        # Capacity integrals, so that utilization is busy / capacity even
        # when the devices of one world live in different simulators.
        "device_seconds": now,
        "cpu_core_seconds": 0.0,
    }
    if hasattr(device, "cpu_core_seconds"):
        snap["cpu_busy"] = device.cpu_core_seconds()
        snap["cpu_core_seconds"] = device.cpu_spec.cores * now
    return snap


_SUMMED = ("nand_reads", "nand_programs", "host_writes", "gc_relocations",
           "erases", "interface_bytes", "interface_busy", "dram_bus_bytes",
           "dram_bus_busy", "cpu_busy", "device_seconds",
           "cpu_core_seconds")


class Probe:
    """Before/after reading of a world's public device and host counters."""

    def __init__(self, world: World):
        self.world = world
        self.before = self._read()

    def _read(self) -> dict:
        world = self.world
        total: dict = defaultdict(float)
        for device, sim in world.devices:
            snap = _device_snapshot(device, sim)
            for key in _SUMMED:
                total[key] += snap[key]
        total["now"] = sum(sim.now for sim in world.sims())
        if world.session is not None:
            db = world.session.db
            total["bp_hits"] = db.buffer_pool.hits
            total["bp_misses"] = db.buffer_pool.misses
            total["bp_evictions"] = db.buffer_pool.evictions
            total["host_cpu"] = db.machine.cpu_core_seconds()
            total["host_cores"] = db.config.host.cpu.cores
        return dict(total)

    def delta(self) -> dict:
        """What the counters have moved by since the probe was made."""
        now = self._read()
        out = {key: now[key] - self.before.get(key, 0) for key in now}
        if "host_cores" in now:
            out["host_cores"] = now["host_cores"]
        return out


def write_amplification(delta: dict) -> float:
    """(host + GC programs) / host programs; 0 when nothing was written."""
    if not delta.get("host_writes"):
        return 0.0
    return ((delta["host_writes"] + delta["gc_relocations"])
            / delta["host_writes"])


class Tally:
    """What one pass did, as the workload reports it.

    ``ops`` holds one ``(kind, key, wall_s, virt_s)`` per operation;
    ``results`` maps each distinct op key to the rows it returned, for the
    verify pass; ``counts`` holds additive counters under their per-layer
    metric names; ``samples`` holds host-time samples whose median is a
    metric.
    """

    def __init__(self, world: World, spans: Optional[layers.Spans] = None):
        self.world = world
        self.probe = Probe(world)
        self.spans = spans
        self.ops: list[tuple[str, Any, float, float]] = []
        self.results: dict = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.energy_j = 0.0
        self.wall_s = 0.0
        self.profile = None             # cProfile entries of a traced pass

    def op(self, kind: str, key, wall_s: float, virt_s: float,
           rows=None) -> None:
        self.ops.append((kind, key, wall_s, virt_s))
        if rows is not None and key not in self.results:
            self.results[key] = rows

    def report(self, report, energy: bool = True) -> None:
        """Fold one ExecutionReport's public counters in."""
        counters = report.counters
        self.work(counters)
        self.counts["engine.result_rows"] += len(report.rows)
        if energy and report.energy is not None:
            self.energy_j += report.energy.entire_system_j

    def work(self, counters) -> None:
        """Fold one WorkCounters block in (reports and write tickets)."""
        counts = self.counts
        counts["storage.pages_parsed"] += counters.pages_parsed
        counts["storage.decoded_bytes"] += counters.decoded_bytes
        counts["storage.decode_bytes_elided"] += counters.decode_bytes_elided
        counts["engine.predicates_evaluated"] += counters.predicates_evaluated
        counts["engine.hash_probes"] += counters.hash_probes
        counts["engine.aggregate_updates"] += counters.aggregate_updates
        counts["engine.output_values"] += counters.output_values
        counts["engine.zone_map_checks"] += counters.zone_map_checks
        counts["engine.pages_skipped"] += counters.pages_skipped
        counts["smart.io_units"] += counters.io_units
        counts["smart.session_retries"] += counters.session_retries
        counts["smart.pushdown_fallbacks"] += counters.pushdown_fallbacks

    def window(self, stats: dict) -> None:
        """Fold one gather window's ``scheduler.stats`` in."""
        counts = self.counts
        counts["sched.windows"] += 1
        counts["sched.shared_groups"] += stats["shared_groups"]
        counts["sched.saved_page_reads"] += stats["saved_page_reads"]
        counts["sched.admission_wait_vs"] += sum(stats["admission_waits"])
        counts["sched.write_admission_wait_vs"] += sum(
            stats["write_admission_waits"])
        counts["sched.group_flushes"] += stats["group_flushes"]
        counts["sched.solo_rescues"] += stats["solo_rescues"]
        counts["writepath.statements"] += stats["write_submitted"]
        counts["writepath.rows_changed"] += stats["write_rows_changed"]
        counts["writepath.pages_flushed"] += stats["write_pages_flushed"]

    def span(self, name: str, op=None):
        """A driver-side span when this pass is traced, else a no-op."""
        if self.spans is None:
            return nullcontext()
        return self.spans.span(name, op)


def virtual_signature(tally: Tally) -> tuple:
    """Everything virtual about a pass; two passes must agree exactly."""
    delta = tally.probe.delta()
    return (delta["now"], tally.energy_j,
            tuple(virt for _, _, _, virt in tally.ops),
            delta["nand_reads"], delta["nand_programs"], delta["erases"])


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

def run_pass(workload, world: Optional[World] = None,
             spans: Optional[layers.Spans] = None) -> Tally:
    """One pass on a fresh world; the world is built outside the timer.

    With ``spans`` the pass is the traced one: it records driver-side spans
    and runs under cProfile.
    """
    world = world or workload.fresh()
    gc.collect()
    tally = Tally(world, spans)
    if spans is None:
        start = time.perf_counter()
        workload.run_pass(world, tally)
        tally.wall_s = time.perf_counter() - start
    else:
        _, tally.wall_s, tally.profile = layers.profile_call(
            lambda: workload.run_pass(world, tally))
    return tally


def timed_setup(workload) -> list[float]:
    """Cold world builds: generate, encode, stats, ``load_extent``."""
    times = []
    for _ in range(SETUP_BUILDS):
        gc.collect()
        start = time.perf_counter()
        workload.build()
        times.append(time.perf_counter() - start)
    return times


def same_rows(left, right) -> bool:
    """Exact equality of two result sets of the same op."""
    if left is None or right is None:
        return False
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (isinstance(left, np.ndarray)
                and isinstance(right, np.ndarray)
                and left.dtype == right.dtype and left.shape == right.shape
                and bool((left == right).all()))
    return left == right


def check_against(reference: Tally, tally: Tally) -> int:
    """Ops of ``tally`` whose rows differ from the verified pass's rows.

    The rows are dropped afterwards: they are the bulk of a finished pass,
    and ``peak_rss_mb`` should not depend on what the results weigh.
    """
    wrong = sum(1 for key, rows in tally.results.items()
                if not same_rows(reference.results.get(key), rows))
    tally.results.clear()
    return wrong


def measure(workload, seconds: float) -> dict:
    """The ``--trace 0`` run: every end-to-end metric of one workload."""
    setup_times = timed_setup(workload)
    verified = run_pass(workload)
    attempted, failed = workload.verify(verified)
    run_pass(workload)                                  # warm-up
    # Only the first timed pass is kept whole: a finished world holds every
    # page and result of its pass, and peak_rss_mb must not grow with the
    # number of passes the timer happened to allow.
    first: Optional[Tally] = None
    walls: list[float] = []
    op_walls: list[float] = []
    deterministic = True
    while (len(walls) < MIN_TIMED_PASSES or sum(walls) < seconds) \
            and len(walls) < MAX_TIMED_PASSES:
        tally = run_pass(workload)
        walls.append(tally.wall_s)
        op_walls.extend(op[2] * 1e3 for op in tally.ops)
        attempted += len(tally.ops)
        failed += check_against(verified, tally)
        if first is None:
            first, signature = tally, virtual_signature(tally)
        elif virtual_signature(tally) != signature:
            deterministic = False
    if not deterministic:
        # A virtual number that moves between identical passes is a wrong
        # result of the simulator, whatever the rows say.
        failed += 1
    wall_s = statistics.median(walls)
    delta = first.probe.delta()
    op_virts = [op[3] * 1e3 for op in first.ops]
    pages = delta["nand_reads"] + delta["nand_programs"]
    quartiles = statistics.quantiles(walls, n=4)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "sim_pages_per_s": pages / wall_s,
        "op_p50_ms": percentile(op_walls, 50.0),
        "op_p95_ms": p95(op_walls),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virt_s": delta["now"],
        "virt_p50_ms": percentile(op_virts, 50.0),
        "virt_p95_ms": percentile(op_virts, 95.0),
        "virt_energy_j": first.energy_j,
    }
    detail = {
        "setup_times_s": setup_times,
        "pass_walls_s": walls,
        "pass_wall_iqr_s": quartiles[2] - quartiles[0],
        "timed_passes": len(walls),
        "ops_per_pass": len(first.ops),
        "op_samples": len(op_walls),
        "virt_op_samples": len(op_virts),
        "virtual_repeats_exactly": deterministic,
        "flash_pages_per_pass": pages,
    }
    detail.update(workload.detail(first))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "specific": workload.specific(first), "detail": detail}


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tally: Tally, layer_times: dict, calls_by_name: dict,
                  base_wall_s: float, extra: dict) -> dict:
    """Assemble the per-layer metrics of one traced pass."""
    counts = tally.counts
    trace_wall_s = tally.wall_s
    delta = tally.probe.delta()
    virt_s = delta["now"]
    metrics: dict[str, float] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = layer_times[layer]["self_s"]
        metrics[f"{layer}.calls"] = layer_times[layer]["calls"]

    def self_us(layer: str, per: float) -> float:
        return _ratio(layer_times[layer]["self_s"] * 1e6, per)

    def calls(package: str, name: str) -> int:
        return calls_by_name.get((package, name), 0)

    events = calls("sim", "_push")
    metrics["sim.events"] = events
    metrics["sim.us_per_event"] = self_us("sim", events)

    pages = delta["nand_reads"] + delta["nand_programs"]
    world = tally.world
    metrics.update({
        "flash.nand_reads": delta["nand_reads"],
        "flash.nand_programs": delta["nand_programs"],
        "flash.erases": delta["erases"],
        "flash.gc_relocations": delta["gc_relocations"],
        "flash.write_amp": write_amplification(delta),
        "flash.wear_spread": max(device.ftl.wear_spread()
                                 for device, _ in world.devices),
        "flash.interface_bytes": delta["interface_bytes"],
        "flash.dram_bus_bytes": delta["dram_bus_bytes"],
        "flash.interface_util": _ratio(delta["interface_busy"],
                                       delta["device_seconds"]),
        "flash.dram_bus_util": _ratio(delta["dram_bus_busy"],
                                      delta["device_seconds"]),
        "flash.us_per_page": self_us("flash", pages),
    })

    encoded = calls("storage", "encode_page")
    metrics.update({
        "storage.pages_parsed": counts["storage.pages_parsed"],
        "storage.pages_encoded": encoded,
        "storage.decoded_bytes": counts["storage.decoded_bytes"],
        "storage.decode_bytes_elided": counts["storage.decode_bytes_elided"],
        "storage.us_per_page": self_us(
            "storage", counts["storage.pages_parsed"] + encoded),
    })

    for name in ("predicates_evaluated", "hash_probes", "aggregate_updates",
                 "output_values", "zone_map_checks", "pages_skipped"):
        metrics[f"engine.{name}"] = counts[f"engine.{name}"]
    metrics["engine.rows_per_result"] = _ratio(
        counts["engine.rows_examined"], counts["engine.result_rows"])

    metrics.update({
        "smart.sessions": calls("smart", "open_session"),
        "smart.io_units": counts["smart.io_units"],
        "smart.session_retries": counts["smart.session_retries"],
        "smart.pushdown_fallbacks": counts["smart.pushdown_fallbacks"],
        "smart.device_cpu_util": _ratio(delta["cpu_busy"],
                                        delta["cpu_core_seconds"]),
    })

    lookups = delta.get("bp_hits", 0) + delta.get("bp_misses", 0)
    metrics.update({
        "host.bufferpool_hits": delta.get("bp_hits", 0),
        "host.bufferpool_misses": delta.get("bp_misses", 0),
        "host.bufferpool_evictions": delta.get("bp_evictions", 0),
        "host.bufferpool_hit_ratio": _ratio(delta.get("bp_hits", 0),
                                            lookups),
        "host.cpu_util": _ratio(delta.get("host_cpu", 0.0),
                                virt_s * delta.get("host_cores", 0)),
        "host.auto_pushdown_frac": _ratio(counts["host.auto_smart"],
                                          counts["host.auto_submitted"]),
    })

    metrics["sql.statements"] = counts["sql.statements"]
    metrics["sql.compile_ms_p50"] = extra.get("sql.compile_ms_p50", 0.0)

    for name in ("windows", "shared_groups", "saved_page_reads",
                 "admission_wait_vs", "write_admission_wait_vs",
                 "group_flushes", "solo_rescues"):
        metrics[f"sched.{name}"] = counts[f"sched.{name}"]

    probes = counts["serve.cache_hits"] + counts["serve.cache_misses"]
    metrics.update({
        "serve.cache_hits": counts["serve.cache_hits"],
        "serve.cache_misses": counts["serve.cache_misses"],
        "serve.cache_hit_ratio": _ratio(counts["serve.cache_hits"], probes),
        "serve.cache_evictions": counts["serve.cache_evictions"],
        "serve.qos_delay_vs": counts["serve.qos_delay_vs"],
        "serve.fan_out": _ratio(counts["serve.fan_out_total"],
                                counts["serve.cache_misses"]),
        "serve.pruned_shards": counts["serve.pruned_shards"],
        "serve.gather_ms_p50": extra.get("serve.gather_ms_p50", 0.0),
    })

    metrics.update({
        "runtime.parallel_batches": extra.get("runtime.parallel_batches", 0),
        "runtime.fallbacks": extra.get("runtime.fallbacks", 0),
        "runtime.process_wall_s": extra.get("runtime.process_wall_s", 0.0),
        "runtime.process_speedup_x": extra.get("runtime.process_speedup_x",
                                               0.0),
        "runtime.cpu_count": os.cpu_count() or 1,
    })

    metrics.update({
        "writepath.statements": counts["writepath.statements"],
        "writepath.rows_changed": counts["writepath.rows_changed"],
        "writepath.pages_flushed": counts["writepath.pages_flushed"],
        "writepath.us_per_page_flushed": self_us(
            "writepath", counts["writepath.pages_flushed"]),
    })

    attributed = sum(layer_times[layer]["self_s"] for layer in layers.LAYERS)
    metrics.update({
        "trace.wall_s": trace_wall_s,
        "trace.overhead_x": _ratio(trace_wall_s, base_wall_s),
        "trace.unattributed_frac": abs(trace_wall_s - attributed)
        / trace_wall_s,
    })
    return metrics


def trace(workload) -> dict:
    """The ``--trace 1`` run: every per-layer metric of one workload.

    End-to-end metrics are never read here. The untraced passes give the
    wall-clock the tracing overhead is measured against, and the host-time
    medians (``serve.gather_ms_p50``) that a profiler would inflate.
    """
    spans = layers.Spans()
    with spans.span("setup"):
        workload.build()
    with spans.span("verify"):                  # doubles as the warm-up
        verified = run_pass(workload)
        attempted, failed = workload.verify(verified)
    base = []
    with spans.span("untraced"):
        for _ in range(UNTRACED_PASSES):
            base.append(run_pass(workload))
    base_wall_s = statistics.median(tally.wall_s for tally in base)
    extra = workload.host_samples(base[-1])
    extra.update(workload.runtime_pass(base[-1]))

    with spans.span("traced-pass"):
        tally = run_pass(workload, spans=spans)
    attempted += len(tally.ops)
    failed += check_against(verified, tally)
    if virtual_signature(tally) != virtual_signature(base[-1]):
        failed += 1
    layer_times, calls_by_name = layers.roll_up(tally.profile)
    metrics = layer_metrics(tally, layer_times, calls_by_name, base_wall_s,
                            extra)
    metrics.update(workload.specific(tally))
    metrics["fail_frac"] = failed / attempted
    detail = {"base_wall_s": base_wall_s,
              "span_self_s": spans.self_seconds()}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": detail, "spans": spans.records}
