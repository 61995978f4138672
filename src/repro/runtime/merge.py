"""Validate a parallel batch and replay it onto the parent world.

The contract with :mod:`repro.sched`: after ``merge_lane_results`` returns
ok, the parent world is in *exactly* the state the serial engine would
have left — same virtual clock, same busy-tracker floats (bit for bit,
because the serial float operation sequence is replayed, not summed),
same byte counters, same health records — so the unchanged accounting
tail of ``QueryScheduler._run`` computes identical windows, utilization,
and energy. Until that point the parent is never mutated, so a failed
validation simply discards the lane results and reruns the batch on the
untouched parent with the serial engine.

Validation rejects (reason in parentheses) batches where:

* a lane touched the host buffer pool or left dirty pages — host-path
  work escaped onto shared state (``buffer_pool``);
* any member's scan died or was vetoed, or it fell back to the host
  (``rescue``, ``host_fallback``);
* two lanes recorded changes on the same cloned resource — the partition
  was not actually independent (``shared_resource``);
* the lanes' summed host-CPU demand ever exceeds the real core count
  (``host_cpu_contention``): the serial run would have queued, and
  queuing order is exactly the cross-lane coupling lanes cannot see.
  Ties are counted acquires-before-releases, so the peak is pessimistic;
  a peak *equal* to capacity is fine — the serial resource grants the
  last core with ``in_use < capacity`` still true, never queuing.
"""

from __future__ import annotations

from repro.faults import DeviceHealth
from repro.sim.trace import LevelChange, TraceMark

#: Stat keys summed across lanes into the parent scheduler's stats dict.
_SUMMED_STATS = ("shared_groups", "shared_members", "late_attaches",
                 "solo_rescues", "saved_page_reads", "shared_pages_read",
                 "pages_skipped")


def _merged_cpu_levels(results, host_cpu_index: int, initial: float):
    """Cross-lane host-CPU demand as one absolute ``(t, level)`` sequence."""
    deltas = []
    for result in results:
        previous = initial
        for when, level in result.tracker_logs.get(host_cpu_index, ()):
            deltas.append((when, 0 if level > previous else 1,
                           result.lane, level - previous))
            previous = level
    deltas.sort(key=lambda item: item[:3])
    levels = []
    running = initial
    peak = initial
    for when, _, _, delta in deltas:
        running += delta
        peak = max(peak, running)
        levels.append((when, running))
    return levels, peak


def merge_lane_results(scheduler, results, tickets, start: float
                       ) -> tuple[bool, str]:
    """Validate lane results; on success replay them onto the parent.

    ``tickets`` maps submission index to the parent's Submission object.
    Returns ``(ok, reason)`` — when not ok the parent is untouched.
    """
    db = scheduler.db
    sim = db.sim

    # -- validation (no parent mutation past this block) -------------------
    for result in results:
        if result.bp_delta != (0, 0, 0, 0) or result.bp_dirty:
            return False, "buffer_pool"
        if result.rescued:
            return False, "rescue"
        if result.pushdown_fallbacks:
            return False, "host_fallback"

    host_cpu_index = sim._traceables.index(db.machine.cpu)
    owners: dict[int, int] = {}
    for result in results:
        for index in result.tracker_logs:
            if index == host_cpu_index:
                continue
            if owners.setdefault(index, result.lane) != result.lane:
                return False, "shared_resource"

    cpu_tracker = db.machine.cpu.busy
    cpu_levels, peak = _merged_cpu_levels(results, host_cpu_index,
                                          cpu_tracker.level)
    if peak > db.machine.cpu.capacity:
        return False, "host_cpu_contention"

    # -- replay ------------------------------------------------------------
    for when, level in cpu_levels:
        cpu_tracker.set_level(when, level)
    for result in results:
        for index, log in result.tracker_logs.items():
            if index == host_cpu_index:
                continue
            tracker = sim._traceables[index].busy
            for when, level in log:
                tracker.set_level(when, level)

    for result in results:
        for name, (interface_delta, dram_delta) in result.byte_deltas.items():
            device = db.device(name)
            device.interface._bytes_moved += interface_delta
            device.controller.dram_bus._bytes_moved += dram_delta
        for name, triple in result.health.items():
            db.health._devices[name] = DeviceHealth(*triple)

    stats = scheduler.stats
    for result in results:
        lane_stats = result.stats
        for key in _SUMMED_STATS:
            stats[key] += lane_stats.get(key, 0)
        stats["fan_in"].extend(lane_stats.get("fan_in", ()))
        stats["admission_waits"].extend(
            lane_stats.get("admission_waits", ()))
        peaks = stats["max_queue_depth"]
        for device, depth in lane_stats.get("max_queue_depth", {}).items():
            peaks[device] = max(peaks.get(device, 0), depth)

    tracer = sim.tracer
    if tracer is not None:
        merged_events: dict[str, list] = {}
        for result in results:
            for name, events in result.trace_events.items():
                if name == db.machine.cpu.name:
                    continue    # lane-local levels; replaced by the merge
                merged_events.setdefault(name, []).extend(events)
        for name, events in merged_events.items():
            events.sort(key=lambda event: event[0])
            tracer._events[name].extend(
                LevelChange(time=when, level=level)
                for when, level in events)
        tracer._events[db.machine.cpu.name].extend(
            LevelChange(time=when, level=level)
            for when, level in cpu_levels)
        marks = [mark for result in results for mark in result.trace_marks]
        marks.sort(key=lambda mark: mark[0])
        tracer._marks.extend(TraceMark(time=when, label=label, detail=detail)
                             for when, label, detail in marks)

    obs = sim.obs
    if obs is not None:
        spans = [span for result in results for span in result.spans]
        spans.sort(key=lambda span: (span.start, span.end, span.track,
                                     span.name, span.depth))
        obs.spans.extend(spans)
        _merge_metrics(obs.metrics, results)

    for result in results:
        for fields in result.submissions:
            ticket = tickets[fields["index"]]
            ticket.outcome = fields["outcome"]
            ticket.done_at = fields["done_at"]
            ticket.shared = fields["shared"]
            ticket.late_attach = fields["late_attach"]
            ticket.rescued = fields["rescued"]
            ticket.admission_wait = fields["admission_wait"]

    sim.advance_to(max((result.end for result in results), default=start))
    return True, ""


def _merge_metrics(registry, results) -> None:
    """Fold lane metric deltas into the parent registry, in lane order.

    Counters and histogram counts are exact (int adds); float histogram
    sums may differ from serial in the last ulp — the documented
    aggregate-exact contract for instrumented runs. Gauges are last-write
    in lane order (deterministic, multiset-equal to serial's writes).
    """
    from repro.obs.metrics import Counter, Gauge, Histogram

    series_map = registry._series
    for result in results:
        for key, kind, payload in result.metric_series:
            series = series_map.get(key)
            if kind == "counter":
                if series is None:
                    series = series_map[key] = Counter()
                series.value += payload
            elif kind == "gauge":
                if series is None:
                    series = series_map[key] = Gauge()
                series.value = payload
            else:
                if series is None:
                    series = series_map[key] = Histogram()
                count, total, vmin, vmax = payload
                series.count += count
                series.total += total
                series.vmin = min(series.vmin, vmin)
                series.vmax = max(series.vmax, vmax)
