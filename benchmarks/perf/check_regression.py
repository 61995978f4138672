#!/usr/bin/env python
"""Compare a fresh harness run against the committed perf baseline.

Wall-clock metrics are never compared raw across machines: both runs carry a
CPU calibration time, and every metric is expressed in calibration units
before comparison (throughputs multiply by the calibration, durations divide
by it). Function-call counts are machine-independent and compared directly.

Virtual-time metrics (the scheduler's queries/sec and speedup figures)
come from the discrete-event simulation and are deterministic across
machines, so they gate on absolute floors (``FLOORS``) instead of the
relative tolerance: the current run must meet the floor outright.
Deterministic lower-is-better figures (write amplification, wear spread,
interference ratios) gate on absolute ceilings (``CEILINGS``) the same
way: the current run must come in at or under the bound.

The ``parallel`` block (serial vs parallel wall-clock of the E6 replay)
is gated separately: its speedup floor only arms on machines with at
least ``PARALLEL_MIN_CPUS`` CPUs — wall-clock parallelism needs real
cores — but the block itself is always required.

Exit status is non-zero when any metric regresses by more than the
tolerance (default 25%) or falls below its floor. Improvements never
fail; run with ``--update-baseline`` after an intentional perf change to
re-baseline.

Usage::

    PYTHONPATH=src python benchmarks/perf/harness.py --output /tmp/now.json
    python benchmarks/perf/check_regression.py /tmp/now.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent / "BENCH_PR10.json"

#: Allowed fractional regression before the gate fails.
TOLERANCE = 0.25

#: Absolute minimums for deterministic virtual-time metrics (higher is
#: better). The scheduler's ISSUE-4 contract: >= 2x queries/sec at fan-in
#: 8 vs serial, with real NAND traffic elided by scan sharing. The ISSUE-6
#: contract: a low-selectivity window over a clustered extent reads >= 5x
#: fewer NAND pages with per-page statistics, and ORDER BY ... LIMIT ships
#: >= 5x fewer interface bytes than the full qualifying set. The ISSUE-8
#: contract: the serving layer's scatter/gather delivers >= 2.5x virtual
#: queries/sec at four shards vs one, and result-cache hits come back
#: >= 50x faster than the cold run in every sharded world. The ISSUE-10
#: contract: cost-benefit GC with wear leveling beats greedy on write
#: amplification by >= 1.2x under overwrite skew, and concurrent DML
#: leaves shared-scan results bit-identical (1.0 = identical).
FLOORS = {
    "sched_fanin8_speedup_x": 2.0,
    "sched_fanin8_queries_per_vs": 600.0,
    "sched_fanin8_saved_page_reads": 1000.0,
    "skip_q6_page_reduction_x": 5.0,
    "topn_interface_shrink_x": 5.0,
    "serve_shard_scaling_x": 2.5,
    "serve_4shard_queries_per_vs": 350.0,
    "serve_cache_hit_speedup_x": 50.0,
    "htap_wa_policy_gain_x": 1.2,
    "htap_scans_bit_identical": 1.0,
}

#: Absolute maximums for deterministic lower-is-better figures (the other
#: half of the ISSUE-10 contract). The E7 overwrite-skew churn measured
#: WA 12.84 (greedy) / 9.85 (cost-benefit + wear leveling) and wear
#: spread 163; the mixed DML/scan window measured scan p99 interference
#: 1.003x. Bounds sit with comfortable headroom but far below where a
#: policy or scheduler regression would land.
CEILINGS = {
    "htap_greedy_wa": 20.0,
    "htap_costbenefit_wa": 10.5,
    "htap_wear_spread_erases": 250.0,
    "htap_scan_p99_interference_x": 1.5,
}

#: Calibration-unit bounds locking in ISSUE-7's batch-execution wins: the
#: unit-batched projected decode and the Fig. 5 end-to-end run must stay
#: >= 2x the PR6 (page-at-a-time) baseline on any machine. Values are in
#: calibration units — throughputs as work * calibration_s ("min" gates),
#: durations as seconds / calibration_s ("max" gates). The PR6 baseline
#: measured 8,265 calibrated for projected decode and 135.7 calibrated for
#: Fig. 5; the bounds sit at 2x of each.
CALIBRATED_GATES = {
    "decode_projected_pages_per_s": (16_500.0, "min"),
    "fig5_join_selectivity_s": (68.0, "max"),
}

#: ISSUE-9 contract: the parallel fleet runtime must beat the serial
#: engine by this factor on the four-shard E6 replay — but wall-clock
#: parallel speedup needs real cores, so the gate only arms when the
#: measuring machine has at least ``PARALLEL_MIN_CPUS``. On smaller
#: machines the block is still required (so the bench can't silently
#: vanish) and the measured figure is printed as informational.
PARALLEL_SPEEDUP_FLOOR = 1.8
PARALLEL_MIN_CPUS = 4

#: Count suffixes where more is better: pages the zone maps let a scan
#: skip. Every other count gates as lower-is-better.
HIGHER_IS_BETTER_COUNTS = ("pages_skipped",)


def _higher_is_better(key: str) -> bool:
    """Whether a larger value of metric ``key`` is an improvement."""
    return key.endswith("_per_s") or key.endswith(HIGHER_IS_BETTER_COUNTS)


def _check_parallel(report: dict, failures: list) -> None:
    block = report.get("parallel")
    if block is None:
        failures.append("parallel: block missing from current run "
                        "(harness.bench_parallel_serving did not report)")
        return
    speedup = block["speedup_x"]
    cpus = block["cpu_count"]
    if cpus < PARALLEL_MIN_CPUS:
        print(f"  [skip] parallel speedup_x: {speedup:.2f} "
              f"({block['backend']} backend, {cpus} cpu(s) < "
              f"{PARALLEL_MIN_CPUS} — wall-clock gate needs real cores)")
        return
    ok = speedup >= PARALLEL_SPEEDUP_FLOOR
    marker = "ok" if ok else "FAIL"
    print(f"  [{marker}] parallel speedup_x: {speedup:.2f} "
          f"({block['backend']} backend, {cpus} cpus, floor "
          f"{PARALLEL_SPEEDUP_FLOOR})")
    if not ok:
        failures.append(f"parallel speedup_x: {speedup:.2f} below floor "
                        f"{PARALLEL_SPEEDUP_FLOOR} on a "
                        f"{cpus}-cpu machine")


def _normalize(report: dict) -> dict[str, float]:
    """Express every metric in calibration units (machine-neutral)."""
    calibration = report["calibration_s"]
    normalized = {}
    for key, value in report["metrics"].items():
        if key in FLOORS or key in CEILINGS:
            # Floor/ceiling-gated: deterministic virtual-time figures,
            # checked as absolute bounds rather than calibrated ratios.
            continue
        if key.endswith("_per_s"):
            # Work per calibration-unit of CPU: higher is better.
            normalized[key] = value * calibration
        elif key.endswith("_s"):
            # Calibration units spent: lower is better.
            normalized[key] = value / calibration
        else:
            # Counts: machine-independent, compared as-is in the direction
            # :func:`_higher_is_better` gives.
            normalized[key] = float(value)
    return normalized


def _regression(key: str, baseline: float, current: float) -> float:
    """Fractional regression (positive = worse) for one metric."""
    if baseline <= 0:
        return 0.0
    if _higher_is_better(key):
        return (baseline - current) / baseline
    return (current - baseline) / baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path,
                        help="JSON emitted by harness.py for this run")
    parser.add_argument("--baseline", type=Path, default=BASELINE)
    parser.add_argument("--tolerance", type=float, default=TOLERANCE)
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy the current run over the baseline and exit")
    parser.add_argument("--only", default=None,
                        help="comma-separated metric keys to gate on "
                             "(default: every baseline metric)")
    args = parser.parse_args(argv)

    if args.update_baseline:
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = _normalize(json.loads(args.baseline.read_text()))
    current = _normalize(json.loads(args.current.read_text()))

    if args.only:
        wanted = [key.strip() for key in args.only.split(",") if key.strip()]
        unknown = [key for key in wanted if key not in baseline]
        if unknown:
            print(f"--only names metrics absent from the baseline: "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2
        baseline = {key: baseline[key] for key in wanted}

    failures = []
    if not args.only:
        for key, (bound, direction) in sorted(CALIBRATED_GATES.items()):
            value = current.get(key)
            if value is None:
                failures.append(f"{key}: missing from current run")
                continue
            ok = value >= bound if direction == "min" else value <= bound
            marker = "ok" if ok else "FAIL"
            print(f"  [{marker}] {key}: {value:,.1f} calibrated "
                  f"({direction} {bound:,.1f})")
            if not ok:
                failures.append(f"{key}: {value:,.1f} violates "
                                f"{direction} bound {bound:,.1f}")
        current_report = json.loads(args.current.read_text())
        _check_parallel(current_report, failures)
        current_raw = current_report["metrics"]
        for key, floor in sorted(FLOORS.items()):
            value = current_raw.get(key)
            if value is None:
                failures.append(f"{key}: missing from current run")
                continue
            marker = "FAIL" if value < floor else "ok"
            print(f"  [{marker}] {key}: {value:,.1f} (floor {floor:,.1f})")
            if value < floor:
                failures.append(f"{key}: {value:,.1f} below floor "
                                f"{floor:,.1f}")
        for key, ceiling in sorted(CEILINGS.items()):
            value = current_raw.get(key)
            if value is None:
                failures.append(f"{key}: missing from current run")
                continue
            marker = "FAIL" if value > ceiling else "ok"
            print(f"  [{marker}] {key}: {value:,.2f} "
                  f"(ceiling {ceiling:,.2f})")
            if value > ceiling:
                failures.append(f"{key}: {value:,.2f} above ceiling "
                                f"{ceiling:,.2f}")
    for key in sorted(baseline):
        if key not in current:
            failures.append(f"{key}: missing from current run")
            continue
        regression = _regression(key, baseline[key], current[key])
        marker = "FAIL" if regression > args.tolerance else "ok"
        print(f"  [{marker}] {key}: {regression:+.1%} vs baseline "
              f"(tolerance {args.tolerance:.0%})")
        if regression > args.tolerance:
            failures.append(f"{key}: {regression:+.1%}")

    if failures:
        print(f"\nperf regression gate FAILED ({len(failures)} metric(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nperf regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
