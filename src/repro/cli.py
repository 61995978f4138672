"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run fig3 table3      # run selected experiments
    python -m repro run all              # run everything
    python -m repro run fig5 -o results  # also write results/figure_5.txt
    python -m repro trace fig3_q6        # one traced run -> chrome-trace JSON

Experiments run the functional simulation at reduced scale and print
paper-vs-measured tables (see EXPERIMENTS.md for interpretation).
``trace`` runs a single execution with observability enabled and writes a
Perfetto-loadable chrome-trace file plus a terminal flame summary (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

from repro.bench.ablations import (
    ablation_device_hardware,
    ablation_interface_generation,
    ablation_ftl_wear,
    ablation_io_unit,
    ablation_layout,
    ext_caching_benefit,
    ext_concurrent_queries,
    ext_htap,
    ext_multi_ssd,
    ext_optimizer,
    ext_scheduler,
    ext_serving,
)
from repro.bench.figures import (
    ExperimentResult,
    fig1_bandwidth_trends,
    fig3_q6,
    fig5_join_selectivity,
    fig7_q14,
    sigmod_scan_selectivity,
    sigmod_tuple_width,
    table2_sequential_read,
    table3_energy,
)

#: Registry: short name -> (output file stem, description, runner). The
#: stem is the experiment's committed golden under ``results/``; E7 has
#: no golden and keeps its short name.
EXPERIMENTS: dict[str, tuple[str, str, Callable[[], ExperimentResult]]] = {
    "fig1": ("figure_1",
             "bandwidth trends (host interface vs SSD-internal)",
             fig1_bandwidth_trends),
    "table2": ("table_2", "max sequential read bandwidth, 32-page I/Os",
               table2_sequential_read),
    "fig3": ("figure_3", "TPC-H Q6 elapsed time, SF-100", fig3_q6),
    "fig5": ("figure_5", "selection-with-join vs selectivity",
             fig5_join_selectivity),
    "fig7": ("figure_7", "TPC-H Q14 elapsed time, SF-100", fig7_q14),
    "table3": ("table_3", "energy consumption for Q6", table3_energy),
    "scan-rows": ("sigmod_scan_rows",
                  "SIGMOD'13 scan sweep, returning rows",
                  sigmod_scan_selectivity),
    "scan-agg": ("sigmod_scan_agg", "SIGMOD'13 scan sweep, with aggregation",
                 lambda: sigmod_scan_selectivity(aggregate=True)),
    "tuple-width": ("sigmod13_tuple-width_sweep",
                    "SIGMOD'13 tuple-width sweep", sigmod_tuple_width),
    "a1": ("ablation_a1", "ablation: NSM vs PAX inside the device",
           ablation_layout),
    "a2": ("ablation_a2", "ablation: device cores x DRAM-bus rate",
           ablation_device_hardware),
    "a3": ("ablation_a3", "ablation: I/O unit size", ablation_io_unit),
    "a4": ("ablation_a4",
           "ablation: FTL write amplification vs over-provisioning",
           ablation_ftl_wear),
    "a5": ("ablation_a5",
           "ablation: pushdown benefit vs host-interface generation",
           ablation_interface_generation),
    "e1": ("extension_e1", "extension: cost-based pushdown optimizer",
           ext_optimizer),
    "e2": ("extension_e2", "extension: multi-Smart-SSD array",
           ext_multi_ssd),
    "e3": ("extension_e3", "extension: concurrent pushdown sessions",
           ext_concurrent_queries),
    "e4": ("extension_e4", "extension: caching benefit of host execution",
           ext_caching_benefit),
    "e5": ("extension_e5",
           "extension: scheduled batches with cooperative scan sharing",
           ext_scheduler),
    "e6": ("extension_e6",
           "extension: multi-tenant serving over a sharded fleet",
           ext_serving),
    "e7": ("e7", "extension: HTAP write path (GC policies, DML vs scans)",
           ext_htap),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Query Processing on Smart SSDs' "
                    "(SIGMOD 2013): tables, figures, ablations.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run experiments")
    run.add_argument("names", nargs="+",
                     help="experiment names (or 'all')")
    run.add_argument("-o", "--output-dir", type=Path, default=None,
                     help="also write each table to this directory")
    run.add_argument("--json", action="store_true",
                     help="emit JSON instead of tables (and .json files "
                          "with --output-dir)")

    trace = sub.add_parser(
        "trace", help="run one traced execution and export chrome-trace JSON")
    trace.add_argument("target", choices=sorted(TRACEABLE),
                       help="which run to trace")
    trace.add_argument("-o", "--output", type=Path, default=None,
                       help="chrome-trace output path "
                            "(default: trace-<target>.json)")
    trace.add_argument("--jsonl", type=Path, default=None,
                       help="also write the run as a JSONL event stream")
    return parser


def _single_query_run(query, placement):
    """A trace runner executing one query through execute_placed."""
    def run(db):
        report = db.execute_placed(query, placement)
        return {
            "label": query.name,
            "placement": report.placement,
            "elapsed_seconds": report.elapsed_seconds,
            "row_count": report.row_count,
            "span_names": (("smart.open", "smart.get", "smart.close")
                           if report.placement == "smart"
                           else ("host.build", "host.scan")),
        }
    return run


def _trace_fig3_q6():
    """The fig3 Q6 pushdown leg (smart-ssd, PAX) at run scale."""
    from repro.bench.runners import DeviceKind, make_tpch_db
    from repro.engine.plans import Placement
    from repro.storage import Layout
    from repro.workloads import q6_query
    db = make_tpch_db(DeviceKind.SMART, Layout.PAX)
    return db, _single_query_run(q6_query(), Placement.SMART)


def _trace_fig3_q6_host():
    """The fig3 Q6 conventional leg (sas-ssd, NSM) at run scale."""
    from repro.bench.runners import DeviceKind, make_tpch_db
    from repro.engine.plans import Placement
    from repro.storage import Layout
    from repro.workloads import q6_query
    db = make_tpch_db(DeviceKind.SSD, Layout.NSM)
    return db, _single_query_run(q6_query(), Placement.HOST)


def _trace_fig7_q14():
    """The fig7 Q14 pushdown join leg (smart-ssd, PAX) at run scale."""
    from repro.bench.runners import DeviceKind, make_tpch_db
    from repro.engine.plans import Placement
    from repro.storage import Layout
    from repro.workloads import q14_query
    db = make_tpch_db(DeviceKind.SMART, Layout.PAX)
    return db, _single_query_run(q14_query(), Placement.SMART)


def _trace_sched():
    """A scheduled fan-in-4 Q6 batch through one shared device scan."""
    from repro.bench.runners import DeviceKind, make_tpch_db
    from repro.storage import Layout
    from repro.workloads import q6_query
    db = make_tpch_db(DeviceKind.SMART, Layout.PAX)

    def run(db):
        from repro.sched import QueryScheduler
        scheduler = QueryScheduler(db)
        fan_in = 4
        for __ in range(fan_in):
            scheduler.submit(q6_query(), "smart")
        reports = scheduler.gather()
        return {
            "label": f"{fan_in}x {q6_query().name} (shared scan)",
            "placement": "smart",
            "elapsed_seconds": scheduler.stats["window_seconds"],
            "row_count": sum(r.row_count for r in reports),
            "span_names": ("sched.queued", "smart.open", "smart.get",
                           "smart.close"),
        }
    return db, run


def _trace_htap():
    """A DML churn window: scheduler write units driving FTL GC.

    A small-geometry device so sustained overwrites run it out of free
    blocks: the trace shows write admission (``sched.write_queued``),
    the write units themselves, and the GC passes (``ftl.gc`` spans,
    ``ftl.wear`` histogram) their flushes force.
    """
    import numpy as np

    from repro.flash.geometry import NandGeometry
    from repro.host.db import Database
    from repro.smart.device import SmartSsdSpec
    from repro.storage import Column, Int32Type, Layout, Schema

    db = Database()
    db.create_smart_ssd(SmartSsdSpec(
        geometry=NandGeometry(channels=1, chips_per_channel=2,
                              blocks_per_chip=16, pages_per_block=16),
        gc_policy="cost-benefit", gc_wear_leveling=True))
    schema = Schema([Column("k", Int32Type()), Column("v", Int32Type())])
    count = 60_000
    rows = np.zeros(count, dtype=schema.numpy_dtype())
    rows["k"] = np.arange(count)
    rows["v"] = np.arange(count) % 97
    db.create_table("hot", schema, Layout.PAX, rows, "smart-ssd")

    def run(db):
        from repro.engine.expressions import Add, Col, Compare, Const
        from repro.sched import QueryScheduler
        scheduler = QueryScheduler(db)
        changed = 0
        window = 0.0
        for __ in range(6):
            ticket = scheduler.submit_update(
                "hot", Compare(Col("k"), ">=", Const(0)),
                {"v": Add(Col("v"), Const(1))})
            scheduler.gather()
            changed += ticket.rows_changed
            window += scheduler.stats["window_seconds"]
        return {
            "label": "DML churn (write units -> FTL GC)",
            "placement": "smart",
            "elapsed_seconds": window,
            "row_count": changed,
            "span_names": ("sched.write_queued", "write", "ftl.gc"),
        }
    return db, run


#: Traceable runs: name -> builder returning (db, run) where run(db)
#: executes under observability and returns a summary dict.
TRACEABLE: dict[str, Callable] = {
    "fig3_q6": _trace_fig3_q6,
    "fig3_q6_host": _trace_fig3_q6_host,
    "fig7_q14": _trace_fig7_q14,
    "sched": _trace_sched,
    "htap": _trace_htap,
}


def cmd_trace(target: str, output: Path | None, jsonl: Path | None,
              out=sys.stdout) -> int:
    """Run one traced execution; write chrome-trace JSON + flame summary."""
    import json

    from repro.obs import chrome_trace, flame_summary, jsonl_events

    db, run = TRACEABLE[target]()
    obs = db.enable_observability()
    summary = run(db)

    if output is None:
        output = Path(f"trace-{target}.json")
    output.write_text(json.dumps(chrome_trace(obs)) + "\n")
    if jsonl is not None:
        jsonl.write_text("\n".join(jsonl_events(obs)) + "\n")

    print(f"{target}: {summary['placement']} execution of "
          f"{summary['label']} in "
          f"{summary['elapsed_seconds'] * 1e3:.3f} ms (virtual), "
          f"{summary['row_count']} rows", file=out)
    print(flame_summary(obs), file=out)
    # The protocol spans tile the run: their summed virtual durations must
    # reconcile with the elapsed window (the remainder is host-side merge
    # work and retry backoff between round-trips; for scheduled runs,
    # shared sessions overlap so coverage can exceed 100%).
    covered = sum(span.duration for name in summary["span_names"]
                  for span in obs.spans_named(name))
    print(f"protocol spans cover {covered * 1e3:.3f} ms of "
          f"{summary['elapsed_seconds'] * 1e3:.3f} ms elapsed "
          f"({covered / summary['elapsed_seconds']:.1%})", file=out)
    print(f"chrome trace written to {output}", file=out)
    return 0


def cmd_list(out=sys.stdout) -> int:
    """Print the experiment registry."""
    width = max(len(name) for name in EXPERIMENTS)
    for name, (__, description, __) in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {description}", file=out)
    return 0


def cmd_run(names: list[str], output_dir: Path | None,
            as_json: bool = False, out=sys.stdout) -> int:
    """Run the named experiments, printing (and optionally saving) tables."""
    import json

    if "all" in names:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(try 'python -m repro list')", file=sys.stderr)
        return 2
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        stem, __, runner = EXPERIMENTS[name]
        started = time.time()
        result = runner()
        elapsed = time.time() - started
        if as_json:
            payload = result.to_dict()
            payload["runtime_seconds"] = round(elapsed, 2)
            print(json.dumps(payload, indent=2), file=out)
        else:
            print(result.table(), file=out)
            print(f"[{name}: ran in {elapsed:.1f}s]\n", file=out)
        if output_dir is not None:
            if as_json:
                (output_dir / f"{stem}.json").write_text(
                    json.dumps(result.to_dict(), indent=2) + "\n")
            else:
                (output_dir / f"{stem}.txt").write_text(
                    result.table() + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "trace":
        return cmd_trace(args.target, args.output, args.jsonl)
    return cmd_run(args.names, args.output_dir, args.json)


if __name__ == "__main__":
    sys.exit(main())
