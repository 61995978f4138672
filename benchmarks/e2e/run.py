#!/usr/bin/env python3
"""The repo benchmark: five workloads, end to end and layer by layer.

Two ways in, one program:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` runs one
  workload in this process and prints, as the last line of standard output,
  one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
  ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
  with ``--trace 1`` the per-layer ones.
* ``run.py [--workload NAME] [--seed N] [--json OUT] [--smoke]`` (no
  ``--trace``) runs the suite: every workload in its own fresh subprocess,
  one after the other, first untraced and then traced, and prints every
  metric by name with its unit. It exits non-zero if any result is wrong.
  ``--check-repeat`` runs the suite twice and once more on a second seed and
  compares; ``--freeze`` stores the virtual numbers as the expected ones.

This file imports nothing heavy: the suite's parent process stays small so
that a child's ``peak_rss_mb`` is the workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FROZEN_PATH = HERE / "frozen.json"
DEFAULT_SEED = 1
SECOND_SEED = 2
SMOKE_SECONDS = 0


def is_host_metric(name: str) -> bool:
    """Host-clock metrics may differ between runs; all others may not."""
    if name.startswith("virt_") or name.endswith("_vs"):
        return False
    leaf = name.rsplit(".", 1)[-1]
    return (leaf.endswith(("_s", "_per_s", "_mb", "_x")) or "_ms" in leaf
            or leaf.startswith("us_per_") or leaf == "cpu_count"
            or name == "trace.unattributed_frac")


def units() -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def workload_names() -> list[str]:
    return [w["name"] for w in SPEC["workloads"]]


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Call counts must repeat exactly, so hash order may not vary.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import harness
    from loads import WORKLOADS

    frozen = json.loads(FROZEN_PATH.read_text())
    size = frozen["sizes"]["smoke" if args.smoke else "full"][args.workload]
    workload = WORKLOADS[args.workload](args.seed, size)
    if args.trace:
        outcome = harness.trace(workload)
        wanted = [m["name"] for m in SPEC["per_layer"]]
    else:
        outcome = harness.measure(workload, args.seconds)
        wanted = [m["name"] for m in SPEC["end_to_end"]]
    unit_of = units()
    metrics = {name: {"value": outcome["metrics"][name],
                      "unit": unit_of[name]} for name in wanted}
    correct = outcome["failed"] == 0
    if args.json:
        record = dict(outcome, workload=args.workload, seed=args.seed,
                      trace=args.trace, smoke=args.smoke, correct=correct)
        Path(args.json).write_text(json.dumps(record, default=str))
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

def child(workload: str, seed: int, seconds: int, trace: int, smoke: bool,
          out: Path) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--json", str(out)]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True)
    if not out.exists():
        raise SystemExit(f"{workload} (trace={trace}) produced no result "
                         f"(exit {done.returncode})")
    return json.loads(out.read_text())


def run_suite(names, seed: int, seconds: int, smoke: bool) -> dict:
    """Every named workload: one untraced and one traced subprocess each."""
    suite = {}
    with tempfile.TemporaryDirectory(prefix="out-", dir=HERE) as scratch:
        for name in names:
            suite[name] = {
                kind: child(name, seed, seconds, trace, smoke,
                            Path(scratch) / f"{name}.{trace}")
                for trace, kind in enumerate(("timed", "traced"))}
    return suite


def flat_metrics(entry: dict) -> dict[str, float]:
    """All named metrics of one workload: end-to-end, then per-layer."""
    values = dict(entry["timed"]["metrics"])
    values.update(entry["traced"]["metrics"])
    return values


def print_suite(suite: dict) -> None:
    unit_of = units()
    for name, entry in suite.items():
        timed, traced = entry["timed"], entry["traced"]
        detail = timed["detail"]
        print(f"\n== {name} (seed {timed['seed']}) ==")
        print(f"   {detail['timed_passes']} timed passes of "
              f"{detail['ops_per_pass']} ops; pass walls "
              + " ".join(f"{w:.3f}" for w in detail["pass_walls_s"])
              + f" s (IQR {detail['pass_wall_iqr_s']:.3f} s); "
              f"{detail['op_samples']} host op samples, "
              f"{detail['virt_op_samples']} virtual op samples")
        print("   end to end:")
        for metric in SPEC["end_to_end"]:
            show(metric["name"], timed["metrics"][metric["name"]], unit_of)
        for key, value in timed["specific"].items():
            show(key, value, unit_of)
        failed = timed["failed"] + traced["failed"]
        attempted = timed["attempted"] + traced["attempted"]
        show("fail_frac", failed / attempted, unit_of)
        print("   per layer (traced pass):")
        for metric in SPEC["per_layer"]:
            if metric["name"] not in timed["specific"] \
                    and metric["name"] != "fail_frac":
                show(metric["name"], traced["metrics"][metric["name"]],
                     unit_of)
        for key in sorted(set(detail) - {
                "pass_walls_s", "setup_times_s", "timed_passes",
                "ops_per_pass", "op_samples", "virt_op_samples",
                "pass_wall_iqr_s"}):
            print(f"   {key}: {json.dumps(detail[key], default=str)}")


def show(name: str, value, unit_of: dict) -> None:
    clock = "host" if is_host_metric(name) else "virtual"
    print(f"     {name:34s} {value:>16.6g} {unit_of[name]:8s} [{clock}]")


def suite_failed(suite: dict) -> bool:
    return any(entry[kind]["failed"] for entry in suite.values()
               for kind in ("timed", "traced"))


# -- frozen virtual numbers -------------------------------------------------

def virtual_values(entry: dict) -> dict[str, float]:
    return {name: value for name, value in flat_metrics(entry).items()
            if not is_host_metric(name)}


def check_frozen(suite: dict, seed: int) -> list[str]:
    """Differences between this run's virtual numbers and the stored ones.

    A change that only speeds the simulator up must leave every virtual
    metric, every count and ``write_amp`` bit-identical.
    """
    expected = json.loads(FROZEN_PATH.read_text())["expected"]
    diffs = []
    for name, entry in suite.items():
        stored = expected.get(name, {}).get(str(seed))
        if stored is None:
            print(f"   ({name}: nothing frozen for seed {seed})")
            continue
        for metric, value in virtual_values(entry).items():
            if stored.get(metric) != value:
                diffs.append(f"{name} {metric}: frozen "
                             f"{stored.get(metric)!r}, now {value!r}")
    return diffs


def freeze(suite: dict, seed: int) -> None:
    frozen = json.loads(FROZEN_PATH.read_text())
    for name, entry in suite.items():
        frozen["expected"].setdefault(name, {})[str(seed)] = \
            virtual_values(entry)
    FROZEN_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True)
                           + "\n")


# -- check-repeat -----------------------------------------------------------

def check_repeat(names, seed: int, seconds: int, smoke: bool) -> int:
    """Two runs of the same tree must agree: virtual numbers exactly, host
    end-to-end numbers within their bound. A third run on another seed
    must be correct too."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    first = run_suite(names, seed, seconds, smoke)
    second = run_suite(names, seed, seconds, smoke)
    other = run_suite(names, SECOND_SEED if seed != SECOND_SEED
                      else DEFAULT_SEED, seconds, smoke)
    bad = suite_failed(first) or suite_failed(second) or suite_failed(other)
    for name in names:
        print(f"\n== {name}: run 1 against run 2 ==")
        one, two = flat_metrics(first[name]), flat_metrics(second[name])
        for metric in one:
            if not is_host_metric(metric):
                if one[metric] != two[metric]:
                    bad = True
                    print(f"   DIFFERS  {metric}: {one[metric]!r} != "
                          f"{two[metric]!r}")
                continue
            if metric not in bounds:
                continue
            spread = abs(one[metric] - two[metric]) / statistics.mean(
                (one[metric], two[metric]))
            verdict = "ok" if spread <= bounds[metric] else "OVER"
            bad = bad or verdict == "OVER"
            print(f"   {verdict:8s} {metric:18s} spread {spread:7.2%} "
                  f"bound {bounds[metric]:.0%}")
        exact = sum(1 for metric in one if not is_host_metric(metric))
        print(f"   {exact} virtual metrics and counts compared exactly")
    print("\ncheck-repeat:", "FAILED" if bad else "green")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names())
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: the whole suite in under 20 s")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--freeze", action="store_true",
                        help="store this run's virtual numbers as expected")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_workload(args)
    names = [args.workload] if args.workload else workload_names()
    if args.check_repeat:
        return check_repeat(names, args.seed, args.seconds, args.smoke)
    suite = run_suite(names, args.seed, args.seconds, args.smoke)
    print_suite(suite)
    status = 1 if suite_failed(suite) else 0
    if args.freeze:
        freeze(suite, args.seed)
    elif not args.smoke:
        diffs = check_frozen(suite, args.seed)
        print("\nvirtual numbers against frozen.json:",
              "identical" if not diffs else f"{len(diffs)} differ")
        for diff in diffs:
            print("  ", diff)
        status = status or (2 if diffs else 0)
    if args.json:
        Path(args.json).write_text(json.dumps(suite, default=str))
    return status


if __name__ == "__main__":
    sys.exit(main())
