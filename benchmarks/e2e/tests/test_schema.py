"""Schema and smoke tests: the output is what ``BENCHMARK.json`` says it is.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import layers

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(E2E / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
WORKLOADS = ("scan_pushdown", "host_join", "serve_replay", "htap_mixed",
             "ftl_churn")
SMOKE_BUDGET_S = 20.0


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The whole suite at smoke size, once: ``(suite, elapsed seconds)``."""
    out = tmp_path_factory.mktemp("smoke") / "suite.json"
    start = time.perf_counter()
    done = subprocess.run(RUN + ["--smoke", "--json", str(out)],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), elapsed, done.stdout


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_has_self_time_and_calls():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= per_layer
    # 95 layer metrics plus the four end-to-end metrics that only some
    # workloads define and that therefore cannot carry a bound.
    assert len(per_layer) == 95 + 4


def test_p95_refused_below_200_samples():
    with pytest.raises(harness.BenchmarkError):
        harness.p95([1.0] * 199)
    assert harness.p95(list(range(200))) == pytest.approx(189.05)


def test_smoke_suite_is_fast_and_correct(smoke):
    suite, elapsed, _ = smoke
    assert elapsed < SMOKE_BUDGET_S
    assert tuple(suite) == WORKLOADS
    for entry in suite.values():
        assert entry["timed"]["correct"] and entry["traced"]["correct"]
        assert entry["traced"]["metrics"]["fail_frac"] == 0
        assert entry["timed"]["detail"]["virtual_repeats_exactly"]
        assert entry["timed"]["detail"]["ops_per_pass"] >= 40
        assert entry["timed"]["detail"]["op_samples"] >= 200


def test_output_names_equal_benchmark_json(smoke):
    suite, _, printed = smoke
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for entry in suite.values():
        assert set(entry["timed"]["metrics"]) == end_to_end
        assert set(entry["traced"]["metrics"]) == per_layer
    for name in end_to_end | per_layer:
        assert f" {name} " in printed


def test_layer_self_times_sum_to_the_traced_wall(smoke):
    suite, _, _ = smoke
    for name, entry in suite.items():
        metrics = entry["traced"]["metrics"]
        attributed = sum(metrics[f"{layer}.self_s"]
                         for layer in layers.LAYERS)
        assert attributed == pytest.approx(metrics["trace.wall_s"],
                                           rel=0.02), name
        assert metrics["trace.unattributed_frac"] <= 0.02


def test_workload_dominance(smoke):
    suite, _, _ = smoke
    traced = {name: entry["traced"]["metrics"]
              for name, entry in suite.items()}
    churn = traced["ftl_churn"]
    assert max(layers.LAYERS, key=lambda l: churn[f"{l}.self_s"]) == "flash"
    assert churn["write_amp"] > 1.5
    assert churn["smart.calls"] == 0
    # The host executor borrows two helpers from repro.smart.programs.base
    # (unit_lpn_runs, estimated_hash_table_nbytes), so host_join's count is
    # a few hundred calls and not zero; no session is ever opened.
    join = traced["host_join"]
    assert join["smart.sessions"] == 0
    assert join["smart.self_s"] < 0.01 * join["trace.wall_s"]
    for name, metrics in traced.items():
        assert (metrics["sql.calls"] > 0) == (name == "host_join")
    assert 0.3 <= traced["serve_replay"]["serve.cache_hit_ratio"] <= 0.5


def test_driver_line_has_exactly_the_contract_keys():
    done = subprocess.run(
        RUN + ["--workload", "ftl_churn", "--seed", "7", "--seconds", "0",
               "--trace", "0", "--smoke"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"} and value["value"] != 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: no result, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ftl_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
