"""Direction of the perf regression gate (benchmarks/perf/check_regression.py).

The gate is a script, not a package module, so it is loaded by path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GATE = (Path(__file__).resolve().parents[1]
        / "benchmarks" / "perf" / "check_regression.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_more_pages_skipped_is_an_improvement(gate):
    assert gate._regression("skip_q6_pages_skipped", 200.0, 300.0) < 0
    assert gate._regression("skip_q6_pages_skipped", 200.0, 100.0) == 0.5


def test_more_pages_read_is_a_regression(gate):
    assert gate._regression("skip_q6_pages_read", 4.0, 2.0) < 0
    assert gate._regression("skip_q6_pages_read", 4.0, 6.0) == 0.5


def test_gate_passes_more_skips_and_fails_fewer(gate, tmp_path):
    def report(skipped, read):
        path = tmp_path / f"run-{skipped}-{read}.json"
        path.write_text(json.dumps({
            "calibration_s": 1.0,
            "metrics": {"skip_q6_pages_skipped": skipped,
                        "skip_q6_pages_read": read}}))
        return path

    baseline = report(215.0, 4.0)
    only = "--only=skip_q6_pages_skipped,skip_q6_pages_read"
    assert gate.main([str(report(300.0, 4.0)), "--baseline", str(baseline),
                      only]) == 0
    assert gate.main([str(report(100.0, 4.0)), "--baseline", str(baseline),
                      only]) == 1
    assert gate.main([str(report(215.0, 8.0)), "--baseline", str(baseline),
                      only]) == 1
