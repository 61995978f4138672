"""Sensitivity self-test: a slowdown seeded into one layer is caught on the
predicted workload, attributed to that layer, and moves no virtual number.

The slowdown is 30% of the workload's own pass wall-clock, spent as a
busy-wait spread evenly over the calls of one public function of the layer:
``PageMappedFtl.write`` for the flash write path and ``UnitColumns.decode``
for unit decode (the method behind ``decode_unit_columns``, and the one the
kernels call). The wrapper's code object carries a file name inside the
layer's package, so the profile sees the wait where it was injected.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

import pytest

import harness
import layers
from loads import WORKLOADS
from repro.flash.ftl import PageMappedFtl
from repro.storage.unitdecode import UnitColumns

E2E = Path(__file__).resolve().parents[1]
SPEC = json.loads((E2E.parents[1] / "BENCHMARK.json").read_text())
WALL_BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["wall_s"]
SIZES = json.loads((E2E / "frozen.json").read_text())["sizes"]["smoke"]
SLOWDOWN = 0.30
PASSES = 3


class Injected:
    """Wrap ``owner.name`` with a per-call busy-wait, as code of ``layer``."""

    def __init__(self, monkeypatch, owner, name: str, module_file: str):
        self.calls = 0
        self.per_call_s = 0.0
        original = getattr(owner, name)
        injector = self

        def slowed(*args, **kwargs):
            injector.calls += 1
            result = original(*args, **kwargs)
            if injector.per_call_s:
                until = time.perf_counter() + injector.per_call_s
                while time.perf_counter() < until:
                    pass
            return result

        slowed.__code__ = slowed.__code__.replace(
            co_filename=str(Path(module_file).with_name("_injected.py")))
        monkeypatch.setattr(owner, name, slowed)


def median_wall(workload) -> tuple[float, tuple]:
    tallies = [harness.run_pass(workload) for _ in range(PASSES)]
    return (statistics.median(t.wall_s for t in tallies),
            harness.virtual_signature(tallies[0]))


def traced_layers(workload) -> dict:
    tally = harness.run_pass(workload, spans=layers.Spans())
    times, _ = layers.roll_up(tally.profile)
    return {layer: times[layer]["self_s"] for layer in layers.LAYERS}


def make(name: str):
    workload = WORKLOADS[name](1, SIZES[name])
    workload.build()
    harness.run_pass(workload)                    # warm-up
    return workload


@pytest.mark.parametrize("owner, method, module, layer, predicted, bypass", [
    (PageMappedFtl, "write", "repro.flash.ftl", "flash",
     "ftl_churn", "scan_pushdown"),
    (UnitColumns, "decode", "repro.storage.unitdecode", "storage",
     "scan_pushdown", "ftl_churn"),
])
def test_seeded_slowdown_is_caught_and_attributed(
        monkeypatch, owner, method, module, layer, predicted, bypass):
    module_file = importlib.import_module(module).__file__
    hit, spared = make(predicted), make(bypass)

    base_wall, base_virtual = median_wall(hit)
    spared_wall, spared_virtual = median_wall(spared)
    base_layers = traced_layers(hit)

    injected = Injected(monkeypatch, owner, method, module_file)
    harness.run_pass(hit)                         # count the calls
    calls_per_pass = injected.calls
    assert calls_per_pass > 0
    extra = SLOWDOWN * base_wall
    injected.per_call_s = extra / calls_per_pass

    slow_wall, slow_virtual = median_wall(hit)
    # Caught: wall_s moves past its bound on the predicted workload ...
    assert (slow_wall - base_wall) / base_wall > WALL_BOUND
    # ... and no virtual number moves.
    assert slow_virtual == base_virtual

    # Attributed: the traced pass puts the extra time in that layer.
    slow_layers = traced_layers(hit)
    growth = {name: slow_layers[name] - base_layers[name]
              for name in layers.LAYERS}
    assert max(growth, key=growth.get) == layer
    assert growth[layer] > 0.8 * extra

    # Bypassed: the other workload never calls the function, so its wall_s
    # stays within the bound and its virtual numbers stay put.
    injected.calls = 0
    after_wall, after_virtual = median_wall(spared)
    assert injected.calls == 0
    assert abs(after_wall - spared_wall) / spared_wall <= WALL_BOUND
    assert after_virtual == spared_virtual
