"""Paper-scale extrapolation from scaled-down functional runs.

A functional run at scale ``s`` yields exact work counters and byte flows;
both scale linearly with data size, so multiplying by ``target / s`` and
evaluating the closed-form pipeline model reproduces the paper-scale
elapsed time. Cache-residency flags (large vs. small hash tables) are
re-decided at the *target* scale — a 400-row PART sample builds a
cache-resident table, the SF-100 PART table does not.

Energy at paper scale follows the same decomposition the simulator uses:
idle base x elapsed, plus per-component active energy derived from the
stage times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.engine.kernels import estimated_hash_table_nbytes
from repro.engine.plans import Query
from repro.flash.hdd import Hdd, HddSpec
from repro.flash.ssd import Ssd, SsdSpec
from repro.host.db import Database
from repro.model.analytic import (
    ScanJobModel,
    StageTimes,
    host_scan_times_hdd,
    host_scan_times_ssd,
    smart_scan_times,
)
from repro.model.costs import DEVICE_CPU, HOST_CPU
from repro.model.energy import DeviceActivity, SystemEnergy
from repro.model.report import ExecutionReport
from repro.smart.device import SmartSsd
from repro.storage.page import PAGE_SIZE


@dataclass(frozen=True)
class PaperScaleEstimate:
    """One run extrapolated to the paper's scale."""

    elapsed_seconds: float
    bottleneck: str
    stages: StageTimes
    energy: SystemEnergy
    device_cycles: float
    host_cycles: float


def _hash_table_rows_at_target(db: Database, query: Query,
                               factor: float) -> Optional[int]:
    if query.join is None:
        return None
    build = db.catalog.table(query.join.build_table)
    return int(build.tuple_count * factor)


def _hash_table_nbytes_at_target(db: Database, query: Query,
                                 factor: float) -> int:
    if query.join is None:
        return 0
    build = db.catalog.table(query.join.build_table)
    return int(estimated_hash_table_nbytes(build.heap, query) * factor)


def extrapolate_run(db: Database, query: Query, report: ExecutionReport,
                    factor: float) -> PaperScaleEstimate:
    """Scale a measured run by ``factor`` and evaluate the pipeline model.

    ``factor`` is (paper scale) / (run scale) — e.g. 100 / 0.02 = 5000.
    """
    table = db.catalog.table(query.table)
    device = db.device(table.device_name)

    data_nbytes = table.page_count * PAGE_SIZE
    if query.join is not None:
        build = db.catalog.table(query.join.build_table)
        data_nbytes += build.page_count * PAGE_SIZE
    data_target = data_nbytes * factor

    counters = report.counters.scaled(factor)
    table_nbytes_target = _hash_table_nbytes_at_target(db, query, factor)
    device_large = table_nbytes_target > db.costs.device_cache_nbytes
    host_large = table_nbytes_target > db.costs.host_cache_nbytes
    device_cycles = db.costs.cycles(counters, large_hash_table=device_large)
    host_cycles = db.costs.cycles(counters, large_hash_table=host_large)

    if report.placement == "smart":
        result_nbytes = report.io.bytes_over_interface * factor
        touched = max(0, (report.io.bytes_over_dram_bus - data_nbytes
                          - report.io.bytes_over_interface)) * factor
        job = ScanJobModel(data_nbytes=data_target, touched_nbytes=touched,
                           result_nbytes=result_nbytes,
                           device_raw_cycles=device_cycles,
                           host_raw_cycles=host_cycles)
        cpu = device.cpu_spec if isinstance(device, SmartSsd) else DEVICE_CPU
        stages = smart_scan_times(job, device.spec, cpu)
        energy = _smart_energy(db, device, stages, device_cycles,
                               report, factor)
    elif isinstance(device, Hdd):
        job = ScanJobModel(data_nbytes=data_target, touched_nbytes=0,
                           result_nbytes=0, device_raw_cycles=device_cycles,
                           host_raw_cycles=host_cycles)
        stages = host_scan_times_hdd(job, device.spec,
                                     db.config.host.cpu)
        energy = _host_energy(db, device, stages, host_cycles, hdd=True)
    else:
        job = ScanJobModel(data_nbytes=data_target, touched_nbytes=0,
                           result_nbytes=0, device_raw_cycles=device_cycles,
                           host_raw_cycles=host_cycles)
        stages = host_scan_times_ssd(job, device.spec,
                                     db.config.host.cpu)
        energy = _host_energy(db, device, stages, host_cycles, hdd=False)

    return PaperScaleEstimate(
        elapsed_seconds=stages.elapsed,
        bottleneck=stages.bottleneck,
        stages=stages,
        energy=energy,
        device_cycles=device_cycles,
        host_cycles=host_cycles,
    )


def _smart_energy(db: Database, device: Any, stages: StageTimes,
                  device_cycles: float, report: ExecutionReport,
                  factor: float) -> SystemEnergy:
    cpu_spec = device.cpu_spec
    power = device.spec.power
    activity = DeviceActivity(
        name=device.spec.name,
        idle_w=power.idle_w,
        active_delta_w=power.active_w - power.idle_w,
        io_busy_seconds=min(stages.elapsed,
                            max(stages.dram_bus, stages.interface)),
        cpu_active_delta_w=cpu_spec.active_delta_w,
        cpu_busy_core_seconds=cpu_spec.core_seconds(device_cycles),
    )
    # Host CPU at paper scale: the measured per-run core-seconds scale with
    # the data (finalize/merge work is constant, GET handling linear).
    host_core_seconds = report.host_cpu_core_seconds * factor
    return db.energy_meter.measure(stages.elapsed, host_core_seconds,
                                   [activity])


def _host_energy(db: Database, device: Any, stages: StageTimes,
                 host_cycles: float, hdd: bool) -> SystemEnergy:
    power = device.spec.power
    activity = DeviceActivity(
        name=device.spec.name,
        idle_w=power.idle_w,
        active_delta_w=power.active_w - power.idle_w,
        io_busy_seconds=min(stages.elapsed,
                            stages.interface if not hdd
                            else stages.interface + stages.positioning),
    )
    host_core_seconds = db.config.host.cpu.core_seconds(host_cycles)
    return db.energy_meter.measure(stages.elapsed, host_core_seconds,
                                   [activity])
