"""The `Database` facade: devices, tables, and query execution.

A :class:`Database` owns one simulated world — host machine, buffer pool,
catalog, and storage devices — and executes queries with a chosen
:class:`~repro.engine.plans.Placement`:

* ``Placement.HOST`` — conventional execution (pages to the host);
* ``Placement.SMART`` — pushdown through OPEN/GET/CLOSE;
* ``Placement.AUTO`` — the §4.3-style cost-based optimizer decides.

:meth:`Database.execute_placed` runs one built query as a one-submission
window of the concurrent scheduler (:class:`~repro.sched.QueryScheduler`),
so one query and a batch share one launcher. Everything else — SQL
strings, batches, tenants — enters through the top-level facade,
``repro.connect() -> Session``, which ends here for a single query and in
the scheduler/serving layer for many.

Every execution returns an :class:`~repro.model.report.ExecutionReport`
with the result rows, virtual elapsed time, work counters, I/O stats, and
the Table-3 energy decomposition — plus, when observability is enabled
(:meth:`Database.enable_observability`), a ``profile`` block of span and
metric aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Union

import numpy as np

from repro.errors import CatalogError, PlanError
from repro.engine.plans import Placement, Query
from repro.faults import FaultPlan, HealthRegistry
from repro.flash.hdd import Hdd, HddSpec
from repro.flash.ssd import Ssd, SsdSpec
from repro.host.bufferpool import BufferPool
from repro.host.catalog import Catalog, Table
from repro.host.machine import HostMachine, HostSpec
from repro.model.costs import DEFAULT_COSTS, CycleCosts
from repro.model.counters import counter_field_names
from repro.model.energy import DeviceActivity, EnergyMeter
from repro.model.report import ExecutionReport, IoStats
from repro.sim import Simulator
from repro.smart.device import SmartSsd, SmartSsdSpec
from repro.storage import DEFAULT_STATS_CONFIG, Layout, Schema, StatsConfig


@dataclass(frozen=True)
class DatabaseConfig:
    """Static configuration of the simulated world."""

    host: HostSpec = field(default_factory=HostSpec)
    costs: CycleCosts = DEFAULT_COSTS


class Database:
    """One simulated host + storage world and its catalog."""

    def __init__(self, config: DatabaseConfig | None = None):
        self.config = config or DatabaseConfig()
        self.sim = Simulator()
        self.machine = HostMachine(self.sim, self.config.host)
        self.buffer_pool = BufferPool(self.config.host.buffer_pool_nbytes)
        self.catalog = Catalog()
        self.energy_meter = EnergyMeter(self.config.host.power)
        #: Per-device failure tracking; the optimizer vetoes pushdown to
        #: quarantined devices.
        self.health = HealthRegistry()
        self._devices: dict[str, Any] = {}
        #: Bumped on every world mutation (DML, flush, device attach,
        #: fault plans); the parallel runtime's cached lane worlds are
        #: invalidated when it changes (see repro.runtime.worlds).
        self._world_version = 0

    def note_world_mutation(self) -> None:
        """Mark the world changed for :func:`repro.runtime.world_fingerprint`."""
        self._world_version += 1

    @property
    def costs(self) -> CycleCosts:
        """The calibrated cycle-cost table."""
        return self.config.costs

    # -- device management -------------------------------------------------------

    def create_ssd(self, spec: SsdSpec | None = None) -> Ssd:
        """Attach a regular SAS SSD."""
        return self._register(Ssd(self.sim, spec))

    def create_smart_ssd(self, spec: SmartSsdSpec | None = None) -> SmartSsd:
        """Attach a Smart SSD."""
        return self._register(SmartSsd(self.sim, spec))

    def create_hdd(self, spec: HddSpec | None = None) -> Hdd:
        """Attach the SAS HDD baseline."""
        return self._register(Hdd(self.sim, spec))

    def _register(self, device: Any) -> Any:
        name = device.spec.name
        if name in self._devices:
            raise CatalogError(f"device {name!r} already attached")
        self._devices[name] = device
        self.note_world_mutation()
        return device

    def install_fault_plan(self, plan: FaultPlan) -> None:
        """Install a fault plan across the world: simulator + all devices.

        Devices attached later pick the plan up from ``sim.faults`` in
        their constructors. With no plan installed every fault site is a
        no-op and execution is bit-identical to a fault-free build.
        """
        self.sim.faults = plan
        for device in self._devices.values():
            if hasattr(device, "install_fault_plan"):
                device.install_fault_plan(plan)
        self.note_world_mutation()

    def device(self, name: str) -> Any:
        """Look up an attached device."""
        try:
            return self._devices[name]
        except KeyError:
            raise CatalogError(
                f"unknown device {name!r}; have {sorted(self._devices)}"
            ) from None

    def device_names(self) -> list[str]:
        """All attached device names, sorted."""
        return sorted(self._devices)

    # -- tables ----------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema, layout: Layout,
                     rows: np.ndarray | Iterable[Sequence[Any]],
                     device_name: str,
                     stats_config: "StatsConfig | None" = DEFAULT_STATS_CONFIG,
                     ) -> Table:
        """Create and bulk-load a heap table on the named device.

        ``stats_config`` controls the per-page statistics (zone maps and
        optional Bloom filters) registered with stats-capable devices for
        PAX tables; ``None`` loads the table without statistics, which
        disables device-side data skipping for it.
        """
        return self.catalog.create_table(name, schema, layout, rows,
                                         self.device(device_name),
                                         stats_config=stats_config)

    def create_sharded_table(self, name: str, schema: Schema, layout: Layout,
                             rows: np.ndarray | Iterable[Sequence[Any]],
                             device_names: Sequence[str],
                             spec: Optional[Any] = None,
                             stats_config: "StatsConfig | None" =
                             DEFAULT_STATS_CONFIG):
        """Partition one logical relation across several named devices.

        ``spec`` is a :class:`~repro.host.catalog.ShardSpec` (hash, range,
        round-robin, or replicated); each partition loads as a physical
        table ``<name>#<i>``. The scheduler scatters a logical query over
        the shards and merges the partials on the host, whichever door
        the query came in by.
        """
        devices = [self.device(device_name)
                   for device_name in device_names]
        return self.catalog.create_sharded_table(
            name, schema, layout, rows, devices, spec=spec,
            stats_config=stats_config)

    # -- observability -----------------------------------------------------------------

    def enable_observability(self, obs: Optional[Any] = None):
        """Attach an observability layer (spans + metrics) to this world.

        Returns the attached :class:`repro.obs.Observability`. With none
        attached (the default) every instrumentation site is skipped by a
        single ``is None`` test, so disabled runs are bit-identical to the
        uninstrumented seed.
        """
        from repro.obs import Observability
        if obs is None:
            obs = Observability()
        return obs.attach(self.sim)

    @property
    def obs(self):
        """The attached :class:`repro.obs.Observability`, or None."""
        return self.sim.obs

    # -- execution --------------------------------------------------------------------

    def execute_placed(self, query: Query,
                       placement: Union[Placement, str] = Placement.HOST,
                       io_unit_pages: Optional[int] = None,
                       window: Optional[int] = None) -> ExecutionReport:
        """Run a query to completion and account for it (canonical API).

        A one-submission :class:`~repro.sched.QueryScheduler` window: one
        query is launched, admitted and measured exactly like a batch (a
        sharded table's shards included). ``placement`` is a :class:`~repro.engine.plans.Placement`;
        ``Placement.AUTO`` asks the cost-based optimizer (§4.3).
        """
        from repro.sched.scheduler import QueryScheduler, SchedulerConfig
        scheduler = QueryScheduler(self, SchedulerConfig(
            io_unit_pages=io_unit_pages, window=window))
        scheduler.submit(query, placement)
        return scheduler.gather()[0]

    def explain(self, query_or_sql,
                placement: Union[Placement, str] = Placement.SMART) -> str:
        """Render the physical plan (Figures 4/6 style) for a query or SQL."""
        from repro.host.planner import explain as render
        if isinstance(query_or_sql, str):
            from repro.sql import compile_sql
            query_or_sql = compile_sql(query_or_sql, self.catalog)
        return render(self, query_or_sql,
                      placement=Placement.coerce(placement).value)

    def update_rows(self, table_name: str, predicate,
                    assignments, bump_version: bool = True) -> int:
        """Timed UPDATE through the buffer pool; returns rows changed.

        The rewritten pages stay dirty in the buffer pool, which makes
        pushdown on the table unsafe (§4.3) until :meth:`flush_table`.
        ``assignments`` maps column names to values or expression trees.
        ``bump_version=False`` defers the catalog version bump to the
        caller — the serving layer uses it to make a multi-shard update
        visible atomically (one logical bump after every shard applied).
        """
        from repro.host.dml import update_process
        self.note_world_mutation()
        proc = self.sim.process(
            update_process(self, table_name, predicate, assignments,
                           bump_version=bump_version),
            name=f"update-{table_name}")
        self.sim.run()
        if not proc.triggered:
            raise PlanError(f"update of {table_name!r} deadlocked")
        return proc.value

    def flush_table(self, table_name: str) -> int:
        """Timed write-back of a table's dirty pages; returns pages flushed.

        Clears the pushdown veto: afterwards the device copy is current.
        """
        from repro.host.dml import flush_process
        self.note_world_mutation()
        proc = self.sim.process(flush_process(self, table_name),
                                name=f"flush-{table_name}")
        self.sim.run()
        if not proc.triggered:
            raise PlanError(f"flush of {table_name!r} deadlocked")
        return proc.value

    def _absorb_metrics(self, obs, query: Query, placement: Placement,
                        report: ExecutionReport) -> None:
        """Fold one report's counters/io/energy into named metric series."""
        labels = {"query": query.name, "placement": placement.value}
        metrics = obs.metrics
        metrics.histogram("query.elapsed_seconds",
                          **labels).observe(report.elapsed_seconds)
        for field_name in counter_field_names():
            value = getattr(report.counters, field_name)
            if value:
                metrics.counter(f"work.{field_name}", **labels).inc(value)
        if report.io is not None:
            for field_name in ("pages_read_device", "bytes_over_interface",
                               "bytes_over_dram_bus", "buffer_pool_hits",
                               "buffer_pool_misses", "host_writes",
                               "gc_relocations"):
                value = getattr(report.io, field_name)
                if value:
                    metrics.counter(f"io.{field_name}", **labels).inc(value)
        if report.energy is not None:
            metrics.counter("energy.entire_system_j",
                            **labels).inc(report.energy.entire_system_j)
            metrics.counter("energy.io_subsystem_j",
                            **labels).inc(report.energy.io_subsystem_j)
        for resource, value in (report.utilization or {}).items():
            metrics.gauge("utilization", resource=resource,
                          **labels).set(value)

    # -- accounting helpers ------------------------------------------------------------

    def _measure(self, device_name: str, snap: dict[str, float],
                 bp_before: tuple[int, int], elapsed: float,
                 host_cpu_core_seconds: float,
                 pages_read: int) -> dict[str, Any]:
        """A report's device-side measurements over one run window."""
        device = self.device(device_name)
        delta = self._delta(device, snap)
        io = IoStats(
            pages_read_device=pages_read,
            bytes_over_interface=delta["interface_bytes"],
            bytes_over_dram_bus=delta["dram_bytes"],
            buffer_pool_hits=self.buffer_pool.hits - bp_before[0],
            buffer_pool_misses=self.buffer_pool.misses - bp_before[1],
            host_writes=delta["host_writes"],
            gc_relocations=delta["gc_relocations"],
        )
        return {"io": io, "device_cpu_core_seconds": delta["cpu_busy"],
                "utilization": self._utilization(device, delta, elapsed,
                                                 host_cpu_core_seconds)}

    def _busy_snapshot(self, device: Any) -> dict[str, float]:
        now = self.sim.now
        ftl = getattr(device, "ftl", None)  # the HDD has no FTL
        hdd = isinstance(device, Hdd)
        # For the HDD the actuator *is* the transfer path.
        transfer = (device.actuator if hdd
                    else device.interface).busy.busy_time(now)
        dram = 0.0 if hdd else device.controller.dram_bus.busy.busy_time(now)
        return {
            "interface_bytes": self._interface_bytes(device),
            "dram_bytes": self._dram_bytes(device),
            "host_writes": 0 if ftl is None else ftl.stats.host_writes,
            "gc_relocations": 0 if ftl is None else ftl.stats.gc_relocations,
            "io_busy": transfer if hdd else max(dram, transfer),
            "interface_busy": transfer,
            "dram_busy": dram,
            "cpu_busy": (device.cpu.busy.busy_time(now)
                         if isinstance(device, SmartSsd) else 0.0),
        }

    def _delta(self, device: Any, snap: dict[str, float]) -> dict[str, float]:
        """How far each :meth:`_busy_snapshot` counter moved since ``snap``."""
        after = self._busy_snapshot(device)
        return {name: after[name] - snap[name] for name in snap}

    def _utilization(self, device: Any, delta: dict[str, float],
                     elapsed: float,
                     host_cpu_core_seconds: float) -> dict[str, float]:
        """Average per-resource utilization over one run window."""
        if elapsed <= 0:
            return {}
        util = {
            "host-cpu": (host_cpu_core_seconds
                         / (elapsed * self.config.host.cpu.cores)),
            "interface": delta["interface_busy"] / elapsed,
        }
        if not isinstance(device, Hdd):
            util["dram-bus"] = delta["dram_busy"] / elapsed
        if isinstance(device, SmartSsd):
            util["device-cpu"] = (delta["cpu_busy"]
                                  / (elapsed * device.cpu_spec.cores))
        return util

    def _interface_bytes(self, device: Any) -> int:
        return device.interface.bytes_moved

    def _dram_bytes(self, device: Any) -> int:
        if isinstance(device, Hdd):
            return 0
        return device.controller.dram_bus.bytes_moved

    def _device_activity(self, device: Any,
                         snap: dict[str, float]) -> DeviceActivity:
        power = device.spec.power
        delta = self._delta(device, snap)
        activity = DeviceActivity(
            name=device.spec.name,
            idle_w=power.idle_w,
            active_delta_w=power.active_w - power.idle_w,
            io_busy_seconds=delta["io_busy"],
        )
        if isinstance(device, SmartSsd):
            activity.cpu_active_delta_w = device.cpu_spec.active_delta_w
            activity.cpu_busy_core_seconds = delta["cpu_busy"]
        return activity
