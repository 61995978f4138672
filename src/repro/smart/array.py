"""A coordinated array of Smart SSDs (paper §4.3's design endpoint).

"At the extreme end of this spectrum, the host machine could simply be the
coordinator that stages computation across an array of Smart SSDs, making
the system look like a parallel DBMS with the master node being the host
server, and the worker nodes in the parallel system being the Smart SSDs."

:class:`SmartSsdArray` implements that endpoint for the supported query
class: a table is hash/round-robin partitioned across the devices at load
time; a query OPENs one session per device, the partial results are merged
on the host, and scalar aggregates are combined exactly as a parallel DBMS
exchange operator would.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.errors import (
    ArrayMemberError,
    DeviceTimeoutError,
    PlanError,
    ProgramCrashError,
    ProtocolError,
)
from repro.faults import DEFAULT_RETRY_POLICY, RetryPolicy, is_transient_error
from repro.model.counters import WorkCounters
from repro.sim import Simulator
from repro.smart.device import SmartSsd, SmartSsdSpec
from repro.storage import (
    HeapFile,
    Layout,
    Schema,
    build_heap_pages,
    unit_lpn_runs,
)


@dataclass(frozen=True)
class PartitionedTable:
    """One logical relation spread across the array's devices."""

    name: str
    schema: Schema
    layout: Layout
    heaps: tuple[HeapFile, ...]  # one per device, index-aligned

    @property
    def tuple_count(self) -> int:
        """Total live tuples across all partitions."""
        return sum(heap.tuple_count for heap in self.heaps)


# --------------------------------------------------------------------------
# Partitioning helpers (shared by SmartSsdArray and the sharded catalog)
# --------------------------------------------------------------------------

def hash_shard_indices(values: np.ndarray, shard_count: int) -> np.ndarray:
    """Stable hash partition: value -> shard index in ``[0, shard_count)``.

    Uses the SplitMix64 finalizer (the same mixer the Bloom filters use)
    so the assignment is deterministic across runs and platforms and
    insensitive to the key distribution — sequential keys spread evenly.
    Integer-like columns only (ints, dates, decimals in storage form).
    """
    from repro.storage.stats import _splitmix64

    if shard_count < 1:
        raise PlanError("shard count must be positive")
    values = np.asarray(values)
    if values.dtype.kind == "M":
        values = values.astype("datetime64[D]").astype(np.int64)
    elif values.dtype.kind not in ("i", "u"):
        raise PlanError(
            f"hash sharding needs an integer-like key column, got "
            f"dtype {values.dtype}")
    keys = values.astype(np.int64, copy=False).view(np.uint64)
    return (_splitmix64(keys) % np.uint64(shard_count)).astype(np.int64)


def range_shard_indices(values: np.ndarray,
                        bounds: Sequence[Any]) -> np.ndarray:
    """Range partition against sorted split points: shard i holds
    ``bounds[i-1] <= value < bounds[i]`` (shard 0 is everything below
    ``bounds[0]``, the last shard everything at or above ``bounds[-1]``).
    """
    bounds = np.asarray(list(bounds))
    if bounds.dtype.kind == "M":
        bounds = bounds.astype("datetime64[D]").astype(np.int64)
    elif len(bounds) and bounds.dtype.kind not in ("i", "u"):
        raise PlanError(
            f"range shard bounds must be in the key's integer storage "
            f"form (dates as days since epoch), got dtype {bounds.dtype}")
    if len(bounds) and not np.array_equal(bounds, np.sort(bounds)):
        raise PlanError("range shard bounds must be sorted ascending")
    values = np.asarray(values)
    if values.dtype.kind == "M":
        values = values.astype("datetime64[D]").astype(np.int64)
    return np.searchsorted(bounds, values, side="right").astype(np.int64)


def round_robin_indices(row_count: int, shard_count: int) -> np.ndarray:
    """The striping :meth:`SmartSsdArray.load_partitioned` uses."""
    if shard_count < 1:
        raise PlanError("shard count must be positive")
    return np.arange(row_count, dtype=np.int64) % shard_count


def lane_partition(device_names: Iterable[str]) -> tuple[str, ...]:
    """Canonical device ordering for per-device parallel execution.

    The fleet's execution *lanes* — one isolated simulation per device
    group in :mod:`repro.runtime` — are always created, dispatched, and
    merged in this order, so every parallel run is deterministic whatever
    the worker scheduling was. Kept here with the other partitioning
    helpers: this is the same "which worker owns which slice" question as
    hash/range/round-robin sharding, answered for host-side parallelism.
    """
    return tuple(sorted(dict.fromkeys(device_names)))


class SmartSsdArray:
    """Round-robin-partitioned storage over N Smart SSDs."""

    def __init__(self, sim: Simulator, device_count: int,
                 spec: SmartSsdSpec | None = None):
        if device_count < 1:
            raise PlanError("array needs at least one device")
        self.sim = sim
        base = spec or SmartSsdSpec()
        self.devices = [
            SmartSsd(sim, replace(base, name=f"{base.name}-{i}"))
            for i in range(device_count)
        ]
        self._tables: dict[str, PartitionedTable] = {}

    def __len__(self) -> int:
        return len(self.devices)

    def load_partitioned(self, name: str, schema: Schema, layout: Layout,
                         rows: np.ndarray,
                         table_id: int = 0) -> PartitionedTable:
        """Stripe rows round-robin across the devices (untimed staging)."""
        heaps = []
        for index, device in enumerate(self.devices):
            part_rows = rows[index::len(self.devices)]
            pages = build_heap_pages(schema, part_rows, layout,
                                     table_id=table_id)
            first = device.load_extent(pages)
            heaps.append(HeapFile(schema=schema, layout=layout,
                                  first_lpn=first, page_count=len(pages),
                                  tuple_count=len(part_rows),
                                  table_id=table_id))
        table = PartitionedTable(name=name, schema=schema, layout=layout,
                                 heaps=tuple(heaps))
        self._tables[name] = table
        return table

    def load_replicated(self, name: str, schema: Schema, layout: Layout,
                        rows: np.ndarray,
                        table_id: int = 0) -> PartitionedTable:
        """Copy the full relation onto every device (dimension tables)."""
        heaps = []
        pages = build_heap_pages(schema, rows, layout, table_id=table_id)
        for device in self.devices:
            first = device.load_extent(pages)
            heaps.append(HeapFile(schema=schema, layout=layout,
                                  first_lpn=first, page_count=len(pages),
                                  tuple_count=len(rows), table_id=table_id))
        table = PartitionedTable(name=name, schema=schema, layout=layout,
                                 heaps=tuple(heaps))
        self._tables[name] = table
        return table

    def table(self, name: str) -> PartitionedTable:
        """Look up a partitioned table."""
        try:
            return self._tables[name]
        except KeyError:
            raise PlanError(f"unknown partitioned table {name!r}") from None

    # -- parallel execution ------------------------------------------------------

    def execute(self, query,
                retry_policy: Optional[RetryPolicy] = None) -> "ArrayResult":
        """Run a query across every device in parallel and merge partials.

        The host acts purely as the coordinator: it OPENs one session per
        device, drains them with GET, and merges the partial aggregates or
        row chunks — the "parallel DBMS" structure §4.3 sketches. (This is
        *virtual-time* parallelism inside one simulator; to also spread
        the simulation itself across host cores, run through the
        scheduler/serving layer with a ``thread``/``process`` backend —
        :mod:`repro.runtime` — which partitions work by the same
        per-device lanes as :func:`lane_partition`.)

        Per-worker recovery mirrors the single-device executor: lost GET
        replies are re-polled with the ack/resume handshake, crashed worker
        sessions are re-OPENed, and a worker whose pushdown attempts are
        exhausted degrades to a coordinator-side scan of just its partition
        (the device still serves plain reads). Only a *dead* member — whose
        partition is unreachable even for block reads — hard-fails the
        query with :class:`~repro.errors.ArrayMemberError`: round-robin
        partitioning keeps no replica to recover from.
        """
        from repro.engine.kernels import AggState
        from repro.smart.programs.base import (IO_UNIT_PAGES,
                                               PIPELINE_WINDOW)

        policy = (retry_policy if retry_policy is not None
                  else DEFAULT_RETRY_POLICY)
        table = self.table(query.table)
        build = self.table(query.join.build_table) if query.join else None
        start = self.sim.now
        counters = WorkCounters()
        degraded: list[str] = []

        obs = self.sim.obs

        def device_driver(index: int, device: SmartSsd):
            worker_span = None
            if obs is not None:
                worker_span = obs.span(
                    "array.worker", track=f"array:{device.spec.name}",
                    query=query.name, partition=index).__enter__()
            try:
                payload = yield from device_attempts(index, device)
            finally:
                if worker_span is not None:
                    worker_span.finish()
            return payload

        def device_attempts(index: int, device: SmartSsd):
            arguments = {
                "query": query,
                "heap": table.heaps[index],
                "io_unit_pages": IO_UNIT_PAGES,
                "window": PIPELINE_WINDOW,
            }
            if build is not None:
                arguments["build_heap"] = build.heaps[index]
                program = "hash_join"
            elif query.aggregates:
                program = "aggregate"
            else:
                program = "scan_filter"
            attempt = 0
            while True:
                attempt += 1
                try:
                    payload = yield from self._worker_session(
                        device, program, arguments, policy, counters)
                    return payload
                except (ProgramCrashError, DeviceTimeoutError) as exc:
                    if attempt < policy.max_session_attempts:
                        counters.session_retries += 1
                        yield self.sim.timeout(policy.backoff(attempt))
                        continue
                    if not policy.fallback_to_host:
                        raise ArrayMemberError(
                            f"worker {device.spec.name} failed: {exc}"
                        ) from exc
                    counters.pushdown_fallbacks += 1
                    degraded.append(device.spec.name)
                    if self.sim.tracer is not None:
                        self.sim.tracer.mark(
                            self.sim.now, "array-degraded",
                            f"{device.spec.name} partition={index}: {exc}")
                    try:
                        payload = yield from self._host_partition_scan(
                            device, query, table.heaps[index],
                            build.heaps[index] if build else None)
                    except DeviceTimeoutError as unreachable:
                        raise ArrayMemberError(
                            f"partition {index} on {device.spec.name} "
                            f"unreachable: {unreachable}") from exc
                    return payload

        drivers = [self.sim.process(device_driver(i, device),
                                    name=f"array-worker-{i}")
                   for i, device in enumerate(self.devices)]
        gate = self.sim.all_of(drivers)
        self.sim.run()
        if not gate.triggered:
            raise PlanError("array query deadlocked")
        if not gate.ok:
            raise gate.value

        state = AggState()
        row_chunks = []
        for payload in gate.value:
            for tag, item in payload:
                if tag == "agg":
                    state.merge(item, query.aggregates)
                else:
                    row_chunks.extend(item)
        rows: Any
        if query.aggregates:
            from repro.host.executor import _finalize_aggregates
            rows = _finalize_aggregates(query, state)
        else:
            from repro.host.executor import _merge_select_chunks
            rows = _merge_select_chunks(query, row_chunks)
        return ArrayResult(rows=rows, elapsed_seconds=self.sim.now - start,
                           device_count=len(self.devices),
                           counters=counters, degraded=tuple(degraded))

    def _worker_session(self, device: SmartSsd, program: str,
                        arguments: dict, policy: RetryPolicy,
                        counters: WorkCounters):
        """One worker's OPEN/GET/CLOSE exchange with in-session GET retries."""
        from repro.smart.protocol import OpenParams, SessionStatus

        session_id = yield from device.open_session(
            OpenParams(program=program, arguments=arguments))
        payload = []
        ack = 0
        get_failures = 0
        while True:
            try:
                response = yield from device.get(session_id, ack=ack)
            except DeviceTimeoutError:
                counters.get_timeouts += 1
                get_failures += 1
                if get_failures > policy.max_get_retries:
                    raise
                yield self.sim.timeout(policy.backoff(get_failures))
                continue
            get_failures = 0
            ack = response.seq
            payload.extend(response.payload)
            if response.status is SessionStatus.FAILED:
                error = response.error or "unknown device error"
                try:
                    yield from device.close_session(session_id)
                except (DeviceTimeoutError, ProtocolError):
                    pass
                if is_transient_error(error):
                    counters.device_program_crashes += 1
                    raise ProgramCrashError(
                        f"worker {device.spec.name}: {error}")
                raise ProtocolError(f"worker {device.spec.name}: {error}")
            if (response.status is SessionStatus.DONE
                    and not response.payload):
                break
        yield from device.close_session(session_id)
        return payload

    def _host_partition_scan(self, device: SmartSsd, query,
                             heap: HeapFile,
                             build_heap: Optional[HeapFile]):
        """Degraded path: the coordinator scans one partition itself.

        Pages cross the host interface via timed block reads and the
        kernel runs on the coordinator (untimed here — the array models no
        host CPU; the interface crossing is the dominant, and modeled,
        cost). The payload shape matches what the worker session would have
        produced, so the merge step cannot tell the difference.
        """
        from repro.engine.kernels import (AggState, BatchKernel,
                                          BuildCollector)
        from repro.smart.programs.base import IO_UNIT_PAGES

        hash_table = None
        if query.join is not None:
            collector = BuildCollector(build_heap.schema, query.join)
            for lpns in unit_lpn_runs(build_heap, IO_UNIT_PAGES):
                pages = yield from device.host_read(lpns)
                collector.consume(pages, WorkCounters(), build_heap.layout)
            hash_table = collector.finish()
        kernel = BatchKernel(query, heap.schema, heap.layout,
                             hash_table=hash_table)
        select_mode = bool(query.select)
        agg = AggState()
        payload = []
        for index, lpns in enumerate(unit_lpn_runs(heap, IO_UNIT_PAGES)):
            pages = yield from device.host_read(lpns)
            partial = kernel.process_unit(
                pages, counters=WorkCounters(),
                agg_into=None if select_mode else agg)
            if select_mode:
                payload.append((index,
                                [chunk for __, chunk in partial.chunks]))
        if not select_mode:
            payload.append(("agg", agg))
        return payload


@dataclass
class ArrayResult:
    """Merged output of a partitioned execution."""

    rows: Any
    elapsed_seconds: float
    device_count: int
    #: Recovery events observed during the run (GET timeouts, worker
    #: session retries, coordinator-side fallbacks...).
    counters: WorkCounters = field(default_factory=WorkCounters)
    #: Names of members whose partitions fell back to coordinator scans.
    degraded: tuple[str, ...] = ()
