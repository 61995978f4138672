"""The serving front door: tenants, QoS admission, result caching.

:class:`Frontend` is the multi-tenant layer over a
:class:`~repro.sched.scheduler.QueryScheduler` — the session's own
scheduler when :meth:`repro.Session.serve` builds it. One gather cycle:

1. **QoS admission** — every pending query, in ``(arrival, submission)``
   order, draws a token from its tenant's
   :class:`~repro.sched.qos.TokenBucket`; the grant instant becomes the
   arrival offset handed to the device scheduler, so a flooding tenant
   delays only its own queries.
2. **Cache probe** — each query's canonical key (current table versions
   included) is looked up in the :class:`~repro.serve.cache.ResultCache`;
   hits are answered without touching a device.
3. **Run** — misses are submitted to the scheduler, which runs them in one
   window beside whatever else is pending there (untagged queries, write
   tickets): it scatters a sharded table's query over its shards and
   merges the partials back (see :mod:`repro.sched.scheduler`).
4. **Deliver** — misses run with ``finalize`` stripped, so each report
   carries the merged pre-finalize partials: their ``AggState`` is cached
   and finalized here, and each tenant receives a versioned
   :class:`TenantBatch`.

Writes go through :meth:`Frontend.update`: write-through (update +
flush, so the device copy is never stale for pushdown) plus a catalog
version bump that invalidates every cached result for the table.

Everything runs in virtual time under the discrete-event simulator, so a
fixed workload replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Union

from repro.engine.plans import Placement, Query
from repro.errors import AdmissionRejected, PlanError, ServingError
from repro.host.catalog import ShardedTable
from repro.host.executor import _finalize_aggregates
from repro.host.planner import merge_scatter_state
from repro.model.report import ExecutionReport
from repro.sched.qos import TenantSpec, TokenBucket
from repro.sched.scheduler import QueryScheduler, SchedulerConfig
from repro.serve.cache import MISS, ResultCache, cache_key


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`Frontend`."""

    #: Serve repeat queries from the cross-query result cache.
    cache_enabled: bool = True
    cache_capacity: int = 256
    #: Virtual service time of a cache hit (hash + host-memory copy) —
    #: the O(1) cost a hit is charged instead of device work.
    cache_hit_seconds: float = 5e-5
    #: Token-bucket defaults for tenants submitted without an explicit
    #: :class:`~repro.sched.qos.TenantSpec`.
    default_rate: float = 8.0
    default_burst: float = 4.0
    #: Queries one tenant may hold pending before :meth:`Frontend.submit`
    #: raises :class:`~repro.errors.AdmissionRejected`.
    max_queue_per_tenant: int = 1024
    #: Backend (``"serial"``, ``"thread"`` or ``"process"``, see
    #: :mod:`repro.runtime`) of the scheduler the frontend or
    #: :meth:`repro.Session.serve` builds; ``None`` keeps the scheduler's
    #: own. Every backend gives bit-identical results.
    backend: Optional[str] = None


@dataclass
class QueryHandle:
    """Future-style ticket for one submitted query.

    Filled in by :meth:`Frontend.gather`; :meth:`result` raises until
    then.
    """

    index: int
    query: Query
    tenant: str
    placement: Placement
    arrival: float
    # Filled in by gather():
    admitted_at: Optional[float] = None
    cached: bool = False
    fan_out: int = 0
    pruned_shards: int = 0
    report: Optional[ExecutionReport] = None

    @property
    def done(self) -> bool:
        """True once a gather cycle resolved this query."""
        return self.report is not None

    @property
    def qos_delay_seconds(self) -> float:
        """Virtual seconds admission held the query back."""
        if self.admitted_at is None:
            return 0.0
        return self.admitted_at - self.arrival

    def result(self):
        """The result rows; raises until :meth:`Frontend.gather` ran."""
        if self.report is None:
            raise ServingError(
                f"query {self.query.name!r} (tenant {self.tenant!r}) has "
                f"not been gathered yet")
        return self.report.rows


@dataclass
class TenantBatch:
    """One tenant's results from one gather cycle.

    ``sequence`` is the tenant's batch version: it increments by one per
    cycle that contained work for the tenant, so consumers can detect
    dropped or re-delivered batches.
    """

    tenant: str
    sequence: int
    handles: list[QueryHandle]


class Frontend:
    """Multi-tenant serving layer over one :class:`~repro.host.db.Database`.

    Thousands of in-flight queries are held as cheap
    :class:`QueryHandle` tickets; nothing touches the simulator until
    :meth:`gather` runs the cycle. ``scheduler`` is the scheduler the
    cycle runs on; by default the frontend builds its own.
    """

    def __init__(self, db: Any, config: Optional[ServeConfig] = None,
                 tenants: tuple[TenantSpec, ...] = (),
                 scheduler: Optional[QueryScheduler] = None):
        self.db = db
        self.config = config or ServeConfig()
        self.scheduler = scheduler or QueryScheduler(db, SchedulerConfig(
            backend=self.config.backend or "serial"))
        self.cache = ResultCache(self.config.cache_capacity)
        self._buckets: dict[str, TokenBucket] = {}
        self._pending: list[QueryHandle] = []
        self._sequences: dict[str, int] = {}
        self._submitted_total = 0
        #: Virtual time the last gather window opened at.
        self._origin: Optional[float] = None
        for spec in tenants:
            self.register_tenant(spec)

    # -- tenants -----------------------------------------------------------

    def register_tenant(self, spec: TenantSpec) -> TenantSpec:
        """Declare a tenant's service contract before it submits."""
        if spec.name in self._buckets:
            raise PlanError(f"tenant {spec.name!r} already registered")
        self._buckets[spec.name] = TokenBucket(spec)
        return spec

    def _bucket(self, tenant: str) -> TokenBucket:
        if tenant not in self._buckets:
            self._buckets[tenant] = TokenBucket(TenantSpec(
                tenant, rate=self.config.default_rate,
                burst=self.config.default_burst))
        return self._buckets[tenant]

    # -- submission --------------------------------------------------------

    def submit(self, query: Query, tenant: str = "default",
               placement: Union[Placement, str] = Placement.SMART,
               at: float = 0.0) -> QueryHandle:
        """Enqueue a query for the next gather cycle.

        ``at`` is the query's arrival offset in virtual seconds within
        the cycle. Raises :class:`~repro.errors.AdmissionRejected` when
        the tenant's pending backlog exceeds the configured bound, and
        :class:`~repro.errors.ShardUnavailable` when the query's sharded
        table references a detached device
        (:meth:`~repro.sched.scheduler.QueryScheduler.check_table`).
        """
        if not isinstance(query, Query):
            raise PlanError(
                f"submit takes a Query, got {type(query).__name__}")
        if not tenant:
            raise PlanError("tenant must be a non-empty string")
        if at < 0:
            raise PlanError(f"negative arrival offset: {at}")
        backlog = sum(1 for h in self._pending if h.tenant == tenant)
        if backlog >= self.config.max_queue_per_tenant:
            raise AdmissionRejected(
                f"tenant {tenant!r} already has {backlog} queries pending "
                f"(max_queue_per_tenant="
                f"{self.config.max_queue_per_tenant}); gather or back off")
        self.scheduler.check_table(query.table)
        handle = QueryHandle(index=self._submitted_total, query=query,
                             tenant=tenant,
                             placement=Placement.coerce(placement),
                             arrival=float(at))
        self._submitted_total += 1
        self._pending.append(handle)
        obs = self.db.sim.obs
        if obs is not None:
            obs.metrics.counter("serve.submitted", tenant=tenant).inc()
        return handle

    @property
    def pending_count(self) -> int:
        """Queries waiting for the next gather cycle."""
        return len(self._pending)

    # -- DML ---------------------------------------------------------------

    def update(self, table_name: str, predicate, assignments) -> int:
        """Write-through UPDATE via the front door; returns rows changed.

        Applies to every shard of a sharded table (a replicated table's
        copies all receive the same predicate-driven change), flushes the
        dirty pages back so device-side pushdown stays safe, and bumps
        the catalog version — invalidating every cached result for the
        table in O(1).

        The version bump is atomic across shards: every shard applies
        with its bump suppressed, and the *logical* table version rises
        exactly once after the last shard flushed — a cache entry can
        never bind a version in which some shards are new and others old.
        A replicated table's copies count once in the returned rows.
        """
        relation = self.db.catalog.relation(table_name)
        sharded = isinstance(relation, ShardedTable)
        start = self.db.sim.now
        counts = []
        for table in relation.shards if sharded else (relation,):
            counts.append(self.db.update_rows(table.name, predicate,
                                              assignments,
                                              bump_version=False))
            self.db.flush_table(table.name)
        changed = relation.logical_rows(counts) if sharded else counts[0]
        if changed:
            self.db.catalog.bump_version(table_name)
        obs = self.db.sim.obs
        if obs is not None:
            obs.metrics.counter("serve.invalidations",
                                table=table_name).inc()
            obs.metrics.histogram(
                "serve.dml_latency_seconds",
                table=table_name).observe(self.db.sim.now - start)
        return changed

    # -- the gather cycle --------------------------------------------------

    def gather(self) -> dict[str, TenantBatch]:
        """Run every pending query to completion; batches keyed by tenant.

        Deterministic: token grants are computed sequentially in
        ``(arrival, submission)`` order, cache keys bind the table
        versions current at cycle start, and the device batch runs under
        the discrete-event simulator. The scheduler's window also runs
        whatever else is pending on it, so a write ticket submitted beside
        served queries lands in the same window. Raises
        :class:`~repro.errors.ShardUnavailable` from the scheduler when a
        shard's device answers neither pushdown nor block reads.
        """
        pending, self._pending = self._pending, []
        if not pending:
            self.scheduler.gather()
            return {}
        db = self.db
        obs = db.sim.obs
        span = None
        if obs is not None:
            span = obs.span("serve.gather", track="serve",
                            queries=len(pending)).__enter__()

        # Arrival offsets count from this window's origin; the buckets
        # still count from the previous one's.
        if self._origin is not None:
            for bucket in self._buckets.values():
                bucket.rebase(db.sim.now - self._origin)
        self._origin = db.sim.now
        for handle in sorted(pending, key=lambda h: (h.arrival, h.index)):
            bucket = self._bucket(handle.tenant)
            handle.admitted_at = bucket.admit_at(handle.arrival)
            if obs is not None:
                obs.metrics.histogram(
                    "serve.qos_delay_seconds",
                    tenant=handle.tenant).observe(handle.qos_delay_seconds)

        runs = []
        catalog = db.catalog
        for handle in pending:
            key = None
            if self.config.cache_enabled:
                key = cache_key(catalog, handle.query, handle.placement)
                value = self.cache.get(key)
                if value is not MISS:
                    handle.cached = True
                    handle.report = self._hit_report(handle, value)
                    if obs is not None:
                        obs.metrics.counter("serve.cache_hits",
                                            tenant=handle.tenant).inc()
                    continue
                if obs is not None:
                    obs.metrics.counter("serve.cache_misses",
                                        tenant=handle.tenant).inc()
            # Finalize runs here, over the merged state the cache keeps.
            query = (replace(handle.query, finalize=None)
                     if handle.query.aggregates else handle.query)
            runs.append((handle, key, self.scheduler.submit(
                query, handle.placement, at=handle.admitted_at)))

        start = db.sim.now
        try:
            self.scheduler.gather()
        finally:
            if span is not None:
                span.set(cache_hits=sum(1 for h in pending if h.cached))
                span.finish()
        for handle, key, ticket in runs:
            plan = ticket.plan
            handle.fan_out = 1 if plan is None else plan.fan_out
            handle.pruned_shards = 0 if plan is None else len(
                plan.pruned_shards)
            rows = state = ticket.report.rows
            if handle.query.aggregates:
                state = merge_scatter_state(handle.query, [rows])
                rows = _finalize_aggregates(handle.query, state)
            if key is not None:
                self.cache.put(key, state)
            handle.report = replace(
                ticket.report, rows=rows,
                elapsed_seconds=ticket.done_at - start - handle.arrival)

        grouped: dict[str, list[QueryHandle]] = {}
        for handle in pending:
            grouped.setdefault(handle.tenant, []).append(handle)
            if obs is not None:
                # Hits are served queries too: without them the serving
                # histograms only described misses, and p50 latency
                # *rose* as the hit rate improved.
                obs.metrics.histogram("serve.fan_out").observe(
                    handle.fan_out)
                if handle.pruned_shards:
                    obs.metrics.counter("serve.pruned_shards").inc(
                        handle.pruned_shards)
                obs.metrics.histogram(
                    "serve.latency_seconds", tenant=handle.tenant,
                ).observe(handle.report.elapsed_seconds)
        batches = {}
        for tenant in sorted(grouped):
            sequence = self._sequences.get(tenant, 0) + 1
            self._sequences[tenant] = sequence
            batches[tenant] = TenantBatch(tenant=tenant, sequence=sequence,
                                          handles=grouped[tenant])
        return batches

    # -- result assembly ---------------------------------------------------

    def _hit_report(self, handle: QueryHandle, value: Any
                    ) -> ExecutionReport:
        """A report served from the cache in O(1) virtual time."""
        query = handle.query
        if query.aggregates:
            rows = _finalize_aggregates(query, value)
        else:
            rows = value
        return ExecutionReport(
            rows=rows,
            elapsed_seconds=self.config.cache_hit_seconds,
            placement="cache",
            device_name="host-cache",
            layout=self.db.catalog.relation(query.table).layout.value,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release backend workers (no-op for the serial backend)."""
        self.scheduler.close()

    def __enter__(self) -> "Frontend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- accounting --------------------------------------------------------

    @property
    def stats(self) -> dict:
        """Serving-layer accounting (cache, tenants, last device batch)."""
        return {
            "submitted_total": self._submitted_total,
            "pending": len(self._pending),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
            "cache_entries": len(self.cache),
            "tenants": {name: bucket.granted
                        for name, bucket in sorted(self._buckets.items())},
            "scheduler": dict(self.scheduler.stats),
            "runtime": dict(self.scheduler.runtime_stats),
        }
