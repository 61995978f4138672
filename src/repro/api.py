"""The top-level facade: ``repro.connect(config) -> Session``.

A :class:`Session` is the one front door for query execution. It wraps a
:class:`~repro.host.db.Database`, takes placements as the
:class:`~repro.engine.plans.Placement` enum, accepts either a built
:class:`~repro.engine.plans.Query` or a SQL string, and is a context
manager::

    import repro

    with repro.connect(observability=True) as session:
        session.db.create_smart_ssd()
        ...create tables...
        report = session.execute(
            "SELECT sum(l_extendedprice) FROM lineitem",
            placement=repro.Placement.SMART)

Three execution styles share one code path, for plain and sharded tables:

* :meth:`Session.execute` — one query, synchronously: a one-submission
  window of the concurrent :class:`~repro.sched.QueryScheduler`;
* :meth:`Session.submit` / :meth:`Session.gather` — batched, future-style
  tickets through the session's one scheduler;
* :meth:`Session.serve` — the multi-tenant serving layer
  (:class:`repro.serve.Frontend`) on that same scheduler: per-tenant
  token-bucket QoS and the cross-query result cache. Once serving is
  active, ``submit(..., tenant="a")`` returns
  :class:`~repro.serve.QueryHandle` tickets and
  :meth:`Session.gather_batches` yields versioned per-tenant
  :class:`~repro.serve.TenantBatch` results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Union

import numpy as np

from repro.engine.plans import Placement, Query
from repro.errors import ServingError
from repro.host.db import Database, DatabaseConfig
from repro.model.report import ExecutionReport
from repro.storage import Layout, Schema

if TYPE_CHECKING:
    from repro.sched import QueryScheduler, SchedulerConfig
    from repro.serve import Frontend, ServeConfig, TenantBatch, TenantSpec


class Session:
    """A connection-like handle over one simulated database world."""

    def __init__(self, db: Database,
                 scheduler_config: Optional["SchedulerConfig"] = None):
        self.db = db
        self._scheduler_config = scheduler_config
        self._scheduler: Optional["QueryScheduler"] = None
        self._frontend: Optional["Frontend"] = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """End the session and its scheduler's workers (idempotent).
        Further execution calls raise."""
        self._closed = True
        if self._scheduler is not None:
            self._scheduler.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServingError("session is closed")

    # -- setup conveniences (thin delegation) ------------------------------

    @property
    def obs(self):
        """The attached :class:`repro.obs.Observability`, or None."""
        return self.db.obs

    def create_table(self, name: str, schema: Schema, layout: Layout,
                     rows: Union[np.ndarray, Iterable[Sequence[Any]]],
                     device_name: str):
        """Create and bulk-load a heap table on the named device."""
        return self.db.create_table(name, schema, layout, rows, device_name)

    def create_sharded_table(self, name: str, schema: Schema, layout: Layout,
                             rows: Union[np.ndarray, Iterable[Sequence[Any]]],
                             device_names: Sequence[str],
                             spec: Optional[Any] = None):
        """Partition one logical relation across several named devices."""
        return self.db.create_sharded_table(name, schema, layout, rows,
                                            device_names, spec=spec)

    # -- execution ---------------------------------------------------------

    def compile(self, statement: str) -> Query:
        """Parse and bind a SQL SELECT into a :class:`Query`."""
        from repro.sql import compile_sql
        return compile_sql(statement, self.db.catalog)

    def _coerce_query(self, query_or_sql: Union[Query, str]) -> Query:
        if isinstance(query_or_sql, str):
            return self.compile(query_or_sql)
        if not isinstance(query_or_sql, Query):
            raise TypeError(
                f"Session takes a Query or a SQL string, "
                f"got {type(query_or_sql).__name__}")
        return query_or_sql

    def execute(self, query_or_sql: Union[Query, str],
                placement: Union[Placement, str] = Placement.HOST,
                io_unit_pages: Optional[int] = None,
                window: Optional[int] = None) -> ExecutionReport:
        """Execute a built :class:`Query` or a SQL string.

        ``placement`` is a :class:`Placement` (its wire strings are coerced);
        ``Placement.AUTO`` defers to the cost-based optimizer. The query
        runs in a scheduler window of its own: submissions pending on
        :attr:`scheduler` stay pending until :meth:`gather`.
        """
        self._check_open()
        return self.db.execute_placed(self._coerce_query(query_or_sql),
                                      placement,
                                      io_unit_pages=io_unit_pages,
                                      window=window)

    def explain(self, query_or_sql: Union[Query, str],
                placement: Union[Placement, str] = Placement.SMART) -> str:
        """Render the physical plan for a query or SQL string (a sharded
        table's adds a scatter line above its first shard's plan)."""
        self._check_open()
        return self.db.explain(query_or_sql, placement=placement)

    # -- DML ---------------------------------------------------------------

    def update(self, table_name: str, predicate, assignments) -> int:
        """UPDATE ... SET ... WHERE; returns the number of rows changed.

        With serving active this is the write-through front door
        (:meth:`repro.serve.Frontend.update`): every shard is updated and
        flushed, and the table version bump invalidates the result cache.
        Without serving it is the plain buffer-pool update of a plain
        table — call :meth:`flush_table` before device pushdown;
        :meth:`submit_update` is the door for a sharded one.
        """
        self._check_open()
        if self._frontend is not None:
            return self._frontend.update(table_name, predicate, assignments)
        return self.db.update_rows(table_name, predicate, assignments)

    def flush_table(self, table_name: str) -> int:
        """Write a table's dirty pages back; returns pages flushed."""
        self._check_open()
        return self.db.flush_table(table_name)

    def submit_update(self, table_name: str, predicate, assignments,
                      at: float = 0.0):
        """Enqueue an UPDATE for the next :meth:`gather`; returns its ticket.

        The statement runs as a first-class scheduler write unit
        (:mod:`repro.writepath`): per-device write admission alongside
        scan admission, group-flushed dirty-page write-back, and FTL
        write-amplification accounting on the returned
        :class:`~repro.writepath.WriteTicket`. ``at`` is the arrival
        offset in virtual seconds. On a sharded table the statement runs
        one write unit per shard. With serving active it runs in the same
        window as the served queries.
        """
        self._check_open()
        return self.scheduler.submit_update(table_name, predicate,
                                            assignments, at=at)

    # -- scheduled / served execution --------------------------------------

    @property
    def scheduler(self) -> "QueryScheduler":
        """The session's :class:`~repro.sched.QueryScheduler` (lazy)."""
        if self._scheduler is None:
            from repro.sched import QueryScheduler
            self._scheduler = QueryScheduler(self.db,
                                             self._scheduler_config)
        return self._scheduler

    def serve(self, config: Optional["ServeConfig"] = None,
              tenants: tuple["TenantSpec", ...] = ()) -> "Frontend":
        """Activate (or return) the multi-tenant serving layer.

        After this, :meth:`submit` routes through the
        :class:`~repro.serve.Frontend` — per-tenant token-bucket QoS and
        the cross-query result cache — on the session's own
        :attr:`scheduler`, and :meth:`gather_batches` returns the
        versioned per-tenant batches. ``config.backend`` configures that
        scheduler if it does not exist yet; if it does, with another
        backend, this raises :class:`~repro.errors.ServingError`.
        """
        self._check_open()
        if self._frontend is None:
            from repro.serve import Frontend
            backend = config.backend if config is not None else None
            if backend is not None and self._scheduler is None:
                from repro.sched import SchedulerConfig
                self._scheduler_config = replace(
                    self._scheduler_config or SchedulerConfig(),
                    backend=backend)
            if backend not in (None, self.scheduler.config.backend):
                raise ServingError(
                    f"the session's scheduler already runs the "
                    f"{self.scheduler.config.backend!r} backend, not "
                    f"{backend!r}")
            self._frontend = Frontend(self.db, config, tenants=tenants,
                                      scheduler=self.scheduler)
        elif config is not None and config is not self._frontend.config:
            raise ServingError(
                "serving is already active with a different config")
        else:
            for spec in tenants:
                self._frontend.register_tenant(spec)
        return self._frontend

    @property
    def frontend(self) -> Optional["Frontend"]:
        """The active serving frontend, or None before :meth:`serve`."""
        return self._frontend

    def submit(self, query_or_sql: Union[Query, str],
               placement: Union[Placement, str] = Placement.SMART,
               at: float = 0.0, tenant: Optional[str] = None):
        """Enqueue a query for the next :meth:`gather`; returns its ticket.

        ``at`` is the query's arrival offset in virtual seconds from the
        start of the next gather window. Passing ``tenant`` (or having
        called :meth:`serve`) routes through the serving frontend and
        returns a :class:`~repro.serve.QueryHandle`; otherwise the plain
        scheduler ticket is returned. Nothing executes until
        :meth:`gather`.
        """
        self._check_open()
        query = self._coerce_query(query_or_sql)
        if tenant is not None or self._frontend is not None:
            return self.serve().submit(query, tenant=tenant or "default",
                                       placement=placement, at=at)
        return self.scheduler.submit(query, placement, at=at)

    def gather(self) -> list[ExecutionReport]:
        """Run every pending ticket in one window; reports in order.

        Queries on the same device pass admission control (bounded
        in-flight executions); concurrently admitted queries over the same
        table extent share one device-side scan; pending
        :meth:`submit_update` tickets run in the same window. A lone
        immediate submission is bit-identical to :meth:`execute`. With
        serving active the cycle additionally applies tenant QoS and the
        result cache (use :meth:`gather_batches` for the per-tenant view);
        reports of queries submitted before :meth:`serve` come first.
        """
        self._check_open()
        if self._frontend is None:
            return self.scheduler.gather()
        unserved = list(self.scheduler.submissions)
        served = sorted((handle for batch in self._frontend.gather().values()
                         for handle in batch.handles),
                        key=lambda handle: handle.index)
        return [ticket.report for ticket in unserved + served]

    def gather_batches(self) -> dict[str, "TenantBatch"]:
        """Run every pending serve-submission; batches keyed by tenant.

        Each tenant's batch carries a ``sequence`` number that increments
        per cycle, so consumers can detect dropped batches. Requires
        :meth:`serve` (or a tenant-tagged :meth:`submit`) first.
        """
        self._check_open()
        if self._frontend is None:
            raise ServingError(
                "serving is not active; call Session.serve() or submit "
                "with a tenant first")
        return self._frontend.gather()


def connect(config: Optional[DatabaseConfig] = None, *,
            observability: bool = False,
            scheduler: Optional["SchedulerConfig"] = None) -> Session:
    """Open a fresh simulated world and return a :class:`Session` on it.

    ``observability=True`` attaches a :class:`repro.obs.Observability`
    up front, so every subsequent execution records spans and metrics.
    ``scheduler`` configures the session's query scheduler
    (:class:`repro.sched.SchedulerConfig`; default: FIFO admission, 4
    in-flight per device, scan sharing on).
    """
    db = Database(config)
    if observability:
        db.enable_observability()
    return Session(db, scheduler_config=scheduler)
