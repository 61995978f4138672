"""The scheduler's first-class write path: DML as admission-controlled units.

The paper's §4.3 rules device pushdown out for "queries with any updates";
this module makes the *host-side* write path a first-class citizen of the
concurrent scheduler instead of an out-of-band maintenance call. An HTAP
batch mixes two unit kinds on the same devices:

* scan units (shared or solo) — the read side, unchanged;
* **write units** — one per :meth:`~repro.sched.QueryScheduler.submit_update`
  ticket: admission-controlled per device (a separate, smaller gate than
  scan admission, so DML cannot starve scans of their in-flight slots),
  applied through the buffer pool, and flushed through the device FTL.

Group flush: with :attr:`~repro.sched.SchedulerConfig.group_flush` on
(the default), write units on the same table batch their dirty pages —
only the *last* unit to apply its update runs the write-back, so N updates
pay one FTL flush instead of N. Every ticket still carries its own row
count and priced work; the flushing ticket additionally carries the FTL
accounting of the whole group's write-back (host page programs, GC
relocations and erases, and the resulting write amplification).

Version bookkeeping preserves the serving layer's invalidation contract:
the scheduler bumps a statement's logical table version exactly once when
its window ends (a sharded statement runs one unit per shard and still
bumps once), so result-cache entries keyed on the old version become
unreachable before any later window can read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Mapping, Optional

from repro.model.counters import WorkCounters
from repro.sim import Event

if TYPE_CHECKING:
    from repro.sched.scheduler import QueryScheduler

__all__ = ["WriteTicket", "write_unit_process"]


@dataclass
class WriteTicket:
    """One submitted DML statement: the ticket ``submit_update`` returns.

    Write tickets live in their own index space (``windex``), separate
    from query submissions — scan reports keep their positional contract
    no matter how many writes ran in the same gather window. A statement
    over a sharded table runs as one unit per shard (``shards``), folded
    back into this ticket by :meth:`absorb`.
    """

    windex: int                   # position in the window's write order
    table: str
    predicate: Any
    assignments: Mapping[str, Any]
    arrival: float
    # Filled in by gather():
    rows_changed: int = 0
    pages_flushed: int = 0
    flushed: bool = False         # this unit ran the (group) write-back
    done_at: Optional[float] = None
    admission_wait: float = 0.0   # virtual seconds queued at the write gate
    #: Priced work this unit performed (update evaluation + its share of
    #: the flush's firmware overhead).
    counters: WorkCounters = field(default_factory=WorkCounters)
    # FTL accounting of this unit's flush (zero for non-flushing members
    # of a group flush; the flusher carries the whole group's write-back):
    host_writes: int = 0          # pages the flush programmed for the host
    gc_relocations: int = 0       # live pages GC moved behind the flush
    gc_erases: int = 0            # blocks GC erased behind the flush
    shards: list["WriteTicket"] = field(default_factory=list)

    @property
    def write_amplification(self) -> float:
        """(host + GC writes) / host writes for this unit's flush window.

        0.0 when this unit did not flush (see :attr:`flushed`).
        """
        if self.host_writes == 0:
            return 0.0
        return (self.host_writes + self.gc_relocations) / self.host_writes

    def split(self, catalog: Any, first: int) -> list["WriteTicket"]:
        """The write units this statement runs as, numbered from
        ``first``: itself on a plain table, one per shard (or copy) on a
        sharded one."""
        if not catalog.is_sharded(self.table):
            self.windex = first
            return [self]
        self.shards = [WriteTicket(first + i, shard.name, self.predicate,
                                   self.assignments, self.arrival)
                       for i, shard in enumerate(
                           catalog.sharded(self.table).shards)]
        return self.shards

    def absorb(self, catalog: Any) -> None:
        """Fold the per-shard units into this statement's accounting.

        Rows changed count the logical relation
        (:meth:`~repro.host.catalog.ShardedTable.logical_rows`); page and
        FTL work sum over every unit, copies included.
        """
        shards = self.shards
        self.rows_changed = catalog.sharded(self.table).logical_rows(
            [shard.rows_changed for shard in shards])
        for name in ("pages_flushed", "host_writes", "gc_relocations",
                     "gc_erases"):
            setattr(self, name, sum(getattr(shard, name) for shard in shards))
        self.flushed = any(shard.flushed for shard in shards)
        self.admission_wait = max(shard.admission_wait for shard in shards)
        if all(shard.done_at is not None for shard in shards):
            self.done_at = max(shard.done_at for shard in shards)
        for shard in shards:
            self.counters.add(shard.counters)


def write_unit_process(scheduler: "QueryScheduler", ticket: WriteTicket,
                       countdown: dict[str, int],
                       ) -> Generator[Event, None, None]:
    """Simulation process of one scheduler write unit.

    Waits out the ticket's arrival offset, takes a write-admission slot on
    the table's device, applies the update through the buffer pool, and —
    when it is the table's last pending write unit (or group flush is
    off) — writes the dirty pages back through the FTL. ``countdown``
    maps table name to the number of write units still to apply in this
    batch; the unit that decrements it to zero flushes for the group.
    """
    from repro.host.dml import update_process

    db = scheduler.db
    sim = db.sim
    obs = sim.obs
    table = db.catalog.table(ticket.table)
    device_name = table.device_name
    if ticket.arrival:
        yield sim.timeout(ticket.arrival)
    track = f"write:{ticket.table}#{ticket.windex}"
    root = None
    if obs is not None:
        root = obs.span("write", track=track, table=ticket.table,
                        index=ticket.windex).__enter__()
    try:
        ticket.admission_wait = yield from scheduler._admit_write(
            device_name, track)
        try:
            kwargs = {}
            if scheduler.config.io_unit_pages is not None:
                kwargs["io_unit_pages"] = scheduler.config.io_unit_pages
            rows = yield from update_process(
                db, ticket.table, ticket.predicate, ticket.assignments,
                bump_version=False, counters_out=ticket.counters, **kwargs)
            ticket.rows_changed = rows
            countdown[ticket.table] -= 1
            if not scheduler.config.group_flush \
                    or countdown[ticket.table] == 0:
                yield from _flush_and_account(scheduler, ticket, kwargs)
        finally:
            scheduler._write_admission[device_name].release()
        ticket.done_at = sim.now
    finally:
        if root is not None:
            root.set(rows=ticket.rows_changed,
                     pages_flushed=ticket.pages_flushed,
                     flushed=ticket.flushed).finish()


def _flush_and_account(scheduler: "QueryScheduler", ticket: WriteTicket,
                       kwargs: dict) -> Generator[Event, None, None]:
    """Write the ticket's table back and attribute the FTL work to it.

    The firmware overhead (map updates, relocation bookkeeping, erase
    issue) is priced through the cost model and charged as synchronous
    host wait — the host blocks on the device's write acknowledgment.
    Concurrent flushes to the *same* device attribute any interleaved GC
    to whichever ticket's window covers it; totals are exact.
    """
    from repro.host.dml import flush_process

    db = scheduler.db
    table = db.catalog.table(ticket.table)
    device = db.device(table.device_name)
    ftl = getattr(device, "ftl", None)  # the HDD write path has no FTL
    before = (0, 0, 0)
    if ftl is not None:
        before = (ftl.stats.host_writes, ftl.stats.gc_relocations,
                  ftl.stats.erases)
    ticket.pages_flushed = yield from flush_process(db, ticket.table,
                                                    **kwargs)
    ticket.flushed = True
    if ftl is not None:
        ticket.host_writes = ftl.stats.host_writes - before[0]
        ticket.gc_relocations = ftl.stats.gc_relocations - before[1]
        ticket.gc_erases = ftl.stats.erases - before[2]
    overhead = WorkCounters(host_page_writes=ticket.host_writes,
                            gc_page_relocations=ticket.gc_relocations,
                            gc_block_erases=ticket.gc_erases)
    ticket.counters.add(overhead)
    cycles = db.costs.cycles(overhead)
    if cycles:
        yield from db.machine.compute(cycles)
    scheduler.stats["group_flushes"] += 1
    obs = db.sim.obs
    if obs is not None:
        obs.metrics.counter("sched.write_pages_flushed",
                            device=table.device_name).inc(
                                ticket.pages_flushed)
        obs.metrics.counter("sched.gc_relocations",
                            device=table.device_name).inc(
                                ticket.gc_relocations)
