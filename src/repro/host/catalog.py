"""Table catalog: which relations exist and where their pages live.

Beyond plain one-device tables, the catalog tracks two serving-layer
concerns:

* **Sharded tables** (:class:`ShardedTable`): one logical relation
  hash/range/round-robin partitioned across N devices, each partition a
  regular physical :class:`Table` named ``<logical>#<shard>`` — the
  scatter/gather planner (:func:`repro.host.planner.plan_scatter`)
  rewrites logical queries into per-shard pushdowns over them.
* **Table versions**: a monotonic counter per logical relation, bumped on
  any write (:func:`repro.host.dml.update_process` and the serving
  layer's sharded DML). The cross-query result cache keys on the version,
  so a bump invalidates every cached result for the table in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.errors import CatalogError, PlanError
from repro.storage import (
    DEFAULT_STATS_CONFIG,
    ExtentStats,
    HeapFile,
    Layout,
    Schema,
    StatsConfig,
    build_heap_pages,
)
from repro.storage.stats import _splitmix64


@dataclass(frozen=True)
class Table:
    """One relation: schema + heap file + owning device."""

    name: str
    heap: HeapFile
    device_name: str

    @property
    def schema(self) -> Schema:
        """The relation schema."""
        return self.heap.schema

    @property
    def layout(self) -> Layout:
        """On-page layout of the heap."""
        return self.heap.layout

    @property
    def tuple_count(self) -> int:
        """Live tuples."""
        return self.heap.tuple_count

    @property
    def page_count(self) -> int:
        """Pages in the heap file."""
        return self.heap.page_count


def hash_shard_indices(values: np.ndarray, shard_count: int) -> np.ndarray:
    """Stable hash partition: value -> shard index in ``[0, shard_count)``.

    Uses the SplitMix64 finalizer (the same mixer the Bloom filters use)
    so the assignment is deterministic across runs and platforms and
    insensitive to the key distribution — sequential keys spread evenly.
    Integer-like columns only (ints, dates, decimals in storage form).
    """
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
    """Stripe by row ordinal: row ``i`` goes to shard ``i % shard_count``."""
    if shard_count < 1:
        raise PlanError("shard count must be positive")
    return np.arange(row_count, dtype=np.int64) % shard_count


@dataclass(frozen=True)
class ShardSpec:
    """How a logical relation is split across devices.

    ``kind`` is ``"hash"`` (stable SplitMix64 of ``key``), ``"range"``
    (``key`` against sorted ``bounds``; shard i holds
    ``bounds[i-1] <= key < bounds[i]``), ``"round_robin"`` (striped by
    row ordinal; ``key``/``bounds`` unused), or ``"replicated"`` (a full
    copy on every device — for small join build/dimension tables).
    """

    kind: str = "hash"
    key: Optional[str] = None
    bounds: tuple = ()

    def __post_init__(self):
        if self.kind not in ("hash", "range", "round_robin", "replicated"):
            raise PlanError(f"unknown shard kind {self.kind!r}")
        if self.kind in ("hash", "range") and not self.key:
            raise PlanError(f"{self.kind} sharding needs a key column")

    def shard_indices(self, rows: np.ndarray,
                      shard_count: int) -> np.ndarray:
        """Row -> shard assignment for one load (partitioned kinds only)."""
        if self.kind == "replicated":
            raise PlanError("replicated tables are copied, not partitioned")
        if self.kind == "hash":
            return hash_shard_indices(rows[self.key], shard_count)
        if self.kind == "range":
            if len(self.bounds) != shard_count - 1:
                raise PlanError(
                    f"range sharding over {shard_count} shards needs "
                    f"{shard_count - 1} bounds, got {len(self.bounds)}")
            return range_shard_indices(rows[self.key], self.bounds)
        return round_robin_indices(len(rows), shard_count)


@dataclass(frozen=True)
class ShardedTable:
    """One logical relation partitioned across several devices."""

    name: str
    spec: ShardSpec
    shards: tuple[Table, ...]  # physical per-shard tables, index-aligned

    @property
    def schema(self) -> Schema:
        """The relation schema (identical on every shard)."""
        return self.shards[0].schema

    @property
    def layout(self) -> Layout:
        """On-page layout (identical on every shard)."""
        return self.shards[0].layout

    @property
    def tuple_count(self) -> int:
        """Logical live tuples (copies of a replicated table count once)."""
        return self.logical_rows([shard.tuple_count for shard in self.shards])

    def logical_rows(self, per_shard: Sequence[int]) -> int:
        """Rows of the logical relation from a per-shard count (copies of
        a replicated table count once)."""
        if self.spec.kind == "replicated":
            return per_shard[0]
        return sum(per_shard)

    @property
    def device_names(self) -> tuple[str, ...]:
        """Owning device of each shard, index-aligned."""
        return tuple(shard.device_name for shard in self.shards)

    def shard_key_range(self, index: int):
        """(lo, hi_exclusive) key bounds of shard ``index`` for range
        sharding (a ``None`` end is unbounded); ``None`` for every other
        kind, where no per-shard key range is known."""
        if self.spec.kind != "range":
            return None
        lo = self.spec.bounds[index - 1] if index > 0 else None
        hi = (self.spec.bounds[index]
              if index < len(self.spec.bounds) else None)
        return (lo, hi)


def shard_table_name(logical: str, index: int) -> str:
    """The physical catalog name of one shard of a logical table."""
    return f"{logical}#{index}"


class Catalog:
    """Name -> :class:`Table` registry with loading helpers."""

    def __init__(self):
        self._tables: dict[str, Table] = {}
        self._sharded: dict[str, ShardedTable] = {}
        #: Monotonic content version per logical relation name.
        self._versions: dict[str, int] = {}
        #: Physical shard name -> owning logical sharded-table name.
        self._shard_parent: dict[str, str] = {}
        self._next_table_id = 1

    def create_table(self, name: str, schema: Schema, layout: Layout,
                     rows: np.ndarray | Iterable[Sequence[Any]],
                     device: Any,
                     stats_config: StatsConfig | None = DEFAULT_STATS_CONFIG,
                     ) -> Table:
        """Build heap pages from rows and load them onto ``device``.

        ``rows`` may be a structured array with the schema dtype or an
        iterable of Python tuples. Loading is untimed (staging, not the
        experiment). The device must expose ``load_extent`` and have a
        ``spec.name``.

        For PAX tables on stats-capable devices, per-page statistics are
        computed from the same rows and registered with the device so its
        scan programs can skip non-qualifying pages; pass
        ``stats_config=None`` to load without statistics.
        """
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        if not isinstance(rows, np.ndarray):
            rows = schema.rows_to_array(rows)
        table_id = self._next_table_id
        self._next_table_id += 1
        pages = build_heap_pages(schema, rows, layout, table_id=table_id)
        first_lpn = device.load_extent(pages)
        if (stats_config is not None and layout is Layout.PAX
                and hasattr(device, "register_extent_stats")):
            device.register_extent_stats(first_lpn, ExtentStats.from_rows(
                schema, rows, layout, stats_config))
        heap = HeapFile(schema=schema, layout=layout, first_lpn=first_lpn,
                        page_count=len(pages), tuple_count=len(rows),
                        table_id=table_id)
        table = Table(name=name, heap=heap, device_name=device.spec.name)
        self._tables[name] = table
        return table

    def create_table_from_pages(self, name: str, schema: Schema,
                                layout: Layout, pages: Sequence[bytes],
                                tuple_count: int, device: Any,
                                table_id: int | None = None,
                                extent_stats: ExtentStats | None = None,
                                ) -> Table:
        """Load pre-encoded heap pages onto ``device`` and register them.

        The fast path behind the workload build cache: pages are immutable
        ``bytes``, so an extent encoded once can be loaded into any number
        of independent worlds. ``table_id`` must match the id the pages
        were encoded with (it is stamped into every page header); the
        catalog's id counter advances past it so later tables never
        collide.
        """
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        if table_id is None:
            table_id = self._next_table_id
        self._next_table_id = max(self._next_table_id, table_id + 1)
        first_lpn = device.load_extent(pages)
        if (extent_stats is not None
                and hasattr(device, "register_extent_stats")):
            device.register_extent_stats(first_lpn, extent_stats)
        heap = HeapFile(schema=schema, layout=layout, first_lpn=first_lpn,
                        page_count=len(pages), tuple_count=tuple_count,
                        table_id=table_id)
        table = Table(name=name, heap=heap, device_name=device.spec.name)
        self._tables[name] = table
        return table

    def create_sharded_table(self, name: str, schema: Schema, layout: Layout,
                             rows: np.ndarray | Iterable[Sequence[Any]],
                             devices: Sequence[Any],
                             spec: ShardSpec | None = None,
                             stats_config: StatsConfig | None =
                             DEFAULT_STATS_CONFIG) -> ShardedTable:
        """Partition ``rows`` across ``devices`` as one logical relation.

        Each partition loads as a regular physical table named
        ``<name>#<i>`` on device ``i`` (with per-page statistics, like any
        other table), and the logical name resolves through
        :meth:`sharded`. ``spec`` defaults to hash sharding when it names
        a key, otherwise round-robin striping.
        """
        if name in self._tables or name in self._sharded:
            raise CatalogError(f"table {name!r} already exists")
        if not devices:
            raise PlanError("sharded table needs at least one device")
        spec = spec or ShardSpec(kind="round_robin")
        if not isinstance(rows, np.ndarray):
            rows = schema.rows_to_array(rows)
        if spec.key is not None:
            schema.column_index(spec.key)  # validate early
        if spec.kind == "replicated":
            assignment = None  # every device gets the full relation
        else:
            assignment = spec.shard_indices(rows, len(devices))
        shards = []
        for index, device in enumerate(devices):
            part = rows if assignment is None else rows[assignment == index]
            shards.append(self.create_table(
                shard_table_name(name, index), schema, layout,
                part, device, stats_config=stats_config))
        sharded = ShardedTable(name=name, spec=spec, shards=tuple(shards))
        self._sharded[name] = sharded
        for shard in shards:
            self._shard_parent[shard.name] = name
        return sharded

    def sharded(self, name: str) -> ShardedTable:
        """Look a sharded table up by its logical name."""
        try:
            return self._sharded[name]
        except KeyError:
            raise CatalogError(
                f"unknown sharded table {name!r}; have "
                f"{sorted(self._sharded)}") from None

    def relation(self, name: str):
        """The :class:`ShardedTable` or plain :class:`Table` a logical name
        denotes; raises :class:`~repro.errors.CatalogError` when unknown."""
        if name in self._sharded:
            return self._sharded[name]
        return self.table(name)

    def is_sharded(self, name: str) -> bool:
        """True when ``name`` is a logical sharded relation."""
        return name in self._sharded

    def sharded_names(self) -> list[str]:
        """All logical sharded-table names, sorted."""
        return sorted(self._sharded)

    # -- content versions --------------------------------------------------

    def version(self, name: str) -> int:
        """Monotonic content version of a logical relation (0 = pristine).

        Physical shard names resolve to their owning logical table, so a
        write through any path observes one coherent version.
        """
        return self._versions.get(self._shard_parent.get(name, name), 0)

    def bump_version(self, name: str) -> int:
        """Record a write to a relation; returns the new version.

        Every cross-query cache entry keyed on the old version becomes
        unreachable, which is the serving layer's whole invalidation
        story (see ``docs/SERVING.md``).
        """
        logical = self._shard_parent.get(name, name)
        self._versions[logical] = self._versions.get(logical, 0) + 1
        return self._versions[logical]

    def register(self, table: Table) -> None:
        """Register an externally-built table descriptor."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look a table up by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; have {sorted(self._tables)}"
            ) from None

    def drop(self, name: str) -> None:
        """Remove a table from the catalog (pages are left on the device)."""
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name]

    def names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables
