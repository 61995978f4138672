"""Encode-time per-page statistics for data skipping (zone maps + Blooms).

Smart SSD scans win by shrinking data movement; per-page statistics let the
device shrink it further by never issuing the flash read at all. For every
PAX page of an extent we keep a :class:`PageStats` record: the tuple count,
a min/max *zone map* per column, and (optionally) a seeded Bloom filter per
configured column for equality probes. The catalog computes an
:class:`ExtentStats` at load time from the same rows it encodes, registers
it with the device (firmware-resident metadata, alongside the extent map),
and the device scan programs consult it once per scan, as one page mask over
the extent, before building each unit's flash command list.

Statistics are *conservative*: a page whose stats say "cannot match" is
guaranteed to hold no qualifying tuple (zone maps bound every stored value;
Bloom filters have no false negatives). The reverse is not promised — a page
may be read and then yield nothing. Pruning therefore never changes query
results, only the set of NAND reads issued.

All record fields are fixed-width and non-nullable in this storage layer, so
``null_count`` is carried for format completeness but is always zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.errors import StorageError
from repro.storage.layout import Layout, decode_columns, tuples_per_page
from repro.storage.page import PageHeader
from repro.storage.schema import Schema

Scalar = Union[int, float, bytes]

#: Column kinds that can carry a Bloom filter (integer-backed types only:
#: Int32/Int64/Date/Decimal all store as signed integers).
_BLOOM_KINDS = ("i", "u")

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class StatsConfig:
    """Knobs for encode-time page statistics.

    Attributes:
        bloom_columns: which columns get per-page Bloom filters. ``()``
            (the default) disables Blooms entirely; ``None`` auto-selects
            every integer-backed column; a tuple of names selects exactly
            those columns.
        bloom_bits_per_value: filter bits budgeted per distinct value.
        bloom_hashes: number of hash probes per value (``k``).
        bloom_seed: seed mixed into both hash streams, so two extents with
            identical data still produce distinct filters when reseeded.
    """

    bloom_columns: Optional[tuple[str, ...]] = ()
    bloom_bits_per_value: int = 10
    bloom_hashes: int = 4
    bloom_seed: int = 0x5EED

    def __post_init__(self):
        if self.bloom_bits_per_value < 1:
            raise StorageError("bloom_bits_per_value must be positive")
        if self.bloom_hashes < 1:
            raise StorageError("bloom_hashes must be positive")

    def false_positive_bound(self) -> float:
        """Analytic false-positive probability for a full filter.

        The classic bound ``(1 - e^{-k/b})^k`` with ``b`` bits per value and
        ``k`` hashes; the defaults (10 bits, 4 hashes) give ~1.2%.
        """
        k = self.bloom_hashes
        return (1.0 - math.exp(-k / self.bloom_bits_per_value)) ** k

    def resolve_bloom_columns(self, schema: Schema) -> tuple[str, ...]:
        """The concrete Bloom column set for ``schema``.

        Explicit names are validated (must exist and be integer-backed);
        ``None`` picks every integer-backed column; ``()`` picks nothing.
        """
        if self.bloom_columns is None:
            return tuple(
                c.name for c in schema.columns
                if np.dtype(c.ctype.numpy_dtype).kind in _BLOOM_KINDS)
        for name in self.bloom_columns:
            kind = np.dtype(schema.column(name).ctype.numpy_dtype).kind
            if kind not in _BLOOM_KINDS:
                raise StorageError(
                    f"column {name!r} is not integer-backed; Bloom filters "
                    f"only apply to integer-backed columns")
        return tuple(self.bloom_columns)


DEFAULT_STATS_CONFIG = StatsConfig()


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (vectorized, wrapping)."""
    with np.errstate(over="ignore"):
        x = (x + _SPLITMIX_GAMMA)
        x = (x ^ (x >> np.uint64(30))) * _SPLITMIX_M1
        x = (x ^ (x >> np.uint64(27))) * _SPLITMIX_M2
        return x ^ (x >> np.uint64(31))


def _as_uint64(values: np.ndarray) -> np.ndarray:
    """Reinterpret integer values as uint64 words (sign-preserving bits)."""
    return np.ascontiguousarray(values, dtype=np.int64).view(np.uint64)


class BloomFilter:
    """A seeded Bloom filter over one page's values for one column.

    Double hashing (Kirsch–Mitzenmacher): two SplitMix64 streams give
    ``h_i = h1 + i*h2`` probe positions. No false negatives by
    construction; the false-positive rate is bounded by
    :meth:`StatsConfig.false_positive_bound`.
    """

    __slots__ = ("words", "bit_count", "hashes", "seed")

    def __init__(self, words: np.ndarray, bit_count: int, hashes: int,
                 seed: int):
        self.words = words
        self.bit_count = bit_count
        self.hashes = hashes
        self.seed = seed

    @classmethod
    def from_values(cls, values: np.ndarray, bits_per_value: int,
                    hashes: int, seed: int) -> "BloomFilter":
        distinct = np.unique(np.ascontiguousarray(values, dtype=np.int64))
        bit_count = max(64, int(len(distinct)) * bits_per_value)
        word_count = (bit_count + 63) // 64
        words = np.zeros(word_count, dtype=np.uint64)
        if len(distinct):
            h1, h2 = cls._hash_pair(_as_uint64(distinct), seed)
            with np.errstate(over="ignore"):
                for i in range(hashes):
                    bits = (h1 + np.uint64(i) * h2) % np.uint64(bit_count)
                    np.bitwise_or.at(
                        words, (bits >> np.uint64(6)).astype(np.intp),
                        np.uint64(1) << (bits & np.uint64(63)))
        return cls(words, bit_count, hashes, seed)

    @staticmethod
    def _hash_pair(keys: np.ndarray, seed: int):
        with np.errstate(over="ignore"):
            h1 = _splitmix64(keys ^ np.uint64(seed))
            h2 = _splitmix64(keys ^ _splitmix64(
                np.asarray([seed], dtype=np.uint64))[0])
        return h1, h2 | np.uint64(1)

    def might_contain(self, value: int) -> bool:
        """True unless the filter proves ``value`` is absent."""
        key = _as_uint64(np.asarray([value]))
        h1, h2 = self._hash_pair(key, self.seed)
        with np.errstate(over="ignore"):
            for i in range(self.hashes):
                bit = int((h1[0] + np.uint64(i) * h2[0])
                          % np.uint64(self.bit_count))
                if not (int(self.words[bit >> 6]) >> (bit & 63)) & 1:
                    return False
        return True

    @property
    def nbytes(self) -> int:
        """Metadata footprint of this filter."""
        return self.words.nbytes


class ColumnStats(NamedTuple):
    """Zone map for one column of one page: inclusive [vmin, vmax] bounds.

    A NamedTuple rather than a dataclass: extents construct one per column
    per page (64-column schemas build hundreds of thousands at load time),
    and tuple construction is several times cheaper than frozen-dataclass
    ``__init__``.
    """

    vmin: Scalar
    vmax: Scalar
    null_count: int = 0


class ZoneVectors(NamedTuple):
    """One column's zone maps across an extent (:meth:`ExtentStats.zone`)."""

    present: Optional[np.ndarray]
    vmin: np.ndarray
    vmax: np.ndarray


@dataclass(frozen=True)
class PageStats:
    """Statistics for a single page: tuple count, zone maps, Blooms."""

    tuple_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    blooms: dict[str, BloomFilter] = field(default_factory=dict)


def _minmax(values: np.ndarray) -> tuple[Scalar, Scalar]:
    """Python-scalar (min, max) of a column slice; handles bytes columns."""
    if values.dtype.kind in "iuf":
        return values.min().item(), values.max().item()
    items = values.tolist()
    return min(items), max(items)


def _page_stats(schema: Schema, columns: dict[str, np.ndarray],
                tuple_count: int, config: StatsConfig,
                bloom_columns: tuple[str, ...]) -> PageStats:
    """Build one page's stats from its decoded columns."""
    if tuple_count == 0:
        return PageStats(0)
    zone = {name: ColumnStats(*_minmax(values))
            for name, values in columns.items()}
    blooms = {name: BloomFilter.from_values(
        columns[name], config.bloom_bits_per_value,
        config.bloom_hashes, config.bloom_seed)
        for name in bloom_columns}
    return PageStats(tuple_count, zone, blooms)


class ExtentStats:
    """Per-page statistics for a whole extent, in page order.

    Built once at load time from the same rows the codec encodes
    (:meth:`from_rows`, vectorized), or recovered from encoded pages
    (:meth:`from_pages`). :meth:`refresh` keeps a page's entry current when
    the buffer pool flushes an updated page back to the device.

    Pruning reads the statistics column-wise: :attr:`tuple_counts` and
    :meth:`zone` are page-order vectors, built on first use and patched in
    place by :meth:`refresh`.
    """

    __slots__ = ("schema", "config", "_bloom_columns", "_pages", "version",
                 "_tuple_counts", "_zones")

    def __init__(self, schema: Schema, config: StatsConfig,
                 pages: list[PageStats]):
        self.schema = schema
        self.config = config
        self._bloom_columns = config.resolve_bloom_columns(schema)
        self._pages = pages
        #: Bumped by every :meth:`refresh`; vector consumers key on it.
        self.version = 0
        self._tuple_counts: Optional[np.ndarray] = None
        self._zones: dict[str, Optional[ZoneVectors]] = {}

    @classmethod
    def from_rows(cls, schema: Schema, rows: np.ndarray, layout: Layout,
                  config: StatsConfig = DEFAULT_STATS_CONFIG,
                  ) -> "ExtentStats":
        """Compute stats for the extent ``rows`` will encode into.

        Page geometry mirrors :func:`repro.storage.heapfile.build_heap_pages`
        exactly (an empty relation still owns one empty page). Zone maps for
        numeric columns are reduced with one ``ufunc.reduceat`` call per
        column, not a per-page Python loop.
        """
        if rows.dtype != schema.numpy_dtype():
            raise StorageError(
                f"rows dtype {rows.dtype} does not match schema {schema!r}")
        capacity = tuples_per_page(layout, schema)
        n = len(rows)
        page_count = max(1, -(-n // capacity))
        if n == 0:
            return cls(schema, config, [PageStats(0)])

        offsets = np.arange(page_count) * capacity
        mins: dict[str, list] = {}
        maxs: dict[str, list] = {}
        for column in schema.columns:
            values = np.ascontiguousarray(rows[column.name])
            if values.dtype.kind in "iuf":
                mins[column.name] = np.minimum.reduceat(
                    values, offsets).tolist()
                maxs[column.name] = np.maximum.reduceat(
                    values, offsets).tolist()
            else:
                items = values.tolist()
                chunks = [items[off:off + capacity] for off in offsets]
                mins[column.name] = [min(c) for c in chunks]
                maxs[column.name] = [max(c) for c in chunks]

        bloom_columns = config.resolve_bloom_columns(schema)
        # Build the per-page zone dicts column-wise: one C-level map() of
        # ColumnStats per column, then zip the rows together — the same
        # dicts a per-page comprehension would build, minus the Python
        # double-indexing loop.
        names = schema.names
        per_column = [list(map(ColumnStats, mins[name], maxs[name]))
                      for name in names]
        zones = [dict(zip(names, row)) for row in zip(*per_column)]
        pages = []
        for index in range(page_count):
            lo = index * capacity
            count = min(capacity, n - lo)
            blooms = {name: BloomFilter.from_values(
                rows[name][lo:lo + count], config.bloom_bits_per_value,
                config.bloom_hashes, config.bloom_seed)
                for name in bloom_columns}
            pages.append(PageStats(count, zones[index], blooms))
        return cls(schema, config, pages)

    @classmethod
    def from_pages(cls, schema: Schema, pages: list[bytes],
                   config: StatsConfig = DEFAULT_STATS_CONFIG,
                   ) -> "ExtentStats":
        """Recover stats by decoding already-encoded pages."""
        bloom_columns = config.resolve_bloom_columns(schema)
        stats = []
        for page in pages:
            header = PageHeader.decode(page)
            columns = decode_columns(schema, page, schema.names,
                                     header=header)
            stats.append(_page_stats(schema, columns, header.tuple_count,
                                     config, bloom_columns))
        return cls(schema, config, stats)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    def page(self, index: int) -> PageStats:
        """Stats for page ``index`` (0-based within the extent)."""
        return self._pages[index]

    @property
    def tuple_counts(self) -> np.ndarray:
        """Every page's tuple count, in page order."""
        if self._tuple_counts is None:
            self._tuple_counts = np.array(
                [page.tuple_count for page in self._pages], dtype=np.int64)
        return self._tuple_counts

    def zone(self, name: str) -> Optional[ZoneVectors]:
        """Column ``name``'s zone maps as page-order vectors, or ``None``
        when no page has statistics for it.

        ``vmin``/``vmax`` are object arrays of the same Python scalars the
        per-page :class:`ColumnStats` hold, so comparisons against them
        behave exactly like scalar ones. Pages without an entry for the
        column are flagged in ``present`` (``None`` when every page has
        one) and carry a filler bound copied from a page that does.
        """
        if name not in self._zones:
            self._zones[name] = self._build_zone(name)
        return self._zones[name]

    def _build_zone(self, name: str) -> Optional[ZoneVectors]:
        entries = [page.columns.get(name) for page in self._pages]
        filler = next((entry for entry in entries if entry is not None),
                      None)
        if filler is None:
            return None
        present = None
        if any(entry is None for entry in entries):
            present = np.array([entry is not None for entry in entries])
            entries = [filler if entry is None else entry
                       for entry in entries]
        vmin = np.empty(len(entries), dtype=object)
        vmax = np.empty(len(entries), dtype=object)
        vmin[:] = [entry.vmin for entry in entries]
        vmax[:] = [entry.vmax for entry in entries]
        return ZoneVectors(present, vmin, vmax)

    def refresh(self, index: int, page: bytes) -> None:
        """Recompute one page's stats after an in-place page rewrite."""
        header = PageHeader.decode(page)
        columns = decode_columns(self.schema, page, self.schema.names,
                                 header=header)
        fresh = self._pages[index] = _page_stats(
            self.schema, columns, header.tuple_count, self.config,
            self._bloom_columns)
        self.version += 1
        if self._tuple_counts is not None:
            self._tuple_counts[index] = fresh.tuple_count
        for name, zone in list(self._zones.items()):
            entry = fresh.columns.get(name)
            if (entry is None or zone is None
                    or (zone.present is not None and not zone.present[index])):
                # Presence may change: rebuild this column on next use.
                del self._zones[name]
            else:
                zone.vmin[index] = entry.vmin
                zone.vmax[index] = entry.vmax

    def copy(self) -> "ExtentStats":
        """A shallow copy safe to hand to an independent simulated world.

        :class:`PageStats` entries are immutable; :meth:`refresh` replaces
        entries rather than mutating them, so copies never alias updates.
        """
        return ExtentStats(self.schema, self.config, list(self._pages))

    @property
    def nbytes(self) -> int:
        """Approximate metadata footprint (zone maps + Bloom words)."""
        zone = sum(
            sum(self.schema.column(name).nbytes * 2
                for name in page.columns)
            for page in self._pages)
        blooms = sum(b.nbytes for page in self._pages
                     for b in page.blooms.values())
        return zone + blooms
