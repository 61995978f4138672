"""Byte-level storage layer: column types, schemas, page layouts, heap files.

Pages are real ``bytes`` of a fixed :data:`~repro.storage.page.PAGE_SIZE`.
Two layouts are implemented, mirroring the paper's §4.1.1:

* **NSM** (:mod:`repro.storage.nsm`) — the traditional slotted page, records
  stored contiguously with a slot directory at the page tail.
* **PAX** (:mod:`repro.storage.pax`) — Ailamaki et al.'s Partition Attributes
  Across layout: one minipage per column inside each page, so a reader that
  needs only a few columns touches only their minipages.

All record fields are fixed-width (the paper replaces variable-length columns
with fixed-length chars, stores decimals ×100 as integers, and dates as days
since an epoch), which lets both codecs round-trip via NumPy structured
arrays with zero copies on decode.
"""

from repro.storage.heapfile import HeapFile, build_heap_pages, unit_lpn_runs
from repro.storage.layout import (
    Layout,
    decode_columns,
    decode_page,
    encode_page,
    encode_pages,
)
from repro.storage.page import PAGE_SIZE, PageHeader
from repro.storage.schema import Column, Schema
from repro.storage.stats import (
    DEFAULT_STATS_CONFIG,
    BloomFilter,
    ColumnStats,
    ExtentStats,
    PageStats,
    StatsConfig,
)
from repro.storage.types import (
    CharType,
    ColumnType,
    DateType,
    DecimalType,
    Int32Type,
    Int64Type,
)
from repro.storage.unitdecode import UnitColumns

__all__ = [
    "BloomFilter",
    "CharType",
    "Column",
    "ColumnStats",
    "ColumnType",
    "DEFAULT_STATS_CONFIG",
    "DateType",
    "DecimalType",
    "ExtentStats",
    "HeapFile",
    "Int32Type",
    "Int64Type",
    "Layout",
    "PAGE_SIZE",
    "PageHeader",
    "PageStats",
    "Schema",
    "StatsConfig",
    "UnitColumns",
    "build_heap_pages",
    "decode_columns",
    "decode_page",
    "encode_page",
    "encode_pages",
    "unit_lpn_runs",
]
