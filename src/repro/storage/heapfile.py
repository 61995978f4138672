"""Heap files: a relation stored as a run of pages over a logical extent.

The paper loads its tables as SQL Server heap tables (no clustered index);
pages are laid out sequentially, which is what makes device-side scans
sequential-read-bandwidth bound. :func:`build_heap_pages` turns a structured
array of rows into encoded pages; :class:`HeapFile` is the catalog-side
descriptor (where the pages live, how many, which layout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import StorageError
from repro.storage.layout import Layout, encode_pages, tuples_per_page
from repro.storage.schema import Schema


def build_heap_pages(schema: Schema, rows: np.ndarray, layout: Layout,
                     table_id: int = 0) -> list[bytes]:
    """Encode all rows into a list of full pages (last page may be partial).

    An empty relation still owns one (empty) page, so scans and extent
    bookkeeping never special-case zero pages. The whole extent is encoded
    in one vectorized pass (:func:`repro.storage.layout.encode_pages`).
    """
    if rows.dtype != schema.numpy_dtype():
        raise StorageError(
            f"rows dtype {rows.dtype} does not match schema {schema!r}")
    return encode_pages(layout, schema, rows, table_id=table_id)


@dataclass(frozen=True)
class HeapFile:
    """Descriptor of a relation's on-device page run.

    Attributes:
        schema: the relation schema.
        layout: NSM or PAX.
        first_lpn: first logical page number of the extent.
        page_count: pages in the extent.
        tuple_count: total live tuples.
        table_id: catalog id.
    """

    schema: Schema
    layout: Layout
    first_lpn: int
    page_count: int
    tuple_count: int
    table_id: int

    @property
    def nbytes(self) -> int:
        """Total bytes occupied on the device."""
        from repro.storage.page import PAGE_SIZE
        return self.page_count * PAGE_SIZE

    @property
    def tuples_per_page(self) -> int:
        """Record capacity of each full page."""
        return tuples_per_page(self.layout, self.schema)

    def lpns(self) -> Iterator[int]:
        """Logical page numbers of the extent, in scan order."""
        return iter(range(self.first_lpn, self.first_lpn + self.page_count))


def unit_lpn_runs(heap: HeapFile, unit_pages: int) -> list[list[int]]:
    """Split a heap extent into I/O-unit LPN runs, in scan order."""
    lpns = list(heap.lpns())
    return [lpns[i:i + unit_pages] for i in range(0, len(lpns), unit_pages)]
