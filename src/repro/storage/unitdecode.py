"""Unit-level batched column decode: one NumPy pass per column per I/O unit.

The per-page codecs (:mod:`repro.storage.pax`, :mod:`repro.storage.nsm`)
decode one page at a time; the execution engine reads 32-page I/O units, so
a scan pays the Python dispatch and ``frombuffer`` setup 32 times per unit
per column. :class:`UnitColumns` stacks a whole unit's pages into one
``(pages, PAGE_SIZE)`` byte matrix and decodes each column across every
page in a single vectorized pass — the decode-side mirror of the batched
``encode_pages`` idiom.

Decoding is *lazy and selective*: columns are materialized only when asked
for, and only for the page subset the caller names. That is what lets the
batch kernel late-materialize — evaluate the predicate over the unit's
predicate columns first, then decode the remaining columns only for pages
with at least one surviving row. :attr:`UnitColumns.decoded_nbytes` records
the column-value bytes actually materialized, so callers can report how
many bytes late materialization elided (the virtual-time cost model is
charged separately, from :func:`repro.storage.layout.touched_bytes`, and
is unchanged by *how* the decode happened).

Values are bit-identical to the per-page codecs: the same minipage bytes
(PAX) or padded-record fields (NSM), concatenated in page order.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage import nsm, pax
from repro.storage.layout import Layout, tuples_per_page
from repro.storage.page import _MAGIC, PAGE_HEADER_NBYTES, PAGE_SIZE
from repro.storage.schema import Schema


class UnitColumns:
    """One I/O unit's pages, stacked for whole-unit column decode.

    Parses every page header in one vectorized pass (magic, layout tag,
    tuple count), then serves :meth:`decode` requests per column, each in a
    single NumPy gather across the selected pages.
    """

    def __init__(self, schema: Schema, pages: Sequence[bytes]):
        if not pages:
            raise StorageError("empty I/O unit")
        self.schema = schema
        self.page_count = len(pages)
        buf = np.frombuffer(b"".join(pages), dtype=np.uint8)
        if buf.size != self.page_count * PAGE_SIZE:
            raise StorageError(
                f"unit of {self.page_count} pages is {buf.size} bytes, "
                f"expected {self.page_count * PAGE_SIZE}")
        self._buf = buf.reshape(self.page_count, PAGE_SIZE)
        header = self._buf[:, :PAGE_HEADER_NBYTES]
        magic = np.ascontiguousarray(header[:, 0:4]).view("<u4").ravel()
        if not (magic == _MAGIC).all():
            bad = magic[magic != _MAGIC][0]
            raise StorageError(f"bad page magic: {int(bad):#x}")
        tags = header[:, 4]
        if not (tags == tags[0]).all():
            raise StorageError("mixed page layouts within one I/O unit")
        self.layout = Layout.from_tag(int(tags[0]))
        self.counts = (np.ascontiguousarray(header[:, 6:8]).view("<u2")
                       .ravel().astype(np.int64))
        #: ``starts[p]`` is the concatenated row offset of page ``p``;
        #: ``starts[-1]`` is the unit's total live-row count.
        self.starts = np.zeros(self.page_count + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.starts[1:])
        self.total_rows = int(self.starts[-1])
        self.capacity = tuples_per_page(self.layout, schema)
        if int(self.counts.max(initial=0)) > self.capacity:
            raise StorageError("page tuple count exceeds layout capacity")
        #: Column-value bytes materialized by :meth:`decode` calls so far.
        self.decoded_nbytes = 0
        self._all_full = bool((self.counts == self.capacity).all())
        self._live_mask: Optional[np.ndarray] = None
        self._nsm_records: Optional[np.ndarray] = None

    # -- helpers -------------------------------------------------------------

    def _live(self) -> np.ndarray:
        """Boolean (pages, capacity) mask of live (non-ragged-tail) slots."""
        if self._live_mask is None:
            slots = np.arange(self.capacity, dtype=np.int64)
            self._live_mask = slots[None, :] < self.counts[:, None]
        return self._live_mask

    def _selection(self, include: Optional[np.ndarray]
                   ) -> tuple[Optional[np.ndarray], int, bool]:
        """(page mask or None for all, selected rows, all-full flag)."""
        if include is None:
            return None, self.total_rows, self._all_full
        include = np.asarray(include, dtype=np.int64)
        mask = np.zeros(self.page_count, dtype=bool)
        mask[include] = True
        rows = int(self.counts[include].sum())
        full = bool((self.counts[include] == self.capacity).all())
        return mask, rows, full

    def rows_per_tuple(self, names: Iterable[str]) -> int:
        """Total value bytes per tuple across the named columns."""
        return sum(self.schema.column(name).nbytes for name in names)

    # -- decode --------------------------------------------------------------

    def decode(self, names: Sequence[str],
               include: Optional[np.ndarray] = None
               ) -> dict[str, np.ndarray]:
        """Concatenated live values of ``names`` over the included pages.

        ``include`` is a sorted array of page indexes (default: every
        page). Rows come back in page order then row order — exactly the
        concatenation of the per-page codec's output for those pages.
        """
        if self.layout is Layout.PAX:
            return self._decode_pax(names, include)
        return self._decode_nsm(names, include)

    def _decode_pax(self, names: Sequence[str],
                    include: Optional[np.ndarray]) -> dict[str, np.ndarray]:
        offsets = pax.minipage_offsets(self.schema)
        page_mask, rows, full = self._selection(include)
        out = {}
        for name in names:
            index = self.schema.column_index(name)
            column = self.schema.columns[index]
            width = column.nbytes
            start = offsets[index]
            view = self._buf[:, start:start + self.capacity * width].view(
                column.ctype.numpy_dtype)
            if full:
                sel = view if page_mask is None else view[page_mask]
                out[name] = sel.reshape(-1)
            else:
                live = self._live()
                sel = live if page_mask is None else live & page_mask[:, None]
                out[name] = view[sel]
            self.decoded_nbytes += rows * width
        return out

    def _decode_nsm(self, names: Sequence[str],
                    include: Optional[np.ndarray]) -> dict[str, np.ndarray]:
        # NSM degrades gracefully: the whole record area is parsed once per
        # unit (fixed-stride records leave no choice), but per-*field*
        # materialization below stays selective, so late materialization
        # still skips the copy-out for pages with no survivors.
        if self._nsm_records is None:
            stride = nsm.record_stride(self.schema)
            region = self._buf[:, PAGE_HEADER_NBYTES:
                               PAGE_HEADER_NBYTES + self.capacity * stride]
            self._nsm_records = np.ascontiguousarray(region).view(
                nsm._padded_dtype(self.schema)).reshape(
                    self.page_count, self.capacity)
        page_mask, rows, full = self._selection(include)
        if full:
            def select(field: np.ndarray) -> np.ndarray:
                sel = field if page_mask is None else field[page_mask]
                return np.ascontiguousarray(sel).reshape(-1)
        else:
            live = self._live()
            sel_mask = (live if page_mask is None
                        else live & page_mask[:, None])

            def select(field: np.ndarray) -> np.ndarray:
                return field[sel_mask]
        out = {}
        for name in names:
            out[name] = select(self._nsm_records[name])
            self.decoded_nbytes += rows * self.schema.column(name).nbytes
        return out
