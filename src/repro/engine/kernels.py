"""The execution kernel shared by host and device placement.

:class:`BatchKernel` is the one kernel: an I/O unit (up to 32 pages) per
invocation. Columns decode across the whole unit in one NumPy pass per
column (:class:`repro.storage.UnitColumns`), the predicate evaluates over
the unit's concatenated predicate columns *first*, and the remaining
projection/probe/aggregate columns are decoded only for pages with at
least one surviving row (late materialization).

The semantics are page-at-a-time all the same: DISTINCT and top-N truncate
per page, every counter is the per-page sum, and the aggregate state is the
one a page-by-page fold would leave — how a scan is cut into units never
shows. Aggregation itself runs once per unit: ``count``, ``min``, ``max``
and integer ``sum`` (exact in ``int64``) do not depend on order and reduce
over the whole unit; a float ``sum`` keeps one partial per page and folds
them in page order, so its last bits are fixed too. An expression that is
not :func:`batch_exact` would charge differently over concatenated pages,
so the kernel runs such a unit as a sequence of one-page units; a clamp
that binds per page cannot bind differently inside a unit that *is* one
page.

The kernel counts every priced operation; the caller (host executor or
Smart SSD program) charges the counters to the right CPU and moves the
right bytes over the right links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.errors import PlanError
from repro.engine.expressions import (
    And,
    CaseWhen,
    Col,
    Compare,
    Const,
    EvalContext,
    Expr,
    LikePrefix,
    Or,
    _BinaryArith,
)
from repro.engine.plans import AggSpec, JoinSpec, Query
from repro.model.counters import WorkCounters
from repro.storage.heapfile import HeapFile
from repro.storage.layout import Layout, touched_bytes
from repro.storage.schema import Schema
from repro.storage.unitdecode import UnitColumns

#: Estimated per-entry bookkeeping bytes of a hash table (bucket pointers,
#: entry headers) — used for memory grants and cache-residency decisions.
HASH_ENTRY_OVERHEAD = 24


def estimated_hash_table_nbytes(build_heap: HeapFile, query: Query) -> int:
    """Upper-bound resident size of the build table's hash table."""
    spec = query.join
    per_row = build_heap.schema.column(spec.build_key).nbytes
    per_row += sum(build_heap.schema.column(n).nbytes for n in spec.payload)
    per_row += HASH_ENTRY_OVERHEAD
    return build_heap.tuple_count * per_row


def batch_exact(expr: Optional[Expr]) -> bool:
    """True when unit-wide evaluation charges exactly the per-page sums.

    The short-circuit combinators (``And``/``Or``/``CaseWhen``) clamp the
    active-row count they pass onward with ``min``/``max``. Evaluated at
    *full* active (active == row count) the clamp is exact and additive
    across pages: ``min(n, nonzero) == nonzero`` and nonzero counts sum.
    Evaluated at an already-reduced active (the right side of an ``And``,
    a ``CASE`` branch) the clamp can bind differently per page than over
    the concatenated unit, so a combinator in such a position makes
    unit-wide charging inexact — the kernel then runs the unit one page at
    a time to preserve bit-identical counters.

    ``and_all``'s left-nested conjunction chains, and every expression the
    committed workloads use, are batch-exact.
    """
    return _exact_at_full(expr) if expr is not None else True


def _exact_at_full(expr: Expr) -> bool:
    """Exactness when ``expr`` is evaluated with active == row count."""
    if isinstance(expr, (And, Or)):
        # The left side keeps full active; the right side receives the
        # (additive) survivor count, where only clamp-free trees are safe.
        return _exact_at_full(expr.left) and clamp_free(expr.right)
    if isinstance(expr, CaseWhen):
        return (_exact_at_full(expr.condition) and clamp_free(expr.then)
                and clamp_free(expr.otherwise))
    if isinstance(expr, (Compare, _BinaryArith)):
        return _exact_at_full(expr.left) and _exact_at_full(expr.right)
    if isinstance(expr, LikePrefix):
        return _exact_at_full(expr.column)
    # Col/Const charge linearly in active — always additive. Unknown node
    # types are conservatively assumed to clamp.
    return isinstance(expr, (Col, Const))


def clamp_free(expr: Expr) -> bool:
    """True when the subtree contains no min/max-clamping combinator.

    Such a tree charges linearly in ``active`` at *any* active count, so
    one evaluation over concatenated pages charges the per-page sum.
    """
    if isinstance(expr, (And, Or, CaseWhen)):
        return False
    if isinstance(expr, (Compare, _BinaryArith)):
        return clamp_free(expr.left) and clamp_free(expr.right)
    if isinstance(expr, LikePrefix):
        return clamp_free(expr.column)
    return isinstance(expr, (Col, Const))


class HashTable:
    """An in-memory join table: unique keys mapping to payload columns.

    Implemented as sorted keys + aligned payload arrays; probes are binary
    searches, which is deterministic and vectorizes, while the *cost model*
    still prices each probe as a hash lookup.
    """

    def __init__(self, keys: np.ndarray, payload: dict[str, np.ndarray]):
        order = np.argsort(keys, kind="stable")
        self.keys = np.ascontiguousarray(keys[order])
        if len(np.unique(self.keys)) != len(self.keys):
            raise PlanError("hash-join build keys must be unique")
        self.payload = {name: np.ascontiguousarray(values[order])
                        for name, values in payload.items()}

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        """Estimated resident size (entries + payload + overhead)."""
        payload_nbytes = sum(v.nbytes for v in self.payload.values())
        return (self.keys.nbytes + payload_nbytes
                + HASH_ENTRY_OVERHEAD * len(self.keys))

    def probe(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Look up ``probe_keys``; returns (match_mask, build_indices).

        ``build_indices`` is only meaningful where ``match_mask`` is True.
        """
        if len(self.keys) == 0:
            return (np.zeros(len(probe_keys), dtype=bool),
                    np.zeros(len(probe_keys), dtype=np.int64))
        positions = np.searchsorted(self.keys, probe_keys)
        positions = np.clip(positions, 0, len(self.keys) - 1)
        match = self.keys[positions] == probe_keys
        return match, positions


class BuildCollector:
    """Streaming accumulator for the join build side.

    Build pages arrive one I/O unit at a time (the device cannot buffer a
    multi-GB dimension table); :meth:`consume` decodes and counts each batch,
    :meth:`finish` assembles the final :class:`HashTable`.
    """

    def __init__(self, schema: Schema, spec: JoinSpec):
        self.schema = schema
        self.spec = spec
        self._key_chunks: list[np.ndarray] = []
        self._payload_chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in spec.payload}
        self.needed = [spec.build_key, *spec.payload]
        if spec.build_predicate is not None:
            for name in sorted(spec.build_predicate.columns()):
                if name not in self.needed:
                    self.needed.append(name)
        pred = spec.build_predicate
        self._pred_names = set(pred.columns()) if pred is not None else set()
        self._batch_exact = batch_exact(pred)

    def consume(self, pages: Sequence[bytes], counters: WorkCounters,
                layout: Layout) -> int:
        """Decode a batch of build pages; returns page bytes the CPU touched.

        Decodes the whole batch in one pass per column; with a build
        predicate, only its columns decode eagerly and the key/payload
        columns late-materialize for pages with at least one kept row.
        Counters and the assembled table are those of one-page batches,
        which is how a build predicate that is not :func:`batch_exact` runs.
        """
        if not pages:
            return 0
        if not self._batch_exact and len(pages) > 1:
            return sum(self.consume([page], counters, layout)
                       for page in pages)
        unit = UnitColumns(self.schema, pages)
        n = unit.total_rows
        counters.pages_parsed += unit.page_count
        if layout is Layout.NSM:
            counters.nsm_tuples_parsed += n
        touched = touched_bytes(layout, self.schema, self.needed, n)
        pred = self.spec.build_predicate
        eager = [name for name in self.needed
                 if pred is None or name in self._pred_names]
        late = [name for name in self.needed if name not in eager]
        columns = unit.decode(eager)
        ctx = EvalContext(columns, n, counters, layout)
        if pred is not None:
            mask = pred.evaluate(ctx, n)
            keep = np.nonzero(mask)[0]
        else:
            keep = np.arange(n)
        gathered = {name: columns[name][keep] for name in eager}
        if late:
            late_cols, gather_idx, elided = _late_materialize(unit, keep,
                                                              late)
            counters.decode_bytes_elided += elided
            for name in late:
                gathered[name] = late_cols[name][gather_idx]
        counters.decoded_bytes += unit.decoded_nbytes
        # Key + payload extraction for every inserted row.
        ctx.charge_extract(len(keep) * len(self.needed))
        counters.hash_builds += len(keep)
        self._key_chunks.append(gathered[self.spec.build_key])
        for name in self.spec.payload:
            self._payload_chunks[name].append(gathered[name])
        return touched

    def finish(self) -> HashTable:
        """Assemble the hash table from everything consumed."""
        if self._key_chunks:
            keys = np.concatenate(self._key_chunks)
            payload = {name: np.concatenate(chunks)
                       for name, chunks in self._payload_chunks.items()}
        else:
            keys = np.empty(0, dtype=np.int64)
            payload = {name: np.empty(0) for name in self.spec.payload}
        return HashTable(keys, payload)


def build_hash_table(schema: Schema, pages: Sequence[bytes], spec: JoinSpec,
                     counters: WorkCounters, layout: Layout) -> HashTable:
    """Decode build-side pages and construct the join table, counting work."""
    collector = BuildCollector(schema, spec)
    collector.consume(pages, counters, layout)
    return collector.finish()


def top_n_indexes(values: np.ndarray, n: int,
                  descending: bool) -> np.ndarray:
    """Indexes of the top-``n`` values, returned in original row order.

    Stable for ascending order; both placements (and the final merge) use
    this same helper, so results are deterministic and placement-agnostic.
    """
    order = np.argsort(values, kind="stable")
    if descending:
        order = order[::-1]
    return np.sort(order[:n])


def distinct_indexes(columns: dict[str, np.ndarray],
                     names: Sequence[str]) -> np.ndarray:
    """Indexes of the first occurrence of each distinct row, in row order.

    Shared by the kernel (page-local dedupe), the merge step, and
    the reference executor, so DISTINCT results are identical everywhere.
    """
    n = len(next(iter(columns.values()))) if columns else 0
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if len(names) == 1:
        keys = columns[names[0]]
    else:
        key_dtype = np.dtype([(name, columns[name].dtype)
                              for name in names])
        keys = np.empty(n, dtype=key_dtype)
        for name in names:
            keys[name] = columns[name]
    __, first = np.unique(keys, return_index=True)
    return np.sort(first)


def order_and_limit_indexes(values: np.ndarray, limit: Optional[int],
                            descending: bool) -> np.ndarray:
    """Final presentation order: sorted by value, truncated to ``limit``.

    Shared by the executor's merge step and the reference executor so the
    row order (including tie handling) is identical everywhere.
    """
    if limit is not None:
        keep = top_n_indexes(values, limit, descending)
        order = np.argsort(values[keep], kind="stable")
        if descending:
            order = order[::-1]
        return keep[order]
    order = np.argsort(values, kind="stable")
    if descending:
        order = order[::-1]
    return order


class TopNState:
    """Device-resident bounded accumulator for ORDER BY ... LIMIT.

    The scan program offers each page's (already page-locally truncated)
    surviving rows together with their *ordinals* — global row positions in
    extent scan order — and the state keeps only candidates that can still
    make the final top ``limit``. Selection happens under the strict total
    order (value, ordinal), exactly the order :func:`top_n_indexes` induces
    over the host's concatenated chunk stream, so keeping the best ``n`` is
    associative and idempotent: folding page-by-page on the device yields
    the same surviving set as the host's single global pass, bit for bit,
    regardless of the order units complete in.
    """

    #: Compact once the candidate pool exceeds ``max(4 * limit, this)``.
    MIN_COMPACT_THRESHOLD = 256

    def __init__(self, order_by: str, limit: int, descending: bool):
        self.order_by = order_by
        self.limit = limit
        self.descending = descending
        self._ordinals: list[np.ndarray] = []
        self._chunks: list[dict[str, np.ndarray]] = []
        self._count = 0
        self._compact_at = max(4 * limit, self.MIN_COMPACT_THRESHOLD)

    @property
    def candidate_count(self) -> int:
        """Rows currently buffered (bounded by the compaction threshold)."""
        return self._count

    def offer(self, ordinals: np.ndarray,
              columns: dict[str, np.ndarray]) -> None:
        """Add one page's surviving rows to the candidate pool."""
        n = len(ordinals)
        if n == 0:
            return
        self._ordinals.append(np.asarray(ordinals, dtype=np.int64))
        self._chunks.append(columns)
        self._count += n
        if self._count > self._compact_at:
            self._compact()

    def _compact(self) -> None:
        ordinals = np.concatenate(self._ordinals)
        names = list(self._chunks[0])
        columns = {name: np.concatenate([chunk[name]
                                         for chunk in self._chunks])
                   for name in names}
        # Restore scan order first: ordinals are unique, so the stable
        # argsort inside top_n_indexes then breaks value ties exactly as
        # the host's concatenated-in-page-order pass would.
        order = np.argsort(ordinals, kind="stable")
        ordinals = ordinals[order]
        columns = {name: values[order] for name, values in columns.items()}
        keep = top_n_indexes(columns[self.order_by], self.limit,
                             self.descending)
        self._ordinals = [ordinals[keep]]
        self._chunks = [{name: values[keep]
                         for name, values in columns.items()}]
        self._count = len(keep)

    def finish(self) -> Optional[dict[str, np.ndarray]]:
        """The final top-``limit`` candidates in scan order, or None when
        nothing was ever offered."""
        if not self._chunks:
            return None
        self._compact()
        return self._chunks[0]


@dataclass
class AggState:
    """Mergeable partial state of the aggregate set."""

    values: dict[str, Any] = field(default_factory=dict)
    groups: dict[Any, dict[str, Any]] = field(default_factory=dict)

    def merge(self, other: "AggState", aggs: Sequence[AggSpec]) -> None:
        """Fold another partial into this one."""
        for agg in aggs:
            self.values[agg.name] = _merge_scalar(
                agg.kind, self.values.get(agg.name),
                other.values.get(agg.name))
        for group, partial in other.groups.items():
            mine = self.groups.setdefault(group, {})
            for agg in aggs:
                mine[agg.name] = _merge_scalar(
                    agg.kind, mine.get(agg.name), partial.get(agg.name))


def _merge_scalar(kind: str, a: Any, b: Any) -> Any:
    if a is None:
        return b
    if b is None:
        return a
    if kind in ("sum", "count"):
        return a + b
    if kind == "min":
        return min(a, b)
    return max(a, b)


def _late_materialize(unit: UnitColumns, survivors: np.ndarray,
                      names: Sequence[str],
                      page_of: Optional[np.ndarray] = None,
                      ) -> tuple[dict[str, np.ndarray], np.ndarray, int]:
    """Decode ``names`` only for pages with at least one surviving row.

    Returns ``(columns, gather, elided)``: the decoded columns (compacted
    to live pages), the indexes of ``survivors`` within that compacted row
    space, and the value bytes the skipped (fully-filtered) pages never
    materialized.
    """
    if page_of is None:
        page_of = np.searchsorted(unit.starts, survivors, side="right") - 1
    per_page = np.bincount(page_of, minlength=unit.page_count)
    live = np.nonzero(per_page)[0]
    dead_rows = unit.total_rows - int(unit.counts[live].sum())
    elided = dead_rows * unit.rows_per_tuple(names)
    columns = unit.decode(names, include=live)
    compact_starts = np.zeros(len(live) + 1, dtype=np.int64)
    np.cumsum(unit.counts[live], out=compact_starts[1:])
    position = np.searchsorted(live, page_of)
    gather = compact_starts[position] + (survivors - unit.starts[page_of])
    return columns, gather, elided


@dataclass
class UnitPartial:
    """Output of one I/O unit's worth of batch-kernel work."""

    row_count: int
    #: ``(page offset within the unit, output columns)`` chunks. One
    #: concatenated chunk per unit normally; one per page when page-local
    #: semantics (DISTINCT dedupe, top-N truncation) require it.
    chunks: list[tuple[int, dict[str, np.ndarray]]] = field(
        default_factory=list)
    touched_nbytes: int = 0  # page bytes the CPU actually read

    @classmethod
    def concat(cls, partials: Iterable["UnitPartial"]) -> "UnitPartial":
        """One partial for a unit that ran as a sequence of sub-units."""
        total = cls(row_count=0)
        for partial in partials:
            total.row_count += partial.row_count
            total.chunks.extend(partial.chunks)
            total.touched_nbytes += partial.touched_nbytes
        return total


class BatchKernel:
    """I/O-unit-at-a-time execution for one :class:`Query`.

    Results, counters, and touched bytes are those of running each page of
    the unit as its own unit, with the decode and expression work batched
    across the unit's concatenated rows. The predicate evaluates first over
    just its own columns; every other column is then decoded only for pages
    with surviving rows (late materialization). Aggregates fold into the
    caller's running :class:`AggState` once per unit; only a float sum
    still folds page by page, so its accumulation order is preserved bit
    for bit.

    Queries whose expressions are not :func:`batch_exact` (clamping
    combinators in reduced-active positions) run each unit as one-page
    units, where unit-wide charging is trivially the per-page charge.
    """

    def __init__(self, query: Query, schema: Schema, layout: Layout,
                 hash_table: Optional[HashTable] = None,
                 ctx_factory: type[EvalContext] = EvalContext):
        if query.join is not None and hash_table is None:
            raise PlanError("join query needs a built hash table")
        self.query = query
        self.schema = schema
        self.layout = layout
        self.hash_table = hash_table
        self.ctx_factory = ctx_factory
        self.needed_columns = query.probe_side_columns()
        for name in self.needed_columns:
            schema.column_index(name)  # validate early
        pred_names = (set(query.predicate.columns())
                      if query.predicate is not None else None)
        #: Columns the predicate needs (everything, without a predicate).
        self.predicate_columns = [
            name for name in self.needed_columns
            if pred_names is None or name in pred_names]
        #: Columns whose decode waits for the predicate's survivors.
        self.late_columns = [name for name in self.needed_columns
                             if name not in self.predicate_columns]
        #: DISTINCT dedupe and top-N truncation are page-local; emit
        #: per-page chunks to preserve that.
        self.per_page_output = bool(query.distinct
                                    or query.limit is not None)
        exprs = [query.predicate, query.post_predicate,
                 *(expr for __, expr in query.select),
                 *(agg.expr for agg in query.aggregates
                   if agg.expr is not None)]
        self.is_batch_exact = all(batch_exact(expr) for expr in exprs)

    # -- entry points --------------------------------------------------------

    def process_unit(self, pages: Sequence[bytes], *,
                     counters: WorkCounters,
                     agg_into: Optional[AggState] = None,
                     offsets: Optional[Sequence[int]] = None) -> UnitPartial:
        """Run the kernel over one I/O unit of real page bytes.

        ``counters`` accumulates the unit's work in place. Aggregate
        queries fold into ``agg_into``, which ends up bit-identical to
        folding the pages one at a time: order-independent aggregates are
        merged once for the unit, a float sum once per page in page order,
        and new groups are added by first page, then key. ``offsets``
        labels each page with its original position within the unit (after
        any pruning).
        """
        offsets = list(range(len(pages))) if offsets is None else list(offsets)
        if not self.is_batch_exact and len(pages) > 1:
            return UnitPartial.concat(
                self.process_unit([page], counters=counters,
                                  agg_into=agg_into, offsets=[offset])
                for page, offset in zip(pages, offsets))
        unit = UnitColumns(self.schema, pages)
        n = unit.total_rows
        counters.pages_parsed += unit.page_count
        if self.layout is Layout.NSM:
            counters.nsm_tuples_parsed += n
        touched = touched_bytes(self.layout, self.schema,
                                self.needed_columns, n)
        columns = unit.decode(self.predicate_columns)
        ctx = self.ctx_factory(columns, n, counters, self.layout)
        if self.query.predicate is not None:
            mask = self.query.predicate.evaluate(ctx, n)
            survivors = np.nonzero(mask)[0]
        else:
            survivors = np.arange(n)
        page_of = np.searchsorted(unit.starts, survivors, side="right") - 1
        filtered = {name: columns[name][survivors]
                    for name in self.predicate_columns}
        if self.late_columns:
            late, gather, elided = _late_materialize(
                unit, survivors, self.late_columns, page_of=page_of)
            counters.decode_bytes_elided += elided
            for name in self.late_columns:
                filtered[name] = late[name][gather]
        counters.decoded_bytes += unit.decoded_nbytes
        return self._finish(filtered, page_of, len(survivors),
                            unit.page_count, offsets, counters, agg_into,
                            touched)

    def process_decoded_unit(self, columns: dict[str, np.ndarray],
                             counts: Sequence[int], *,
                             counters: WorkCounters,
                             agg_into: Optional[AggState] = None,
                             offsets: Optional[Sequence[int]] = None,
                             ) -> UnitPartial:
        """Run the kernel over unit columns another scan already decoded.

        ``columns`` holds each column's values concatenated across the
        pages whose live-row counts are ``counts`` (it may contain more
        columns than this query needs — a shared scan decodes the member
        union). Decode and page-setup work was charged elsewhere; only
        this query's marginal work lands in ``counters``.
        """
        counts = np.asarray(counts, dtype=np.int64)
        page_count = len(counts)
        offsets = (list(range(page_count)) if offsets is None
                   else list(offsets))
        starts = np.zeros(page_count + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        n = int(starts[-1])
        if not self.is_batch_exact and page_count > 1:
            return UnitPartial.concat(
                self.process_decoded_unit(
                    {name: values[starts[p]:starts[p + 1]]
                     for name, values in columns.items()},
                    counts[p:p + 1], counters=counters, agg_into=agg_into,
                    offsets=[offsets[p]])
                for p in range(page_count))
        ctx = self.ctx_factory(columns, n, counters, self.layout)
        if self.query.predicate is not None:
            mask = self.query.predicate.evaluate(ctx, n)
            survivors = np.nonzero(mask)[0]
        else:
            survivors = np.arange(n)
        page_of = np.searchsorted(starts, survivors, side="right") - 1
        filtered = {name: columns[name][survivors]
                    for name in self.needed_columns}
        return self._finish(filtered, page_of, len(survivors), page_count,
                            offsets, counters, agg_into, touched=0)

    # -- shared tail: probe, post-predicate, project / aggregate -------------

    def _finish(self, filtered: dict[str, np.ndarray], page_of: np.ndarray,
                k: int, page_count: int, offsets: Sequence[int],
                counters: WorkCounters, agg_into: Optional[AggState],
                touched: int) -> UnitPartial:
        # Hash-join probe over the unit's concatenated survivors.
        if self.query.join is not None:
            probe_keys = filtered[self.query.join.probe_key]
            probe_ctx = self.ctx_factory(filtered, k, counters, self.layout)
            probe_ctx.charge_extract(k)
            counters.hash_probes += k
            match, positions = self.hash_table.probe(probe_keys)
            matched = np.nonzero(match)[0]
            filtered = {name: values[matched]
                        for name, values in filtered.items()}
            build_rows = positions[matched]
            for name in self.query.join.payload:
                filtered[name] = self.hash_table.payload[name][build_rows]
            page_of = page_of[matched]
            k = len(matched)

        if self.query.post_predicate is not None:
            post_ctx = self.ctx_factory(filtered, k, counters, self.layout)
            post_mask = self.query.post_predicate.evaluate(post_ctx, k)
            keep = np.nonzero(post_mask)[0]
            filtered = {name: values[keep]
                        for name, values in filtered.items()}
            page_of = page_of[keep]
            k = len(keep)

        out_ctx = self.ctx_factory(filtered, k, counters, self.layout)

        if self.query.select:
            return self._project(out_ctx, page_of, k, page_count, offsets,
                                 counters, touched)
        if agg_into is None:
            raise PlanError("aggregate unit needs a running AggState")
        if self.query.group_by is None:
            bounds = np.searchsorted(page_of, np.arange(page_count + 1))
            self._fold_scalar_segments(out_ctx, k, bounds, counters,
                                       agg_into)
        else:
            self._fold_grouped_segments(out_ctx, k, page_of, counters,
                                        agg_into)
        return UnitPartial(row_count=k, chunks=[], touched_nbytes=touched)

    def _project(self, out_ctx: EvalContext, page_of: np.ndarray, k: int,
                 page_count: int, offsets: Sequence[int],
                 counters: WorkCounters, touched: int) -> UnitPartial:
        out_columns = {}
        for name, expr in self.query.select:
            values = np.asarray(expr.evaluate(out_ctx, k))
            if values.ndim == 0:
                values = np.full(k, values)
            out_columns[name] = values
        if not self.per_page_output:
            counters.output_values += k * len(self.query.select)
            first = offsets[0] if offsets else 0
            return UnitPartial(row_count=k,
                               chunks=[(first, out_columns)],
                               touched_nbytes=touched)
        # Page-local DISTINCT / top-N: slice the unit's projected rows back
        # into page segments and apply exactly the per-page treatment.
        bounds = np.searchsorted(page_of, np.arange(page_count + 1))
        chunks = []
        total = 0
        for position in range(page_count):
            lo, hi = int(bounds[position]), int(bounds[position + 1])
            chunk = {name: values[lo:hi]
                     for name, values in out_columns.items()}
            k_page = hi - lo
            if self.query.distinct and k_page > 0:
                counters.distinct_candidates += k_page
                keep = distinct_indexes(chunk, self.query.output_names())
                chunk = {name: values[keep]
                         for name, values in chunk.items()}
                k_page = len(keep)
            if self.query.limit is not None and k_page > 0:
                counters.topn_candidates += k_page
                keep = top_n_indexes(chunk[self.query.order_by],
                                     self.query.limit,
                                     self.query.descending)
                chunk = {name: values[keep]
                         for name, values in chunk.items()}
                k_page = len(keep)
            counters.output_values += k_page * len(self.query.select)
            total += k_page
            chunks.append((offsets[position], chunk))
        return UnitPartial(row_count=total, chunks=chunks,
                           touched_nbytes=touched)

    # -- aggregation: one fold per unit, page-at-a-time results ---------------
    #
    # count, min, max and integer sum do not depend on the order they are
    # taken in, so they reduce over the whole unit and merge into the running
    # state once. A float sum does: its state is the left fold, in page
    # order, of one partial per page (``segment.sum()`` for a scalar, a
    # row-order ``bincount`` cell for a group), so those partials are kept
    # and folded one by one. ``np.add.reduceat`` would give all of a unit's
    # page partials in one call, but it adds in another order than
    # ``segment.sum()`` and differs in the last bits.

    def _aggregate_inputs(self, out_ctx: EvalContext, k: int,
                          counters: WorkCounters) -> dict[str, np.ndarray]:
        """Each non-count aggregate's input over the unit's ``k`` rows;
        sums widen to ``float64`` or ``int64``, as the reference does."""
        evaluated: dict[str, np.ndarray] = {}
        for agg in self.query.aggregates:
            # Each page charges its segment's row count — the sum is k.
            counters.aggregate_updates += k
            if agg.kind == "count":
                continue
            values = np.asarray(agg.expr.evaluate(out_ctx, k))
            if values.ndim == 0:
                values = np.full(k, values)
            if agg.kind == "sum":
                values = values.astype(
                    np.float64 if values.dtype.kind == "f" else np.int64)
            evaluated[agg.name] = values
        return evaluated

    def _fold_scalar_segments(self, out_ctx: EvalContext, k: int,
                              bounds: np.ndarray, counters: WorkCounters,
                              agg_into: AggState) -> None:
        evaluated = self._aggregate_inputs(out_ctx, k, counters)
        for agg in self.query.aggregates:
            values = evaluated.get(agg.name)
            if agg.kind == "count":
                partials: list[Any] = [k]
            elif agg.kind == "sum" and values.dtype.kind == "f":
                # A page without survivors folds in the integer 0.
                partials = [values[lo:hi].sum().item() if hi > lo else 0
                            for lo, hi in pairwise(bounds.tolist())]
            elif agg.kind == "sum":
                partials = [values.sum().item()]
            elif k == 0:
                partials = [None]
            else:
                partials = [(values.min() if agg.kind == "min"
                             else values.max()).item()]
            for partial in partials:
                agg_into.values[agg.name] = _merge_scalar(
                    agg.kind, agg_into.values.get(agg.name), partial)

    def _fold_grouped_segments(self, out_ctx: EvalContext, k: int,
                               page_of: np.ndarray, counters: WorkCounters,
                               agg_into: AggState) -> None:
        aggs = self.query.aggregates
        # Folding always (re)writes the scalar slots, even for grouped
        # queries where they stay None, so states compare equal however
        # many units fed them.
        for agg in aggs:
            agg_into.values[agg.name] = agg_into.values.get(agg.name)
        if k == 0:
            return
        keys = [out_ctx.columns[name] for name in self.query.group_by_columns]
        # A page with no surviving row charges nothing, so only the k
        # surviving rows are ever charged.
        out_ctx.charge_extract(k * len(keys))
        evaluated = self._aggregate_inputs(out_ctx, k, counters)
        # One stable sort brings each group's rows together, still in row
        # (hence page) order: a run of equal keys is a group and, within it,
        # a run of equal pages is a (group, page) cell.
        order = np.lexsort(keys[::-1])
        new_group = np.zeros(k, dtype=bool)
        new_group[0] = True
        for key in keys:
            ordered = key[order]
            new_group[1:] |= ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(new_group)
        # Groups enter the state as page-at-a-time folding adds them: by
        # the page they first appear on, then by key.
        first_rows = order[starts]
        appearance = np.argsort(page_of[first_rows], kind="stable")
        key_lists = [key[first_rows[appearance]].tolist() for key in keys]
        entries: list[Any] = [None] * len(starts)
        for position, group in zip(
                appearance.tolist(),
                key_lists[0] if len(keys) == 1 else zip(*key_lists)):
            entries[position] = agg_into.groups.setdefault(group, {})
        for agg in aggs:
            slots = entries
            values = evaluated.get(agg.name)
            if agg.kind == "count":
                partials = np.diff(starts, append=k)
            elif agg.kind == "sum" and values.dtype.kind == "f":
                # One partial per cell, added up in row order as a page's
                # own ``bincount`` would; a group's cells follow each other
                # in page order, so merging them one by one is the fold.
                pages = page_of[order]
                new_cell = new_group.copy()
                new_cell[1:] |= pages[1:] != pages[:-1]
                partials = np.bincount(np.cumsum(new_cell) - 1,
                                       weights=values[order])
                slots = [entries[position] for position in
                         (np.cumsum(new_group) - 1)[new_cell].tolist()]
            else:
                # ``reduceat`` over int64 is exact where a float-weighted
                # ``bincount`` stops being so at 2**53.
                reducer = {"sum": np.add, "min": np.minimum,
                           "max": np.maximum}[agg.kind]
                partials = reducer.reduceat(values[order], starts)
            for entry, partial in zip(slots, partials.tolist()):
                entry[agg.name] = _merge_scalar(
                    agg.kind, entry.get(agg.name), partial)
