"""Property test: how a page list is cut into units never shows.

:class:`~repro.engine.kernels.BatchKernel` runs a whole I/O unit at once,
yet page-at-a-time semantics are the contract: DISTINCT and top-N truncate
per page, aggregates fold per page in page order, every counter (the input
to virtual time) is the per-page sum. "Per page" *means* one-page units, so
for any query and any cut of a page list into units, the counters, touched
bytes, output rows and dtypes and :class:`AggState` equal those of the
all-one-page cut through both entry points, and the merged result equals
``run_reference`` (a float sum to within rounding: the oracle adds a whole
table in one pass). Drawn predicates include shapes that are not batch-exact
(those units run page by page), under both layouts.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AggSpec,
    And,
    CaseWhen,
    Col,
    Compare,
    Const,
    Div,
    JoinSpec,
    Mul,
    Or,
    Query,
    run_reference,
)
from repro.engine.kernels import (
    AggState,
    BatchKernel,
    HashTable,
    batch_exact,
)
from repro.host.executor import _merge_select_chunks
from repro.model.counters import WorkCounters
from repro.storage import (
    CharType,
    Column,
    Int32Type,
    Int64Type,
    Layout,
    Schema,
    build_heap_pages,
)
from repro.storage.unitdecode import UnitColumns

SCHEMA = Schema([
    Column("a", Int32Type()),
    Column("b", Int32Type()),
    Column("c", Int64Type()),
    Column("fk", Int32Type()),
    Column("tag", CharType(2)),
])
DIM_SCHEMA = Schema([
    Column("pk", Int32Type()),
    Column("payload", Int32Type()),
])

_OPS = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
_COLUMNS = st.sampled_from(["a", "b"])


@st.composite
def predicates(draw, depth=2):
    """Random predicates, including nested combinator shapes that are not
    batch-exact (those units run as one-page units)."""
    if depth == 0 or draw(st.booleans()):
        return Compare(Col(draw(_COLUMNS)), draw(_OPS),
                       Const(draw(st.integers(-5, 25))))
    combiner = draw(st.sampled_from([And, Or]))
    return combiner(draw(predicates(depth=depth - 1)),
                    draw(predicates(depth=depth - 1)))


@st.composite
def edge_predicates(draw):
    """Predicates pinned to 0% / 100% selectivity plus CASE arithmetic."""
    kind = draw(st.sampled_from(["none", "all", "case"]))
    if kind == "none":
        return Compare(Col("a"), "<", Const(-10**6))
    if kind == "all":
        return Compare(Col("a"), ">=", Const(-10**6))
    return Compare(
        CaseWhen(Compare(Col("a"), ">", Const(0)),
                 Mul(Col("b"), Const(2)), Col("b")),
        draw(_OPS), Const(draw(st.integers(-10, 40))))


@st.composite
def queries(draw):
    predicate = draw(st.one_of(st.none(), predicates(), edge_predicates()))
    join = None
    post_predicate = None
    if draw(st.booleans()):
        join = JoinSpec(build_table="dim", build_key="pk",
                        probe_key="fk", payload=("payload",))
        if draw(st.booleans()):
            post_predicate = Compare(Col("payload"), draw(_OPS),
                                     Const(draw(st.integers(0, 100))))
    if draw(st.booleans()):
        pool = ["a", "b", "c"] + (["payload"] if join else [])
        names = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=3, unique=True))
        order_by = None
        limit = None
        descending = False
        if draw(st.booleans()):
            order_by = draw(st.sampled_from(names))
            descending = draw(st.booleans())
            if draw(st.booleans()):
                limit = draw(st.integers(1, 10))
        return Query(table="fact", predicate=predicate, join=join,
                     post_predicate=post_predicate,
                     select=tuple((n, Col(n)) for n in names),
                     order_by=order_by, descending=descending, limit=limit,
                     distinct=draw(st.booleans()))
    agg_pool = [AggSpec("count", None, "n"),
                AggSpec("sum", Col("a"), "s"),
                AggSpec("sum", Mul(Col("b"), Const(3)), "s3"),
                AggSpec("sum", Div(Col("c"), Const(7)), "f"),
                AggSpec("min", Col("b"), "lo"),
                AggSpec("max", Col("c"), "hi")]
    if join:
        agg_pool.append(AggSpec("sum", Col("payload"), "p"))
    count = draw(st.integers(1, len(agg_pool)))
    group_by = draw(st.one_of(st.none(), st.sampled_from(
        ["a", "b", "tag", ("b", "a"), ("tag", "a")])))
    return Query(table="fact", predicate=predicate, join=join,
                 post_predicate=post_predicate,
                 aggregates=tuple(agg_pool[:count]),
                 group_by=group_by)


@st.composite
def datasets(draw):
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(1, 3200))  # up to eight pages
    rng = np.random.default_rng(seed)
    rows = np.empty(n, dtype=SCHEMA.numpy_dtype())
    rows["a"] = rng.integers(-10, 30, n)
    rows["b"] = rng.integers(-10, 30, n)
    rows["c"] = rng.integers(-10**6, 10**6, n)
    rows["fk"] = rng.integers(0, 12, n)  # some fks dangle (pk 0..7)
    rows["tag"] = rng.choice([b"a ", b"ab", b"b ", b"zz"], n)
    dim = np.empty(8, dtype=DIM_SCHEMA.numpy_dtype())
    dim["pk"] = np.arange(8)
    dim["payload"] = rng.integers(0, 100, 8)
    return rows, dim


def _drive(kernel, query, pages, sizes, decoded):
    """Run ``pages`` through ``kernel`` cut into units of the cycled
    ``sizes``; returns (counters, touched bytes, chunks, agg state)."""
    counters, touched, chunks, agg = WorkCounters(), 0, [], AggState()
    bounds = np.minimum(np.cumsum([0] + sizes * len(pages)), len(pages))
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            break
        kwargs = dict(counters=counters, offsets=range(lo, hi),
                      agg_into=None if query.select else agg)
        if decoded:
            unit = UnitColumns(SCHEMA, pages[lo:hi])
            partial = kernel.process_decoded_unit(
                unit.decode(kernel.needed_columns), unit.counts, **kwargs)
        else:
            partial = kernel.process_unit(pages[lo:hi], **kwargs)
        touched += partial.touched_nbytes
        chunks.extend(partial.chunks)
    return counters, touched, chunks, agg


def _same(got, want):
    """``got == want``, the last bits of a float sum aside."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _same(got[key], want[key]) for key in want)
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-3)
    return got == want


def _concat(chunks, names):
    return {name: np.concatenate([c[name] for __, c in chunks])
            for name in names}


@given(queries(), datasets(), st.sampled_from([Layout.NSM, Layout.PAX]),
       st.lists(st.integers(1, 8), min_size=1, max_size=4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_unit_split_is_unobservable(query, data, layout, sizes, decoded):
    rows, dim = data
    pages = build_heap_pages(SCHEMA, rows, layout)
    table = HashTable(dim["pk"], {"payload": np.ascontiguousarray(
        dim["payload"])}) if query.join else None
    kernel = BatchKernel(query, SCHEMA, layout, hash_table=table)
    ref_counters, ref_touched, ref_chunks, ref_agg = _drive(
        kernel, query, pages, [1], decoded)
    counters, touched, chunks, agg = _drive(
        kernel, query, pages, sizes, decoded)
    # Work counters — the inputs to virtual time — must match exactly.
    assert (counters, touched) == (ref_counters, ref_touched)

    expected = run_reference(query, {"fact": SCHEMA, "dim": DIM_SCHEMA},
                             {"fact": rows, "dim": dim})
    if query.select:
        names = query.output_names()
        got = _concat(chunks, names)
        want = _concat(ref_chunks, names)
        for name in names:
            assert np.array_equal(got[name], want[name])
            assert got[name].dtype == want[name].dtype
        if kernel.per_page_output:  # page-local chunks keep their labels
            assert ([offset for offset, __ in chunks]
                    == [offset for offset, __ in ref_chunks])
        merged = _merge_select_chunks(query, [c for __, c in chunks])
        for name in names:
            assert np.array_equal(merged[name], expected[name])
    else:
        # Scalar slots and per-group partials, bit for bit (same fold order).
        assert agg == ref_agg
        assert _same(agg.groups if query.group_by else agg.values, expected)
        # Group keys stay Python ints and bytes, as ``tolist()`` gives them.
        assert all(type(part) in (int, bytes) for key in agg.groups
                   for part in (key if isinstance(key, tuple) else (key,)))


_DEAD = Compare(Col("a"), "<", Const(0))


@given(datasets(), st.sampled_from([Layout.NSM, Layout.PAX]),
       st.sampled_from([_DEAD, And(_DEAD, And(_DEAD, _DEAD))]))
@settings(max_examples=20, deadline=None)
def test_late_materialization_elides_dead_pages(data, layout, predicate):
    """A page whose rows all fail the filter never decodes its
    non-predicate columns (modulo NSM's unavoidable record parse) — also
    when a right-nested predicate makes the unit run page by page."""
    rows, __ = data
    rows = rows.copy()
    rows["a"] = 10**6  # no row ever passes
    pages = build_heap_pages(SCHEMA, rows, layout)
    query = Query(table="fact", predicate=predicate,
                  select=(("b", Col("b")), ("c", Col("c"))))
    batch = BatchKernel(query, SCHEMA, layout)
    counters = WorkCounters()
    partial = batch.process_unit(pages, counters=counters)
    assert partial.row_count == 0
    late_nbytes = len(rows) * (SCHEMA.column("b").nbytes
                               + SCHEMA.column("c").nbytes)
    assert counters.decode_bytes_elided == late_nbytes
    # Only the predicate column was materialized.
    assert counters.decoded_bytes == len(rows) * SCHEMA.column("a").nbytes


def test_batch_exact_flags_reduced_active_combinators():
    flat = And(Compare(Col("a"), ">", Const(0)),
               Compare(Col("b"), ">", Const(0)))
    assert batch_exact(flat)
    # and_all-style left-nested chains stay exact...
    assert batch_exact(And(flat, Compare(Col("a"), "<", Const(9))))
    # ...but a combinator on the clamped right side is not.
    assert not batch_exact(And(Compare(Col("a"), ">", Const(0)), flat))
    assert batch_exact(None)
