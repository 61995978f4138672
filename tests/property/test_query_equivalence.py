"""Property test: random queries agree across host, device, and reference.

The strongest end-to-end invariant in the system: for any query in the
supported class, conventional execution, pushdown execution, and the
placement-free reference executor must return identical results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AggSpec,
    And,
    Col,
    Compare,
    Const,
    JoinSpec,
    Or,
    Placement,
    Query,
    run_reference,
)
from repro.host.db import Database
from repro.storage import Column, Int32Type, Layout, Schema

FACT_SCHEMA = Schema([
    Column("a", Int32Type()),
    Column("b", Int32Type()),
    Column("fk", Int32Type()),
])
DIM_SCHEMA = Schema([
    Column("pk", Int32Type()),
    Column("payload", Int32Type()),
])

_OPS = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
_COLUMNS = st.sampled_from(["a", "b"])


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return Compare(Col(draw(_COLUMNS)), draw(_OPS),
                       Const(draw(st.integers(-5, 25))))
    combiner = draw(st.sampled_from([And, Or]))
    return combiner(draw(predicates(depth=depth - 1)),
                    draw(predicates(depth=depth - 1)))


@st.composite
def queries(draw):
    predicate = draw(st.one_of(st.none(), predicates()))
    join = None
    post_predicate = None
    if draw(st.booleans()):
        join = JoinSpec(build_table="dim", build_key="pk",
                        probe_key="fk", payload=("payload",))
        if draw(st.booleans()):
            # A predicate spanning both sides, evaluated post-probe.
            post_predicate = draw(st.sampled_from([And, Or]))(
                Compare(Col("payload"), draw(_OPS),
                        Const(draw(st.integers(0, 100)))),
                Compare(Col("a"), draw(_OPS),
                        Const(draw(st.integers(-5, 25)))))
    if draw(st.booleans()):
        pool = ["a", "b"] + (["payload"] if join else [])
        names = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=3, unique=True))
        order_by = None
        limit = None
        descending = False
        if draw(st.booleans()):
            order_by = draw(st.sampled_from(names))
            descending = draw(st.booleans())
            if draw(st.booleans()):
                limit = draw(st.integers(1, 20))
        return Query(table="fact", predicate=predicate, join=join,
                     post_predicate=post_predicate,
                     select=tuple((n, Col(n)) for n in names),
                     order_by=order_by, descending=descending, limit=limit,
                     distinct=draw(st.booleans()))
    agg_pool = [AggSpec("count", None, "n"),
                AggSpec("sum", Col("a"), "s"),
                AggSpec("min", Col("b"), "lo"),
                AggSpec("max", Col("b"), "hi")]
    if join:
        agg_pool.append(AggSpec("sum", Col("payload"), "p"))
    count = draw(st.integers(1, len(agg_pool)))
    return Query(table="fact", predicate=predicate, join=join,
                 post_predicate=post_predicate,
                 aggregates=tuple(agg_pool[:count]))


@st.composite
def datasets(draw):
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(seed)
    fact = np.empty(n, dtype=FACT_SCHEMA.numpy_dtype())
    fact["a"] = rng.integers(-10, 30, n)
    fact["b"] = rng.integers(-10, 30, n)
    fact["fk"] = rng.integers(0, 12, n)  # some fks dangle (pk 0..7)
    dim = np.empty(8, dtype=DIM_SCHEMA.numpy_dtype())
    dim["pk"] = np.arange(8)
    dim["payload"] = rng.integers(0, 100, 8)
    return fact, dim


@given(queries(), datasets(), st.sampled_from([Layout.NSM, Layout.PAX]))
@settings(max_examples=40, deadline=None)
def test_three_way_equivalence(query, data, layout):
    fact, dim = data
    db = Database()
    db.create_smart_ssd()
    db.create_table("fact", FACT_SCHEMA, layout, fact, "smart-ssd")
    db.create_table("dim", DIM_SCHEMA, layout, dim, "smart-ssd")

    expected = run_reference(query, {"fact": FACT_SCHEMA,
                                     "dim": DIM_SCHEMA},
                             {"fact": fact, "dim": dim})
    host = db.execute_placed(query, Placement.HOST)
    smart = db.execute_placed(query, Placement.SMART)

    if query.select:
        for name in query.output_names():
            assert np.array_equal(host.rows[name], expected[name])
            assert np.array_equal(smart.rows[name], expected[name])
    else:
        assert host.rows == smart.rows
        for agg in query.aggregates:
            assert host.rows[0][agg.name] == expected[agg.name]
