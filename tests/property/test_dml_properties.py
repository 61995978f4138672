"""Property tests: UPDATE/flush against an in-memory NumPy model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Col, Compare, Const, Mul, Query, AggSpec, Placement
from repro.host.db import Database
from repro.storage import Column, Int32Type, Layout, Schema

SCHEMA = Schema([Column("k", Int32Type()), Column("v", Int32Type())])


@st.composite
def update_scripts(draw):
    """A sequence of (threshold, assignment, flush?) update steps."""
    steps = draw(st.lists(
        st.tuples(
            st.integers(-5, 60),                 # predicate threshold on k
            st.one_of(st.integers(-100, 100),    # constant assignment
                      st.just("double")),        # expression assignment
            st.booleans(),                       # flush afterwards?
        ),
        min_size=1, max_size=6))
    return steps


@given(update_scripts(), st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_updates_track_numpy_model(steps, seed):
    rng = np.random.default_rng(seed)
    n = 50
    rows = np.empty(n, dtype=SCHEMA.numpy_dtype())
    rows["k"] = np.arange(n)
    rows["v"] = rng.integers(-50, 50, n)
    model = rows["v"].astype(np.int64).copy()

    db = Database()
    db.create_smart_ssd()
    db.create_table("t", SCHEMA, Layout.PAX, rows, "smart-ssd")

    flushed_everything = False
    for threshold, assignment, flush in steps:
        predicate = Compare(Col("k"), "<", Const(threshold))
        mask = np.arange(n) < threshold
        if assignment == "double":
            value = Mul(Col("v"), Const(2))
            expected_vals = model * 2
        else:
            value = assignment
            expected_vals = np.full(n, assignment, dtype=np.int64)
        # Keep values in int32 range (doubling repeatedly could overflow).
        if np.abs(expected_vals[mask]).max(initial=0) > 2**30:
            continue
        changed = db.update_rows("t", predicate, {"v": value})
        assert changed == int(mask.sum())
        model[mask] = expected_vals[mask]
        if flush:
            db.flush_table("t")
            flushed_everything = True

    # The host path always sees the model.
    total = Query(table="t", aggregates=(AggSpec("sum", Col("v"), "s"),))
    host = db.execute_placed(total, Placement.HOST)
    assert host.rows[0]["s"] == int(model.sum())

    # After a final flush, pushdown agrees too.
    db.flush_table("t")
    smart = db.execute_placed(total, Placement.SMART)
    assert smart.rows[0]["s"] == int(model.sum())
