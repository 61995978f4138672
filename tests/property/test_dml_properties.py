"""Property tests: UPDATE/flush against an in-memory NumPy model."""

from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Col, Compare, Const, Mul, Query, AggSpec, Placement
from repro.engine import Add, And, CaseWhen, Or, and_all
from repro.host.db import Database
from repro.host.dml import update_process
from repro.model.counters import WorkCounters
from repro.storage import Column, Int32Type, Layout, Schema
from repro.storage import CharType, Int64Type, decode_page
from repro.storage.layout import tuples_per_page

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


# -- cutting a table into I/O units never shows -----------------------------

WIDE = Schema([Column("k", Int32Type()), Column("a", Int32Type()),
               Column("b", Int64Type()), Column("pad", CharType(300))])
CUTS = (1, 3, 32)


def _predicate(kind, lo, hi, x):
    """(expression, NumPy model of its mask) for one predicate shape."""
    k, a = Col("k"), Col("a")
    ge, lt = Compare(k, ">=", Const(lo)), Compare(k, "<", Const(hi))
    if kind == "none":
        return None, lambda r: np.ones(len(r), dtype=bool)
    if kind == "left":      # and_all's left-nested chain: batch-exact
        return (and_all([ge, lt, Compare(a, "!=", Const(x))]),
                lambda r: (r["k"] >= lo) & (r["k"] < hi) & (r["a"] != x))
    if kind == "right":     # right-nested And: not batch-exact
        return (And(ge, And(lt, Compare(a, "!=", Const(x)))),
                lambda r: (r["k"] >= lo) & (r["k"] < hi) & (r["a"] != x))
    if kind == "right_or":  # right-nested Or: not batch-exact
        return (Or(Compare(k, "<", Const(lo)),
                   Or(Compare(k, ">=", Const(hi)),
                      Compare(a, "==", Const(x)))),
                lambda r: (r["k"] < lo) | (r["k"] >= hi) | (r["a"] == x))
    return (Compare(k, "<", Const(-1)),   # matches nothing
            lambda r: np.zeros(len(r), dtype=bool))


def _assignments(kind, c):
    """(assignments, NumPy model of the new values from the old row)."""
    if kind == "const":
        return ({"a": c, "pad": "u"},
                lambda r: {"a": c, "pad": b"u".ljust(300)})  # space-padded
    if kind == "arith":
        return ({"b": Add(Mul(Col("a"), Const(3)), Col("b"))},
                lambda r: {"b": r["a"].astype(np.int64) * 3 + r["b"]})
    if kind == "case":      # a CASE on the right-hand side clamps per page
        return ({"a": CaseWhen(Compare(Col("b"), ">", Const(c)), Col("k"),
                               Const(-1))},
                lambda r: {"a": np.where(r["b"] > c, r["k"], -1)})
    return ({"a": Col("b"), "b": Col("a")},   # a swap reads pre-update rows
            lambda r: {"a": r["b"], "b": r["a"]})


@st.composite
def unit_cut_cases(draw):
    layout = draw(st.sampled_from([Layout.NSM, Layout.PAX]))
    cap = tuples_per_page(layout, WIDE)
    pages = draw(st.integers(1, 40))
    n = (pages - 1) * cap + draw(st.integers(1, cap))   # ragged last page
    rhs = st.sampled_from(["const", "arith", "case", "swap"])
    statement = st.tuples(
        st.sampled_from(["none", "left", "right", "right_or", "zero"]),
        st.integers(-5, n + 5), st.integers(0, n + 5), st.integers(-3, 3),
        rhs, st.integers(-20, 20))
    # Later statements find the earlier ones' pages dirty in the pool; the
    # last statement always hits nothing.
    script = draw(st.lists(statement, min_size=1, max_size=3))
    script.append(("zero", 0, 0, 0, draw(rhs), 0))
    return layout, n, draw(st.integers(0, 2**31)), script


def _run_cut(layout, rows, script, cut):
    db = Database()
    db.create_smart_ssd()
    db.create_table("t", WIDE, layout, rows, "smart-ssd")
    outcomes = []
    for pkind, lo, hi, x, akind, c in script:
        counters = WorkCounters()
        proc = db.sim.process(update_process(
            db, "t", _predicate(pkind, lo, hi, x)[0],
            _assignments(akind, c)[0], io_unit_pages=cut,
            counters_out=counters))
        db.sim.run()
        outcomes.append((proc.value, counters))
    heap = db.catalog.table("t").heap
    pool = {lpn: db.buffer_pool.lookup("smart-ssd", lpn)
            for lpn in heap.lpns()}
    return outcomes, pool, db.buffer_pool.dirty_lpns("smart-ssd")


@given(unit_cut_cases())
@settings(max_examples=30, deadline=None)
def test_unit_cut_is_unobservable(case):
    """Any io_unit_pages gives the same page bytes, rows changed and
    counters (but the per-unit submission count), and the model's rows."""
    layout, n, seed, script = case
    rng = np.random.default_rng(seed)
    rows = np.zeros(n, dtype=WIDE.numpy_dtype())
    rows["k"] = np.arange(n)
    rows["a"] = rng.integers(-3, 4, n)
    rows["b"] = rng.integers(-1000, 1000, n)
    rows["pad"] = b"p"
    model = rows.copy()
    expected_changed = []
    for pkind, lo, hi, x, akind, c in script:
        mask = _predicate(pkind, lo, hi, x)[1](model)
        new = _assignments(akind, c)[1](model.copy())  # pre-update row
        for name, values in new.items():
            model[name][mask] = np.broadcast_to(values, n)[mask]
        expected_changed.append(int(mask.sum()))

    runs = {cut: _run_cut(layout, rows, script, cut) for cut in CUTS}
    base_outcomes, base_pool, base_dirty = runs[1]   # one-page units
    pages = len(base_pool)
    for cut, (outcomes, pool, dirty) in runs.items():
        assert [changed for changed, _ in outcomes] == expected_changed
        stored = np.concatenate([decode_page(WIDE, page)
                                 for page in pool.values()])
        assert np.array_equal(stored, model)
        assert pool == base_pool and dirty == base_dirty
        for (changed, counters), (_, base), statement in zip(
                outcomes, base_outcomes, script):
            assigned = len(_assignments(statement[4], 0)[0])
            assert counters.pages_parsed == pages
            assert counters.output_values == changed * assigned
            assert counters.io_units == -(-pages // cut)
            assert ({**asdict(counters), "io_units": 0}
                    == {**asdict(base), "io_units": 0})
