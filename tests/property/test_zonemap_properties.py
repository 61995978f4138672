"""Property tests: data skipping must never skip a qualifying page.

Pruning soundness is the invariant the whole skipping layer stands on: a
page the zone-map/Bloom checks reject must provably hold no qualifying
tuple. False "keep" answers are fine (the page is read and filtered
normally); a single false "skip" silently corrupts every query that runs
over the extent. These tests drive randomized tables and predicate trees
through the same compile path the device programs use, and additionally
check the end-to-end differential (skipping on vs off) and the Bloom
filter's configured false-positive bound.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import And, Col, Compare, Const, LikePrefix, Or, Query
from repro.engine.expressions import EvalContext
from repro.engine.plans import Placement
from repro.engine.pruning import build_pruner, _prefix_upper
from repro.errors import CatalogError, StorageError
from repro.host.db import Database
from repro.model.counters import WorkCounters
from repro.storage import (
    BloomFilter,
    CharType,
    Column,
    ExtentStats,
    Int32Type,
    Int64Type,
    Layout,
    Schema,
    StatsConfig,
    build_heap_pages,
)
from repro.storage.layout import tuples_per_page

SCHEMA = Schema([
    Column("k", Int32Type()),
    Column("v", Int64Type()),
    Column("tag", CharType(4)),
])

#: Blooms on every integer-backed column, so equality probes exercise them.
STATS_CONFIG = StatsConfig(bloom_columns=None)

_OPS = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
_INT_COLUMNS = st.sampled_from(["k", "v"])
_PREFIXES = st.sampled_from(["A", "AB", "B", "BAA", "ZZ"])
_TAGS = ["ABEL", "ABLE", "AXIS", "BAKE", "BARN", "ZINC"]


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return LikePrefix(Col("tag"), draw(_PREFIXES))
        column, op = draw(_INT_COLUMNS), draw(_OPS)
        const = Const(draw(st.integers(-50, 250)))
        if kind == 1:  # Const <op> Col: the flipped-operand compile path
            return Compare(const, op, Col(column))
        return Compare(Col(column), op, const)
    combiner = draw(st.sampled_from([And, Or]))
    return combiner(draw(predicates(depth=depth - 1)),
                    draw(predicates(depth=depth - 1)))


@st.composite
def datasets(draw):
    """Rows with clustered runs, so zone maps actually get pruning wins."""
    seed = draw(st.integers(0, 2**31))
    n = draw(st.integers(0, 600))
    clustered = draw(st.booleans())
    rng = np.random.default_rng(seed)
    rows = np.empty(n, dtype=SCHEMA.numpy_dtype())
    rows["k"] = rng.integers(-20, 220, n)
    rows["v"] = rng.integers(-20, 220, n)
    if clustered:
        rows["k"] = np.sort(rows["k"])
    rows["tag"] = rng.choice(np.array(_TAGS, dtype="S4"), n) if n else b""
    return rows


def _page_qualifiers(predicate, chunk: np.ndarray) -> int:
    """Rows of ``chunk`` passing ``predicate``, by direct evaluation."""
    n = len(chunk)
    if n == 0:
        return 0
    columns = {name: np.ascontiguousarray(chunk[name])
               for name in predicate.columns()}
    ctx = EvalContext(columns, n, WorkCounters(), Layout.PAX)
    return int(np.count_nonzero(predicate.evaluate(ctx, n)))


@given(datasets(), predicates())
@settings(max_examples=120, deadline=None)
def test_pruning_never_skips_a_qualifying_page(rows, predicate):
    pruner = build_pruner(predicate, SCHEMA)
    if pruner is None:
        return  # unanalyzable predicate: nothing skips, trivially sound
    assert pruner.leaf_checks >= 1
    stats = ExtentStats.from_rows(SCHEMA, rows, Layout.PAX, STATS_CONFIG)
    capacity = tuples_per_page(Layout.PAX, SCHEMA)
    for index in np.flatnonzero(~pruner.mask(stats)):
        chunk = rows[index * capacity:(index + 1) * capacity]
        assert _page_qualifiers(predicate, chunk) == 0, (
            f"page {index} was pruned but holds qualifying tuples "
            f"under {predicate!r}")


@given(datasets(), predicates())
@settings(max_examples=60, deadline=None)
def test_stats_from_pages_prune_identically(rows, predicate):
    """Encode-then-scan statistics agree with the row-built ones."""
    pruner = build_pruner(predicate, SCHEMA)
    if pruner is None:
        return
    from_rows = ExtentStats.from_rows(SCHEMA, rows, Layout.PAX, STATS_CONFIG)
    pages = list(build_heap_pages(SCHEMA, rows, Layout.PAX))
    from_pages = ExtentStats.from_pages(SCHEMA, pages, STATS_CONFIG)
    assert from_rows.page_count == from_pages.page_count == len(pages)
    assert np.array_equal(pruner.mask(from_rows), pruner.mask(from_pages))


@given(datasets(), predicates())
@settings(max_examples=25, deadline=None)
def test_differential_skipping_on_vs_off(rows, predicate):
    """End to end: a pruned device scan returns exactly the unpruned rows."""
    query = Query(table="t", predicate=predicate,
                  select=(("k", Col("k")), ("v", Col("v"))))
    results = []
    for config in (STATS_CONFIG, None):
        db = Database()
        db.create_smart_ssd()
        db.create_table("t", SCHEMA, Layout.PAX, rows, "smart-ssd",
                        stats_config=config)
        results.append(db.execute_placed(query, Placement.SMART))
    pruned, full = results
    assert full.counters.pages_skipped == 0
    for name in ("k", "v"):
        assert pruned.rows[name].dtype == full.rows[name].dtype
        assert np.array_equal(pruned.rows[name], full.rows[name])


# -- Bloom filter ----------------------------------------------------------


@given(st.integers(0, 2**31), st.integers(1, 4000))
@settings(max_examples=40, deadline=None)
def test_bloom_has_no_false_negatives(seed, n):
    rng = np.random.default_rng(seed)
    values = rng.integers(-2**40, 2**40, n, dtype=np.int64)
    config = StatsConfig()
    bloom = BloomFilter.from_values(values, config.bloom_bits_per_value,
                                    config.bloom_hashes, config.bloom_seed)
    for value in np.unique(values)[:200]:
        assert bloom.might_contain(int(value))


def test_bloom_false_positive_rate_within_bound():
    config = StatsConfig()
    rng = np.random.default_rng(0x5EED)
    members = rng.integers(0, 10**9, 4000, dtype=np.int64)
    bloom = BloomFilter.from_values(members, config.bloom_bits_per_value,
                                    config.bloom_hashes, config.bloom_seed)
    member_set = set(members.tolist())
    probes = [v for v in range(10**9 + 1, 10**9 + 6001)
              if v not in member_set]
    hits = sum(bloom.might_contain(v) for v in probes)
    bound = config.false_positive_bound()
    # 5x headroom over the analytic bound: at ~1.2% expected FP rate and
    # 6000 probes this is >25 sigma — a failure means a broken filter, not
    # an unlucky draw.
    assert hits / len(probes) <= 5 * bound
    assert 0.0 < bound < 0.05


def test_bloom_bound_formula():
    config = StatsConfig(bloom_bits_per_value=10, bloom_hashes=4)
    expected = (1.0 - math.exp(-4 / 10)) ** 4
    assert config.false_positive_bound() == pytest.approx(expected)


# -- unit coverage of the stats/pruning plumbing ---------------------------


def test_stats_config_validation():
    with pytest.raises(StorageError):
        StatsConfig(bloom_bits_per_value=0)
    with pytest.raises(StorageError):
        StatsConfig(bloom_hashes=0)


def test_bloom_columns_resolution():
    assert StatsConfig(bloom_columns=()).resolve_bloom_columns(SCHEMA) == ()
    auto = StatsConfig(bloom_columns=None).resolve_bloom_columns(SCHEMA)
    assert set(auto) == {"k", "v"}  # char columns never get blooms
    explicit = StatsConfig(bloom_columns=("k",))
    assert explicit.resolve_bloom_columns(SCHEMA) == ("k",)
    with pytest.raises(StorageError):
        StatsConfig(bloom_columns=("tag",)).resolve_bloom_columns(SCHEMA)
    with pytest.raises(CatalogError):
        StatsConfig(bloom_columns=("nope",)).resolve_bloom_columns(SCHEMA)


def test_empty_relation_stats_prune_everything():
    rows = np.empty(0, dtype=SCHEMA.numpy_dtype())
    stats = ExtentStats.from_rows(SCHEMA, rows, Layout.PAX, STATS_CONFIG)
    assert stats.page_count == 1  # heaps always hold at least one page
    pruner = build_pruner(Compare(Col("k"), ">=", Const(-10**9)), SCHEMA)
    assert pruner is not None
    assert not pruner.mask(stats)[0]


def test_unanalyzable_predicates_build_no_pruner():
    assert build_pruner(None, SCHEMA) is None
    # Column-vs-column comparisons cannot consult a zone map.
    assert build_pruner(Compare(Col("k"), "<", Col("v")), SCHEMA) is None
    # An Or with one unanalyzable side must not prune on the other alone.
    mixed = Or(Compare(Col("k"), "<", Col("v")),
               Compare(Col("k"), "<", Const(0)))
    assert build_pruner(mixed, SCHEMA) is None
    # ...but an And may: either conjunct alone is a valid page filter.
    anded = And(Compare(Col("k"), "<", Col("v")),
                Compare(Col("k"), "<", Const(0)))
    pruner = build_pruner(anded, SCHEMA)
    assert pruner is not None and pruner.leaf_checks == 1


def test_incomparable_constant_never_prunes():
    rows = np.zeros(4, dtype=SCHEMA.numpy_dtype())
    rows["tag"] = b"ABEL"
    stats = ExtentStats.from_rows(SCHEMA, rows, Layout.PAX, STATS_CONFIG)
    pruner = build_pruner(Compare(Col("k"), "<", Const("oops")), SCHEMA)
    assert pruner.mask(stats)[0]


def test_prefix_upper_edge_cases():
    assert _prefix_upper(b"AB") == b"AC"
    assert _prefix_upper(b"A\xff") == b"B"
    assert _prefix_upper(b"\xff\xff") is None


def test_refresh_tracks_overwritten_page():
    rows = np.zeros(8, dtype=SCHEMA.numpy_dtype())
    rows["k"] = np.arange(8)
    rows["tag"] = b"ABEL"
    stats = ExtentStats.from_rows(SCHEMA, rows, Layout.PAX, STATS_CONFIG)
    replacement = np.zeros(8, dtype=SCHEMA.numpy_dtype())
    replacement["k"] = np.arange(1000, 1008)
    replacement["tag"] = b"ZINC"
    (page,) = build_heap_pages(SCHEMA, replacement, Layout.PAX)
    stats.refresh(0, page)
    assert stats.page(0).columns["k"].vmin == 1000
    pruner = build_pruner(Compare(Col("k"), "<", Const(10)), SCHEMA)
    assert not pruner.mask(stats)[0]


def test_copy_isolates_refreshes():
    rows = np.zeros(4, dtype=SCHEMA.numpy_dtype())
    rows["tag"] = b"ABEL"
    stats = ExtentStats.from_rows(SCHEMA, rows, Layout.PAX, STATS_CONFIG)
    clone = stats.copy()
    replacement = np.zeros(4, dtype=SCHEMA.numpy_dtype())
    replacement["k"] = 77
    replacement["tag"] = b"ZINC"
    (page,) = build_heap_pages(SCHEMA, replacement, Layout.PAX)
    clone.refresh(0, page)
    assert stats.page(0).columns["k"].vmax == 0
    assert clone.page(0).columns["k"].vmax == 77
    assert stats.nbytes > 0
