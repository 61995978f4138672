"""Property test: the vectorized page mask equals the per-page scalar rule.

:meth:`PagePruner.mask` evaluates a predicate's zone-map/Bloom checks over
every page of an extent at once. The reference below is the scalar
per-page semantics, written out page by page: a leaf keeps a page without
statistics for its column, keeps every page when its constant is
incomparable (``TypeError``), an ``And`` is analyzable when either side is,
an ``Or`` only when both are, and an empty page is never kept. Random
:class:`ExtentStats` drive both through int, decimal, float (with NaN and
infinities) and char zone maps, with columns missing per page or from the
whole extent, and with Bloom filters on some integer pages.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Add,
    And,
    Col,
    Compare,
    Const,
    LikePrefix,
    Or,
)
from repro.engine.pruning import _prefix_upper, build_pruner
from repro.storage import (
    BloomFilter,
    CharType,
    Column,
    DecimalType,
    ExtentStats,
    Int32Type,
    Int64Type,
    Schema,
    StatsConfig,
)
from repro.storage.stats import ColumnStats, PageStats

#: ``f`` is declared integer-backed, but its zone maps hold floats: the
#: pruner reads only the statistics, so this covers float bounds and NaN.
#: ``gone`` is in the schema but never in any page's statistics.
SCHEMA = Schema([
    Column("i", Int32Type()),
    Column("d", DecimalType(2)),
    Column("f", Int64Type()),
    Column("c", CharType(3)),
    Column("gone", Int32Type()),
])

_OPS = ["<", "<=", ">", ">=", "==", "!="]
_BYTES = st.binary(min_size=0, max_size=3).map(
    lambda raw: bytes(b if b in b"AB\xff" else ord("A") for b in raw))
_INTS = st.integers(-6, 6)
_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.integers(-12, 12).map(lambda x: x / 2))


def _bounds(values):
    return st.lists(values, min_size=2, max_size=2).map(
        lambda pair: ColumnStats(*sorted(pair, key=_order_key)))


def _order_key(value):
    # Sort NaN last so a float zone's vmin <= vmax where comparable.
    return (isinstance(value, float) and math.isnan(value), value)


_ZONES = {
    "i": _bounds(_INTS),
    "d": _bounds(st.integers(-600, 600)),
    "f": _bounds(_FLOATS),
    "c": _bounds(_BYTES),
}


@st.composite
def page_stats(draw):
    tuple_count = draw(st.sampled_from([0, 0, 1, 7, 40]))
    if tuple_count == 0 and draw(st.booleans()):
        return PageStats(0)  # what the codec records for an empty page
    columns = {name: draw(zone) for name, zone in _ZONES.items()
               if draw(st.integers(0, 4))}  # each column missing 1 in 5
    blooms = {}
    for name in ("i", "d"):
        zone = columns.get(name)
        if zone is not None and draw(st.booleans()):
            values = draw(st.lists(st.integers(zone.vmin, zone.vmax),
                                   min_size=1, max_size=4))
            blooms[name] = BloomFilter.from_values(
                np.array(values, dtype=np.int64), 10, 2, 7)
    return PageStats(tuple_count, columns, blooms)


@st.composite
def extents(draw):
    pages = draw(st.lists(page_stats(), min_size=1, max_size=10))
    return ExtentStats(SCHEMA, StatsConfig(), pages)


_CONSTANTS = st.one_of(
    _INTS, st.integers(-600, 600), _FLOATS, _BYTES,
    st.sampled_from(["AB", "B", None, True]))


@st.composite
def leaves(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return LikePrefix(Col(draw(st.sampled_from(["c", "i", "gone"]))),
                          draw(st.sampled_from([b"", b"A", b"AB", b"B",
                                                b"\xff", b"A\xff",
                                                b"\xff\xff"])))
    if kind == 1:  # unanalyzable: a column on both sides
        return Compare(Add(Col("i"), Const(1)), draw(st.sampled_from(_OPS)),
                       Col("d"))
    name = draw(st.sampled_from(["i", "d", "f", "c", "gone", "absent"]))
    op = draw(st.sampled_from(_OPS))
    const = Const(draw(_CONSTANTS))
    if kind == 2:  # Const <op> Col
        return Compare(const, op, Col(name))
    return Compare(Col(name), op, const)


def predicates(depth=3):
    return st.recursive(
        leaves(),
        lambda inner: st.builds(lambda combine, left, right:
                                combine(left, right),
                                st.sampled_from([And, Or]), inner, inner),
        max_leaves=2 ** depth)


# -- the scalar per-page reference ------------------------------------------

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "==": "==", "!=": "!="}


def reference(node):
    """Per-page check ``page -> bool`` for ``node``, or None when the node
    gives nothing to prune on."""
    if isinstance(node, And):
        left, right = reference(node.left), reference(node.right)
        if left is None:
            return right
        if right is None:
            return left
        return lambda page: left(page) and right(page)
    if isinstance(node, Or):
        left, right = reference(node.left), reference(node.right)
        if left is None or right is None:
            return None
        return lambda page: left(page) or right(page)
    if isinstance(node, Compare):
        return _reference_compare(node)
    if isinstance(node, LikePrefix) and isinstance(node.column, Col):
        return _reference_like(node.column.name, node.prefix)
    return None


def _guarded(name, test):
    def check(page):
        column = page.columns.get(name)
        if column is None:
            return True
        try:
            return bool(test(page, column))
        except TypeError:
            return True
    return check if SCHEMA.has_column(name) else None


def _reference_compare(node):
    if isinstance(node.left, Col) and isinstance(node.right, Const):
        name, op, value = node.left.name, node.op, node.right.value
    elif isinstance(node.left, Const) and isinstance(node.right, Col):
        name, op, value = node.right.name, _FLIPPED[node.op], node.left.value
    else:
        return None
    if isinstance(value, str):
        value = value.encode("ascii")

    def test(page, column):
        if op == "<":
            return column.vmin < value
        if op == "<=":
            return column.vmin <= value
        if op == ">":
            return column.vmax > value
        if op == ">=":
            return column.vmax >= value
        if op == "==":
            if not column.vmin <= value <= column.vmax:
                return False
            bloom = page.blooms.get(name)
            if (bloom is not None and isinstance(value, int)
                    and not isinstance(value, bool)):
                return bloom.might_contain(value)
            return True
        return not (column.vmin == column.vmax == value)

    return _guarded(name, test)


def _reference_like(name, prefix):
    upper = _prefix_upper(prefix)

    def test(page, column):
        if column.vmax < prefix:
            return False
        return upper is None or not column.vmin >= upper

    return _guarded(name, test)


def reference_mask(predicate, stats):
    check = reference(predicate)
    if check is None:
        return None
    return np.array([stats.page(i).tuple_count > 0
                     and check(stats.page(i))
                     for i in range(stats.page_count)], dtype=bool)


@given(extents(), predicates())
@settings(max_examples=400, deadline=None)
def test_mask_equals_per_page_reference(stats, predicate):
    pruner = build_pruner(predicate, SCHEMA)
    expected = reference_mask(predicate, stats)
    if expected is None:
        assert pruner is None
        return
    assert pruner is not None
    mask = pruner.mask(stats)
    assert mask.dtype == bool and mask.shape == (stats.page_count,)
    assert mask.tolist() == expected.tolist(), predicate


@given(extents(), predicates())
@settings(max_examples=60, deadline=None)
def test_nested_sides_commute(stats, predicate):
    # Left- and right-nested trees over the same leaves prune alike.
    for combine in (And, Or):
        left = build_pruner(combine(combine(predicate, predicate),
                                    predicate), SCHEMA)
        right = build_pruner(combine(predicate,
                                     combine(predicate, predicate)), SCHEMA)
        if left is None:
            assert right is None
            continue
        assert left.leaf_checks == right.leaf_checks
        assert left.mask(stats).tolist() == right.mask(stats).tolist()


def test_reference_covers_the_edge_cases():
    """Hand-picked pages the generator must also reach, pinned explicitly."""
    pages = [
        PageStats(5, {"i": ColumnStats(3, 3), "f": ColumnStats(math.nan,
                                                               math.nan),
                      "c": ColumnStats(b"\xff\xff\xff", b"\xff\xff\xff")}),
        PageStats(0),
        PageStats(5, {"i": ColumnStats(0, 9)},
                  {"i": BloomFilter.from_values(np.array([0, 9]), 10, 2, 7)}),
    ]
    stats = ExtentStats(SCHEMA, StatsConfig(), pages)
    cases = [
        Compare(Col("i"), "!=", Const(3)),             # single-valued page
        Compare(Col("i"), "==", Const(4)),             # Bloom rejects 4
        Compare(Col("f"), "<", Const(0.5)),            # NaN bounds
        LikePrefix(Col("c"), b"\xff\xff"),             # no upper bound
        Compare(Col("i"), "<", Const("oops")),         # incomparable
        Or(Compare(Col("i"), ">", Const(5)),
           Compare(Col("gone"), "<", Const(0))),       # column in no page
        And(Compare(Add(Col("i"), Const(1)), "<", Col("d")),
            Compare(Col("i"), "<", Const(1))),         # one side analyzable
    ]
    for predicate in cases:
        expected = reference_mask(predicate, stats)
        assert (build_pruner(predicate, SCHEMA).mask(stats).tolist()
                == expected.tolist()), predicate
        assert not expected[1]  # the empty page is never kept
