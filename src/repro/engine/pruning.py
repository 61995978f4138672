"""Compile predicates into conservative page-level pruning masks.

:func:`build_pruner` walks an expression tree and produces a
:class:`PagePruner` that answers, for every page of an extent at once:
*given this page's zone maps (and Bloom filters), could any tuple on it
satisfy the predicate?* :meth:`PagePruner.mask` returns that answer as one
boolean vector over the extent's pages, evaluated with NumPy comparisons
over :class:`~repro.storage.stats.ExtentStats` column vectors. A ``False``
must never be wrong — a pruned page is guaranteed to hold no qualifying
tuple — but false ``True`` answers are fine (the page is read and filtered
normally).

Only analyzable shapes prune:

* ``Col <op> Const`` (either operand order) over a zone map, with an
  equality probe additionally consulting the column's Bloom filter on the
  pages whose range admits the constant;
* ``LikePrefix(Col, prefix)`` as a byte-range check over a char zone map;
* ``And``/``Or`` combinations thereof — an ``Or`` prunes only when *both*
  sides are analyzable, an ``And`` when *either* side is.

Anything else (arithmetic over columns, ``CaseWhen``, column-vs-column
comparisons) conservatively matches every page. When no leaf is analyzable
at all, :func:`build_pruner` returns ``None`` and the scan proceeds
unpruned with zero overhead.

The zone vectors hold the Python scalars the per-page statistics hold
(object dtype), so every comparison has exactly Python's semantics: NaN
bounds compare false, byte strings compare with their trailing NULs, and an
incomparable constant raises ``TypeError``, which makes the leaf keep every
page.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.engine.expressions import (
    And,
    Col,
    Compare,
    Const,
    Expr,
    LikePrefix,
    Or,
)
from repro.storage.schema import Schema
from repro.storage.stats import ExtentStats

_Check = Callable[[ExtentStats], np.ndarray]


class PagePruner:
    """A compiled page-qualification check for one predicate.

    Attributes:
        leaf_checks: number of analyzable leaves consulted per page — the
            unit the cost model charges as ``zone_map_checks``.
    """

    __slots__ = ("_check", "leaf_checks", "_memo")

    def __init__(self, check: _Check, leaf_checks: int):
        self._check = check
        self.leaf_checks = leaf_checks
        self._memo: Optional[tuple[ExtentStats, int, np.ndarray]] = None

    def mask(self, stats: ExtentStats) -> np.ndarray:
        """Read-only boolean vector over ``stats``' pages: False only where
        the page provably holds no qualifying tuple (an empty page never
        does).

        Computed once per extent and reused until :meth:`ExtentStats.refresh`
        changes the statistics, so a scan may ask once per I/O unit.
        """
        memo = self._memo
        if memo is not None and memo[0] is stats and memo[1] == stats.version:
            return memo[2]
        # A NaN bound compares false, as in Python; NumPy would also warn
        # about the FP flag Python's comparison raises.
        with np.errstate(invalid="ignore"):
            keep = self._check(stats) & (stats.tuple_counts > 0)
        keep.flags.writeable = False
        self._memo = (stats, stats.version, keep)
        return keep


def build_pruner(predicate: Optional[Expr],
                 schema: Schema) -> Optional[PagePruner]:
    """Compile ``predicate`` into a :class:`PagePruner`, or ``None``.

    ``None`` means the predicate (or its absence) gives the device nothing
    to prune on; callers skip the statistics check entirely.
    """
    if predicate is None:
        return None
    check, leaves = _compile(predicate, schema)
    if check is None or leaves == 0:
        return None
    return PagePruner(check, leaves)


def _compile(node: Expr, schema: Schema) -> tuple[Optional[_Check], int]:
    """Recursive compile: (check, leaf_count); (None, 0) = unanalyzable."""
    if isinstance(node, And):
        left, nl = _compile(node.left, schema)
        right, nr = _compile(node.right, schema)
        if left is None:
            return right, nr
        if right is None:
            return left, nl
        return (lambda stats: left(stats) & right(stats)), nl + nr
    if isinstance(node, Or):
        left, nl = _compile(node.left, schema)
        right, nr = _compile(node.right, schema)
        if left is None or right is None:
            return None, 0
        return (lambda stats: left(stats) | right(stats)), nl + nr
    if isinstance(node, Compare):
        return _compile_compare(node, schema)
    if isinstance(node, LikePrefix):
        return _compile_like(node, schema)
    return None, 0


def _zone_leaf(name: str, test: Callable[[ExtentStats, np.ndarray,
                                          np.ndarray], np.ndarray]) -> _Check:
    """A leaf over column ``name``'s zone vectors.

    ``test(stats, vmin, vmax)`` gives the per-page verdict; pages without
    statistics for the column, and every page when the constant is
    incomparable (``TypeError``), are kept.
    """
    def check(stats: ExtentStats) -> np.ndarray:
        zone = stats.zone(name)
        if zone is None:
            return np.ones(stats.page_count, dtype=bool)
        present, vmin, vmax = zone
        try:
            keep = test(stats, vmin, vmax)
        except TypeError:
            return np.ones(stats.page_count, dtype=bool)
        return keep if present is None else keep | ~present

    return check


def _compile_compare(node: Compare,
                     schema: Schema) -> tuple[Optional[_Check], int]:
    if isinstance(node.left, Col) and isinstance(node.right, Const):
        name, op, value = node.left.name, node.op, node.right.value
    elif isinstance(node.left, Const) and isinstance(node.right, Col):
        name, value = node.right.name, node.left.value
        op = _FLIPPED[node.op]
    else:
        return None, 0
    if not schema.has_column(name):
        return None, 0
    if isinstance(value, str):
        value = value.encode("ascii")

    if op == "<":
        def test(stats, vmin, vmax):
            return vmin < value
    elif op == "<=":
        def test(stats, vmin, vmax):
            return vmin <= value
    elif op == ">":
        def test(stats, vmin, vmax):
            return vmax > value
    elif op == ">=":
        def test(stats, vmin, vmax):
            return vmax >= value
    elif op == "==":
        probe = (isinstance(value, (int, np.integer))
                 and not isinstance(value, bool))

        def test(stats, vmin, vmax):
            keep = (vmin <= value) & (vmax >= value)
            if probe:
                # Bloom filters only where the zone map admits the value.
                key = int(value)
                for index in np.flatnonzero(keep).tolist():
                    bloom = stats.page(index).blooms.get(name)
                    if bloom is not None and not bloom.might_contain(key):
                        keep[index] = False
            return keep
    else:
        # "!=" prunes only a constant single-valued page.
        def test(stats, vmin, vmax):
            return ~((vmin == vmax) & (vmax == value))

    return _zone_leaf(name, test), 1


#: ``Const <op> Col`` rewritten as ``Col <flipped-op> Const``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "==": "==", "!=": "!="}


def _compile_like(node: LikePrefix,
                  schema: Schema) -> tuple[Optional[_Check], int]:
    if not isinstance(node.column, Col):
        return None, 0
    name = node.column.name
    if not schema.has_column(name):
        return None, 0
    prefix = node.prefix
    upper = _prefix_upper(prefix)

    def test(stats, vmin, vmax):
        # Matching values live in the byte range [prefix, upper).
        keep = ~(vmax < prefix)
        if upper is not None:
            keep &= ~(vmin >= upper)
        return keep

    return _zone_leaf(name, test), 1


def _prefix_upper(prefix: bytes) -> Optional[bytes]:
    """Smallest byte string greater than every ``prefix``-prefixed value.

    Increments the last non-0xFF byte and truncates; an all-0xFF prefix has
    no upper bound (``None``), so only the lower bound prunes.
    """
    out = bytearray(prefix)
    while out:
        if out[-1] != 0xFF:
            out[-1] += 1
            return bytes(out)
        out.pop()
    return None
