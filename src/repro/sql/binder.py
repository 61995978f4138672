"""Bind a parsed SELECT statement to a :class:`~repro.engine.plans.Query`.

The binder resolves names against the catalog and — crucially for the
paper's workload — understands the §4.1.1 storage modifications:

* comparing a x100-decimal column with ``0.05`` scales the literal to 5;
* ``DATE '1994-01-01'`` becomes days-since-epoch;
* arithmetic tracks decimal scales (``l_extendedprice * (1 - l_discount)``
  carries scale 4), and aggregate results are descaled back to human units
  in the synthesized finalize step;
* ``AVG`` expands to SUM/COUNT, and arbitrary arithmetic over aggregates
  (Q14's ``100 * SUM(..) / SUM(..)``) is evaluated in finalize.

For two-table queries the smaller relation becomes the hash-join build side
(the paper's plan shape); the equality predicate linking the tables is
lifted out of WHERE (comma joins) or taken from ``JOIN ... ON``.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.engine import expressions as engine
from repro.engine.plans import AggSpec, JoinSpec, Query
from repro.host.catalog import Catalog, Table
from repro.sql import parser as ast
from repro.sql.lexer import SqlError
from repro.storage.types import CharType, DecimalType

# ---------------------------------------------------------------------------
# Name resolution
# ---------------------------------------------------------------------------


class _Scope:
    """Tables in scope and column resolution."""

    def __init__(self, tables: list[Table]):
        self.tables = tables

    def resolve(self, ref: ast.ColRef) -> tuple[Table, str]:
        if ref.table is not None:
            for table in self.tables:
                if table.name == ref.table:
                    if not table.schema.has_column(ref.name):
                        raise SqlError(
                            f"table {ref.table!r} has no column {ref.name!r}")
                    return table, ref.name
            raise SqlError(f"unknown table {ref.table!r}")
        owners = [table for table in self.tables
                  if table.schema.has_column(ref.name)]
        if not owners:
            raise SqlError(f"unknown column {ref.name!r}")
        if len(owners) > 1:
            raise SqlError(f"ambiguous column {ref.name!r}; qualify it")
        return owners[0], ref.name


# ---------------------------------------------------------------------------
# Scale-aware expression binding
# ---------------------------------------------------------------------------


@dataclass
class _Bound:
    """A bound scalar expression with its decimal scale.

    ``literal`` is set (and ``expr`` is None) while the value is still a
    pure literal whose scale can adapt to context. ``char_width`` carries
    the fixed width of CHAR columns so string literals can be
    space-padded for comparisons.
    """

    expr: Optional[engine.Expr]
    scale: int
    literal: Optional[float] = None
    char_width: Optional[int] = None

    def realize(self, scale: Optional[int] = None) -> engine.Expr:
        """Materialize as an engine expression at the given scale."""
        if self.expr is not None:
            return self.expr
        target = self.scale if scale is None else scale
        value = self.literal * (10 ** target)
        rounded = round(value)
        if abs(value - rounded) < 1e-9:
            return engine.Const(int(rounded))
        return engine.Const(value)

    def at_scale(self, scale: int) -> "_Bound":
        """Adapt a literal to a context scale (no-op for bound columns)."""
        if self.literal is None:
            if self.scale != scale:
                raise SqlError(
                    f"decimal scale mismatch ({self.scale} vs {scale}); "
                    "rescale one side explicitly")
            return self
        return _Bound(expr=None, scale=scale, literal=self.literal)


_EPOCH = datetime.date(1970, 1, 1)

_CMP_MAP = {"=": "==", "<>": "!=", "!=": "!=",
            "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _parse_date(text: str) -> int:
    try:
        year, month, day = (int(part) for part in text.split("-"))
        return (datetime.date(year, month, day) - _EPOCH).days
    except (ValueError, TypeError) as exc:
        raise SqlError(f"bad DATE literal {text!r}") from exc


class _ExprBinder:
    """Binds scan-side (non-aggregate) scalar and boolean expressions."""

    def __init__(self, scope: _Scope):
        self.scope = scope

    # -- scalars -----------------------------------------------------------

    def scalar(self, node: Any) -> _Bound:
        if isinstance(node, ast.NumberLit):
            return _Bound(expr=None, scale=0, literal=float(node.text))
        if isinstance(node, ast.DateLit):
            return _Bound(expr=engine.Const(_parse_date(node.text)), scale=0)
        if isinstance(node, ast.StringLit):
            return _Bound(expr=engine.Const(node.value.encode("ascii")),
                          scale=0)
        if isinstance(node, ast.ColRef):
            table, name = self.scope.resolve(node)
            ctype = table.schema.column(name).ctype
            scale = ctype.scale if isinstance(ctype, DecimalType) else 0
            width = ctype.length if isinstance(ctype, CharType) else None
            return _Bound(expr=engine.Col(name), scale=scale,
                          char_width=width)
        if isinstance(node, ast.BinOp):
            return self._arith(node)
        if isinstance(node, ast.CaseE):
            condition = self.boolean(node.condition)
            then = self.scalar(node.then)
            otherwise = self.scalar(node.otherwise)
            then, otherwise = _unify(then, otherwise)
            return _Bound(expr=engine.CaseWhen(condition, then.realize(),
                                               otherwise.realize()),
                          scale=then.scale)
        if isinstance(node, ast.FuncCall):
            raise SqlError("aggregates are not allowed here")
        raise SqlError(f"unsupported expression {node!r}")

    def _arith(self, node: ast.BinOp) -> _Bound:
        left = self.scalar(node.left)
        right = self.scalar(node.right)
        if node.op in ("+", "-"):
            left, right = _unify(left, right)
            if left.literal is not None and right.literal is not None:
                value = (left.literal + right.literal if node.op == "+"
                         else left.literal - right.literal)
                return _Bound(expr=None, scale=0, literal=value)
            cls = engine.Add if node.op == "+" else engine.Sub
            return _Bound(expr=cls(left.realize(), right.realize()),
                          scale=left.scale)
        if node.op == "*":
            if left.literal is not None and right.literal is not None:
                return _Bound(expr=None, scale=0,
                              literal=left.literal * right.literal)
            return _Bound(expr=engine.Mul(left.realize(), right.realize()),
                          scale=left.scale + right.scale)
        # Division: result scale is the difference; engine division is
        # floating point, so negative net scales are handled in finalize.
        if left.literal is not None and right.literal is not None:
            return _Bound(expr=None, scale=0,
                          literal=left.literal / right.literal)
        return _Bound(expr=engine.Div(left.realize(), right.realize()),
                      scale=left.scale - right.scale)

    # -- booleans ------------------------------------------------------------

    def boolean(self, node: Any) -> engine.Expr:
        if isinstance(node, ast.AndE):
            return engine.And(self.boolean(node.left),
                              self.boolean(node.right))
        if isinstance(node, ast.OrE):
            return engine.Or(self.boolean(node.left),
                             self.boolean(node.right))
        if isinstance(node, ast.Cmp):
            left = self.scalar(node.left)
            right = self.scalar(node.right)
            left, right = _unify(left, right)
            right = _pad_string_literal(left, right)
            left = _pad_string_literal(right, left)
            return engine.Compare(left.realize(), _CMP_MAP[node.op],
                                  right.realize())
        if isinstance(node, ast.BetweenE):
            expr = self.scalar(node.expr)
            low = self.scalar(node.low).at_scale(expr.scale)
            high = self.scalar(node.high).at_scale(expr.scale)
            return engine.And(
                engine.Compare(expr.realize(), ">=", low.realize()),
                engine.Compare(expr.realize(), "<=", high.realize()))
        if isinstance(node, ast.LikeE):
            pattern = node.pattern
            if not pattern.endswith("%") or "%" in pattern[:-1]:
                raise SqlError(
                    f"only prefix LIKE patterns are supported, "
                    f"got {pattern!r}")
            column = self.scalar(node.expr)
            return engine.LikePrefix(column.realize(), pattern[:-1])
        if isinstance(node, ast.InE):
            expr = self.scalar(node.expr)
            out = None
            for item in node.items:
                candidate = self.scalar(item).at_scale(expr.scale)
                candidate = _pad_string_literal(expr, candidate)
                clause = engine.Compare(expr.realize(), "==",
                                        candidate.realize())
                out = clause if out is None else engine.Or(out, clause)
            return out
        raise SqlError(f"expected a boolean expression, got {node!r}")


def _pad_string_literal(column: _Bound, other: _Bound) -> _Bound:
    """Space-pad a bytes literal to a CHAR column's fixed width."""
    if (column.char_width is not None
            and isinstance(other.expr, engine.Const)
            and isinstance(other.expr.value, bytes)):
        padded = other.expr.value.ljust(column.char_width, b" ")
        if len(padded) > column.char_width:
            raise SqlError(
                f"string literal longer than CHAR({column.char_width})")
        return _Bound(expr=engine.Const(padded), scale=0)
    return other


def _unify(a: _Bound, b: _Bound) -> tuple[_Bound, _Bound]:
    """Bring two operands to a common decimal scale via literal rescaling."""
    if a.literal is not None and b.literal is None:
        return a.at_scale(b.scale), b
    if b.literal is not None and a.literal is None:
        return a, b.at_scale(a.scale)
    if a.literal is None and b.literal is None and a.scale != b.scale:
        raise SqlError(
            f"decimal scale mismatch ({a.scale} vs {b.scale})")
    return a, b


# ---------------------------------------------------------------------------
# Aggregate select items
# ---------------------------------------------------------------------------


@dataclass
class _AggItem:
    """One select item that involves aggregates."""

    name: str
    evaluator: Callable[[dict[str, Any]], Any]
    scale: int


class _AggBinder:
    """Extracts AggSpecs and builds finalize evaluators."""

    def __init__(self, expr_binder: _ExprBinder):
        self.expr_binder = expr_binder
        self.specs: list[AggSpec] = []
        self._slot = 0
        self._count_slot: Optional[str] = None

    def _new_slot(self, kind: str) -> str:
        self._slot += 1
        return f"_{kind}_{self._slot}"

    def _row_count_slot(self) -> str:
        """COUNT(*) is shared between explicit counts and AVG denominators."""
        if self._count_slot is None:
            self._count_slot = self._new_slot("count")
            self.specs.append(AggSpec("count", None, self._count_slot))
        return self._count_slot

    def contains_aggregate(self, node: Any) -> bool:
        if isinstance(node, ast.FuncCall):
            return True
        if isinstance(node, ast.BinOp):
            return (self.contains_aggregate(node.left)
                    or self.contains_aggregate(node.right))
        if isinstance(node, ast.CaseE):
            return (self.contains_aggregate(node.then)
                    or self.contains_aggregate(node.otherwise))
        return False

    def bind_item(self, node: Any) -> tuple[Callable, int]:
        """Returns (evaluator over the merged-aggregates dict, scale)."""
        if isinstance(node, ast.FuncCall):
            return self._bind_call(node)
        if isinstance(node, ast.NumberLit):
            value = float(node.text)
            value = int(value) if value.is_integer() else value
            return (lambda values, v=value: v), 0
        if isinstance(node, ast.BinOp):
            left, left_scale = self.bind_item(node.left)
            right, right_scale = self.bind_item(node.right)
            op = node.op
            if op in ("+", "-"):
                if left_scale != right_scale:
                    raise SqlError("scale mismatch in aggregate arithmetic")
                if op == "+":
                    return (lambda v: left(v) + right(v)), left_scale
                return (lambda v: left(v) - right(v)), left_scale
            if op == "*":
                return (lambda v: left(v) * right(v)), left_scale + right_scale
            def divide(values):
                denominator = right(values)
                return left(values) / denominator if denominator else 0.0
            return divide, left_scale - right_scale
        raise SqlError(
            f"unsupported expression over aggregates: {node!r}")

    def _bind_call(self, node: ast.FuncCall) -> tuple[Callable, int]:
        if node.name == "COUNT":
            slot = self._row_count_slot()
            return (lambda values, s=slot: values[s]), 0
        bound = self.expr_binder.scalar(node.arg)
        if bound.char_width is not None:
            raise SqlError(
                f"{node.name} needs a numeric argument, got a "
                f"CHAR({bound.char_width}) column")
        expr = bound.realize()
        if node.name in ("SUM", "MIN", "MAX"):
            slot = self._new_slot(node.name.lower())
            self.specs.append(AggSpec(node.name.lower(), expr, slot))
            return (lambda values, s=slot: values[s]), bound.scale
        # AVG(x) => SUM(x) / COUNT(*).
        sum_slot = self._new_slot("sum")
        count_slot = self._row_count_slot()
        self.specs.append(AggSpec("sum", expr, sum_slot))

        def average(values, s=sum_slot, c=count_slot):
            return values[s] / values[c] if values[c] else None

        return average, bound.scale


# ---------------------------------------------------------------------------
# Statement binding
# ---------------------------------------------------------------------------


def bind(stmt: ast.SelectStmt, catalog: Catalog) -> Query:
    """Bind a parsed statement against the catalog; returns a Query."""
    tables = [catalog.table(name) for name in stmt.tables]
    scope = _Scope(tables)
    binder = _ExprBinder(scope)

    join_spec, fact, where_node = _plan_join(stmt, tables, scope)
    if join_spec is None:
        predicate = (binder.boolean(where_node)
                     if where_node is not None else None)
        post_predicate = None
    else:
        predicate, build_pred, post_predicate = _split_where(
            where_node, binder, scope, fact, join_spec.build_table)
        join_spec = JoinSpec(build_table=join_spec.build_table,
                             build_key=join_spec.build_key,
                             probe_key=join_spec.probe_key,
                             payload=join_spec.payload,
                             build_predicate=build_pred)

    agg_binder = _AggBinder(binder)
    has_aggregates = any(agg_binder.contains_aggregate(item.expr)
                         for item in stmt.items)
    group_names = tuple(scope.resolve(ref)[1] for ref in stmt.group_by)

    if has_aggregates or group_names:
        return _bind_aggregate_query(stmt, binder, agg_binder, predicate,
                                     post_predicate, join_spec, fact,
                                     group_names)
    return _bind_row_query(stmt, binder, predicate, post_predicate,
                           join_spec, fact)


def _flatten_conjuncts(node) -> list:
    if isinstance(node, ast.AndE):
        return _flatten_conjuncts(node.left) + _flatten_conjuncts(node.right)
    return [node]


def _tables_of(node, scope: _Scope) -> set[str]:
    """Names of every table a predicate subtree references."""
    names: set[str] = set()

    def walk(sub) -> None:
        if isinstance(sub, ast.ColRef):
            names.add(scope.resolve(sub)[0].name)
        elif isinstance(sub, (ast.BinOp, ast.AndE, ast.OrE, ast.Cmp)):
            walk(sub.left)
            walk(sub.right)
        elif isinstance(sub, ast.BetweenE):
            walk(sub.expr)
            walk(sub.low)
            walk(sub.high)
        elif isinstance(sub, (ast.LikeE,)):
            walk(sub.expr)
        elif isinstance(sub, ast.InE):
            walk(sub.expr)
            for item in sub.items:
                walk(item)
        elif isinstance(sub, ast.CaseE):
            walk(sub.condition)
            walk(sub.then)
            walk(sub.otherwise)
        elif isinstance(sub, ast.FuncCall) and sub.arg is not None:
            walk(sub.arg)

    walk(node)
    return names


def _split_where(where_node, binder: _ExprBinder, scope: _Scope, fact,
                 build_name: str):
    """Classify WHERE conjuncts: fact-side scan filter, build-side filter
    (applied while hashing), or post-join (spans both sides)."""
    if where_node is None:
        return None, None, None
    pre: list = []
    build: list = []
    post: list = []
    for conjunct in _flatten_conjuncts(where_node):
        tables = _tables_of(conjunct, scope)
        if tables <= {fact.name}:
            pre.append(conjunct)
        elif tables == {build_name}:
            build.append(conjunct)
        else:
            post.append(conjunct)

    def bind_all(nodes):
        if not nodes:
            return None
        bound = binder.boolean(nodes[0])
        for node in nodes[1:]:
            bound = engine.And(bound, binder.boolean(node))
        return bound

    return bind_all(pre), bind_all(build), bind_all(post)


def _plan_join(stmt: ast.SelectStmt, tables: list[Table], scope: _Scope):
    """Pick fact/build sides and extract the join condition."""
    if len(tables) == 1:
        return None, tables[0], stmt.where

    if stmt.join_on is not None:
        left_table, left_name = scope.resolve(stmt.join_on.left)
        right_table, right_name = scope.resolve(stmt.join_on.right)
        where_node = stmt.where
    else:
        condition, where_node = _extract_equijoin(stmt.where, scope)
        if condition is None:
            raise SqlError(
                "two-table query needs an equality join condition")
        (left_table, left_name), (right_table, right_name) = condition
    if left_table is right_table:
        raise SqlError("join condition must link the two tables")

    # The paper's plan shape: build on the smaller relation.
    if left_table.tuple_count <= right_table.tuple_count:
        build_table, build_key = left_table, left_name
        fact, probe_key = right_table, right_name
    else:
        build_table, build_key = right_table, right_name
        fact, probe_key = left_table, left_name
    spec = JoinSpec(build_table=build_table.name, build_key=build_key,
                    probe_key=probe_key, payload=())
    return (spec, fact, where_node)


def _extract_equijoin(node, scope: _Scope):
    """Find (and remove) one cross-table equality in an AND-tree."""
    if node is None:
        return None, None
    if isinstance(node, ast.Cmp) and node.op == "=":
        if (isinstance(node.left, ast.ColRef)
                and isinstance(node.right, ast.ColRef)):
            left = scope.resolve(node.left)
            right = scope.resolve(node.right)
            if left[0] is not right[0]:
                return (left, right), None
        return None, node
    if isinstance(node, ast.AndE):
        found, rest_left = _extract_equijoin(node.left, scope)
        if found is not None:
            return found, (node.right if rest_left is None
                           else ast.AndE(rest_left, node.right))
        found, rest_right = _extract_equijoin(node.right, scope)
        if found is not None:
            return found, (node.left if rest_right is None
                           else ast.AndE(node.left, rest_right))
    return None, node


def _referenced_build_columns(stmt: ast.SelectStmt, scope: _Scope,
                              build_name: str,
                              join_spec: JoinSpec) -> tuple[str, ...]:
    """Build-side columns the query's outputs/predicates actually use."""
    names: list[str] = []

    def walk(node) -> None:
        if isinstance(node, ast.ColRef):
            table, column = scope.resolve(node)
            if table.name == build_name and column not in names:
                names.append(column)
            return
        if isinstance(node, (ast.BinOp, ast.AndE, ast.OrE, ast.Cmp)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.BetweenE):
            walk(node.expr)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.LikeE):
            walk(node.expr)
        elif isinstance(node, ast.InE):
            walk(node.expr)
            for element in node.items:
                walk(element)
        elif isinstance(node, ast.CaseE):
            walk(node.condition)
            walk(node.then)
            walk(node.otherwise)
        elif isinstance(node, ast.FuncCall) and node.arg is not None:
            walk(node.arg)

    for item in stmt.items:
        walk(item.expr)
    if stmt.where is not None:
        walk(stmt.where)
    for ref in stmt.group_by:
        walk(ref)
    return tuple(n for n in names if n != join_spec.build_key)


def _item_name(item: ast.SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColRef):
        return item.expr.name
    return f"expr_{index + 1}"


def _bind_row_query(stmt, binder, predicate, post_predicate, join_spec,
                    fact) -> Query:
    select = []
    for index, item in enumerate(stmt.items):
        bound = binder.scalar(item.expr)
        select.append((_item_name(item, index), bound.realize()))
    order_by = None
    if stmt.order_by is not None:
        order_by = _order_target(stmt, select)
    if join_spec is not None:
        join_spec = _with_payload(stmt, binder.scope, join_spec)
    return Query(table=fact.name, predicate=predicate,
                 post_predicate=post_predicate, join=join_spec,
                 select=tuple(select), order_by=order_by,
                 descending=stmt.descending, limit=stmt.limit,
                 distinct=stmt.distinct, name="sql-query")


def _order_target(stmt, select) -> str:
    ref = stmt.order_by
    names = [name for name, __ in select]
    if ref.name in names:
        return ref.name
    raise SqlError(
        f"ORDER BY column {ref.name!r} must appear in the select list")


def _with_payload(stmt, scope, join_spec) -> JoinSpec:
    payload = _referenced_build_columns(stmt, scope, join_spec.build_table,
                                        join_spec)
    return JoinSpec(build_table=join_spec.build_table,
                    build_key=join_spec.build_key,
                    probe_key=join_spec.probe_key, payload=payload,
                    build_predicate=join_spec.build_predicate)


def _bind_aggregate_query(stmt, binder, agg_binder, predicate,
                          post_predicate, join_spec, fact,
                          group_names) -> Query:
    items: list[_AggItem] = []
    for index, item in enumerate(stmt.items):
        name = _item_name(item, index)
        if isinstance(item.expr, ast.ColRef):
            __, column = binder.scope.resolve(item.expr)
            if column not in group_names:
                raise SqlError(
                    f"column {column!r} must appear in GROUP BY or inside "
                    "an aggregate")
            continue  # produced automatically as a group key
        evaluator, scale = agg_binder.bind_item(item.expr)
        items.append(_AggItem(name=name, evaluator=evaluator, scale=scale))
    if not items:
        raise SqlError("an aggregate query needs at least one aggregate")

    def finalize(values: dict) -> dict:
        out = {}
        for agg_item in items:
            value = agg_item.evaluator(values)
            if agg_item.scale > 0 and value is not None:
                value = value / (10 ** agg_item.scale)
            out[agg_item.name] = value
        return out

    if join_spec is not None:
        join_spec = _with_payload(stmt, binder.scope, join_spec)
    return Query(table=fact.name, predicate=predicate,
                 post_predicate=post_predicate, join=join_spec,
                 aggregates=tuple(agg_binder.specs),
                 group_by=group_names or None,
                 finalize=finalize, name="sql-query")
