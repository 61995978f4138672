"""Vectorized expression trees that account for the work they do.

Expressions evaluate over a *column source* — a mapping of column name to
NumPy array for the rows under consideration — and increment
:class:`~repro.model.counters.WorkCounters` with exactly the operations a
tuple-at-a-time engine would perform, including short-circuit effects:
``And(a, b)`` only charges ``b`` for rows that survived ``a``.

The same tree evaluates identically on the host and inside the device; only
the pricing of the counters differs (layout-dependent extract costs, CPU
efficiency factors).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import ExpressionError
from repro.model.counters import WorkCounters
from repro.storage.layout import Layout

#: Comparison operators supported by :class:`Compare`.
_COMPARE_OPS: dict[str, Callable[[np.ndarray, Any], np.ndarray]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class EvalContext:
    """Evaluation state: columns, row count, counters, layout."""

    def __init__(self, columns: dict[str, np.ndarray], row_count: int,
                 counters: WorkCounters, layout: Layout):
        self.columns = columns
        self.row_count = row_count
        self.counters = counters
        self.layout = layout

    def charge_extract(self, active: int) -> None:
        """Charge one column-value extraction per active row."""
        if self.layout is Layout.NSM:
            self.counters.nsm_values_extracted += active
        else:
            self.counters.pax_values_extracted += active


class CachedEvalContext(EvalContext):
    """Evaluation over columns another query already materialized.

    Used by shared scans: the leader decodes each page's column union once
    (cold, full extract price); every member then re-reads values out of
    the device cache, charged at the far cheaper
    ``cached_value_extract`` rate regardless of layout.
    """

    def charge_extract(self, active: int) -> None:
        self.counters.cached_values_extracted += active


class Expr:
    """Base expression node."""

    def columns(self) -> set[str]:
        """Names of every column the expression references."""
        raise NotImplementedError

    def evaluate(self, ctx: EvalContext, active: int) -> np.ndarray:
        """Compute values for all rows, charging work for ``active`` rows.

        ``active`` is the number of rows this node is logically evaluated
        on (short-circuiting shrinks it); the returned array is always
        full-length so vectorized composition stays simple.
        """
        raise NotImplementedError

    def is_boolean(self) -> bool:
        """True when the node produces a predicate mask."""
        return False


class Col(Expr):
    """A column reference."""

    def __init__(self, name: str):
        self.name = name

    def columns(self) -> set[str]:
        return {self.name}

    def evaluate(self, ctx: EvalContext, active: int) -> np.ndarray:
        if self.name not in ctx.columns:
            raise ExpressionError(f"column {self.name!r} not available")
        ctx.charge_extract(active)
        return ctx.columns[self.name]

    def __repr__(self) -> str:
        return f"Col({self.name!r})"


class Const(Expr):
    """A literal constant (free to evaluate)."""

    def __init__(self, value: Any):
        self.value = value

    def columns(self) -> set[str]:
        return set()

    def evaluate(self, ctx: EvalContext, active: int) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class _BinaryArith(Expr):
    """Shared behaviour of the arithmetic nodes."""

    symbol = "?"
    _op: Callable[[Any, Any], Any]

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def evaluate(self, ctx: EvalContext, active: int) -> np.ndarray:
        left = self.left.evaluate(ctx, active)
        right = self.right.evaluate(ctx, active)
        ctx.counters.arithmetic_ops += active
        return type(self)._op(left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class Add(_BinaryArith):
    """Addition."""

    symbol = "+"
    _op = staticmethod(lambda a, b: a + b)


class Sub(_BinaryArith):
    """Subtraction."""

    symbol = "-"
    _op = staticmethod(lambda a, b: a - b)


class Mul(_BinaryArith):
    """Multiplication (promotes to int64/float to avoid overflow)."""

    symbol = "*"

    @staticmethod
    def _op(a, b):
        if isinstance(a, np.ndarray) and np.issubdtype(a.dtype, np.integer):
            a = a.astype(np.int64)
        return a * b


class Div(_BinaryArith):
    """True division (always floating point)."""

    symbol = "/"

    @staticmethod
    def _op(a, b):
        return np.asarray(a, dtype=np.float64) / b


class Compare(Expr):
    """A comparison predicate, e.g. ``Compare(Col("x"), "<", Const(5))``."""

    def __init__(self, left: Expr, op: str, right: Expr):
        if op not in _COMPARE_OPS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.left = left
        self.op = op
        self.right = right

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def is_boolean(self) -> bool:
        return True

    def evaluate(self, ctx: EvalContext, active: int) -> np.ndarray:
        left = self.left.evaluate(ctx, active)
        right = self.right.evaluate(ctx, active)
        ctx.counters.predicates_evaluated += active
        return _full_mask(_COMPARE_OPS[self.op](left, right), ctx.row_count)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    """Short-circuit conjunction: the right side is charged only for rows
    that survived the left side."""

    def __init__(self, left: Expr, right: Expr):
        _require_boolean(left, right)
        self.left = left
        self.right = right

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def is_boolean(self) -> bool:
        return True

    def evaluate(self, ctx: EvalContext, active: int) -> np.ndarray:
        left_mask = self.left.evaluate(ctx, active)
        survivors = min(active, int(np.count_nonzero(left_mask)))
        right_mask = self.right.evaluate(ctx, survivors)
        return left_mask & right_mask

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class Or(Expr):
    """Short-circuit disjunction: the right side is charged only for rows
    the left side rejected."""

    def __init__(self, left: Expr, right: Expr):
        _require_boolean(left, right)
        self.left = left
        self.right = right

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def is_boolean(self) -> bool:
        return True

    def evaluate(self, ctx: EvalContext, active: int) -> np.ndarray:
        left_mask = self.left.evaluate(ctx, active)
        remaining = max(0, active - int(np.count_nonzero(left_mask)))
        right_mask = self.right.evaluate(ctx, remaining)
        return left_mask | right_mask

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class LikePrefix(Expr):
    """``column LIKE 'prefix%'`` over a fixed-length char column."""

    def __init__(self, column: Expr, prefix: str | bytes):
        self.column = column
        self.prefix = (prefix.encode("ascii")
                       if isinstance(prefix, str) else bytes(prefix))

    def columns(self) -> set[str]:
        return self.column.columns()

    def is_boolean(self) -> bool:
        return True

    def evaluate(self, ctx: EvalContext, active: int) -> np.ndarray:
        values = self.column.evaluate(ctx, active)
        ctx.counters.like_evaluated += active
        width = len(self.prefix)
        # Compare the leading `width` bytes of each fixed-length string.
        itemsize = values.dtype.itemsize
        as_bytes = values.view(np.uint8).reshape(len(values),
                                                 itemsize)[:, :width]
        wanted = np.frombuffer(self.prefix, dtype=np.uint8)
        return _full_mask((as_bytes == wanted).all(axis=1), ctx.row_count)

    def __repr__(self) -> str:
        return f"({self.column!r} LIKE {self.prefix!r}%)"


class CaseWhen(Expr):
    """``CASE WHEN cond THEN a ELSE b END`` (Q14's promo discriminator)."""

    def __init__(self, condition: Expr, then: Expr, otherwise: Expr):
        if not condition.is_boolean():
            raise ExpressionError("CASE condition must be boolean")
        self.condition = condition
        self.then = then
        self.otherwise = otherwise

    def columns(self) -> set[str]:
        return (self.condition.columns() | self.then.columns()
                | self.otherwise.columns())

    def evaluate(self, ctx: EvalContext, active: int) -> np.ndarray:
        mask = self.condition.evaluate(ctx, active)
        hits = min(active, int(np.count_nonzero(mask)))
        then_vals = self.then.evaluate(ctx, hits)
        else_vals = self.otherwise.evaluate(ctx, max(0, active - hits))
        return np.where(mask, then_vals, else_vals)

    def __repr__(self) -> str:
        return (f"CASE WHEN {self.condition!r} THEN {self.then!r} "
                f"ELSE {self.otherwise!r} END")


def _full_mask(mask: Any, row_count: int) -> np.ndarray:
    """``mask`` as a boolean array of ``row_count`` rows; a mask that
    already is one comes back as is (callers never write into masks)."""
    if (isinstance(mask, np.ndarray) and mask.dtype == np.bool_
            and mask.shape == (row_count,)):
        return mask
    return np.broadcast_to(np.asarray(mask, dtype=bool), (row_count,))


def _require_boolean(*nodes: Expr) -> None:
    for node in nodes:
        if not node.is_boolean():
            raise ExpressionError(
                f"{node!r} is not a boolean predicate")


def and_all(predicates: list[Expr]) -> Expr:
    """Left-to-right conjunction of a predicate list."""
    if not predicates:
        raise ExpressionError("and_all needs at least one predicate")
    result = predicates[0]
    for predicate in predicates[1:]:
        result = And(result, predicate)
    return result
