"""Placement-neutral query machinery.

The paper's key move is running *the same database operator code* in two
places: on the host CPUs and inside the Smart SSD. This package holds that
shared code — expression trees, the unit kernel (filter / probe /
aggregate), hash tables, and the query description — so
:mod:`repro.host.executor` and :mod:`repro.smart.programs` execute
identically and differ only in where pages flow and which CPU is charged.
"""

from repro.engine.expressions import (
    Add,
    And,
    CachedEvalContext,
    CaseWhen,
    Col,
    Compare,
    Const,
    Div,
    EvalContext,
    Expr,
    LikePrefix,
    Mul,
    Or,
    Sub,
    and_all,
)
from repro.engine.kernels import (
    AggState,
    HashTable,
    build_hash_table,
)
from repro.engine.plans import AggSpec, JoinSpec, Placement, Query
from repro.engine.reference import run_reference

__all__ = [
    "Add",
    "AggSpec",
    "AggState",
    "And",
    "CachedEvalContext",
    "CaseWhen",
    "Col",
    "Compare",
    "Const",
    "Div",
    "EvalContext",
    "Expr",
    "HashTable",
    "JoinSpec",
    "LikePrefix",
    "Mul",
    "Or",
    "Placement",
    "Query",
    "Sub",
    "and_all",
    "build_hash_table",
    "run_reference",
]
