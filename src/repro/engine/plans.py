"""Query descriptions for the paper's query class.

A :class:`Query` captures what the paper's special SQL Server path supports:
a selection scan over one (fact) table, optionally probing one in-memory
hash table built from a smaller (dimension) table, producing either
projected rows or scalar/grouped aggregates. TPC-H Q6, Q14, and the
synthetic selection-with-join query are all instances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import PlanError
from repro.engine.expressions import Expr


class Placement(enum.Enum):
    """Where a query runs: on the host CPUs or pushed down to the device.

    ``AUTO`` defers to the cost-based optimizer
    (:func:`repro.host.optimizer.choose_placement`). The wire strings
    ``"host"|"smart"|"auto"`` still round-trip through :meth:`coerce`.
    """

    HOST = "host"
    SMART = "smart"
    AUTO = "auto"

    @classmethod
    def coerce(cls, value: Union["Placement", str]) -> "Placement":
        """Accept a :class:`Placement` or its wire string."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                pass
        raise PlanError(
            f"unknown placement {value!r} "
            f"(expected {', '.join(repr(p.value) for p in cls)})")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AggSpec:
    """One scalar aggregate: ``kind(expr) AS name``."""

    kind: str                 # 'sum' | 'count' | 'min' | 'max'
    expr: Optional[Expr]      # None only for count(*)
    name: str

    def __post_init__(self):
        if self.kind not in ("sum", "count", "min", "max"):
            raise PlanError(f"unknown aggregate kind {self.kind!r}")
        if self.expr is None and self.kind != "count":
            raise PlanError(f"{self.kind} needs an expression")


@dataclass(frozen=True)
class JoinSpec:
    """A simple hash join: build on the small table, probe from the scan.

    Mirrors the paper's §4.2.2 plans (Figures 4 and 6): the build side fits
    in memory (host RAM or device DRAM), the fact-table scan probes it.
    """

    build_table: str          # dimension table name
    build_key: str            # unique key column on the build side
    probe_key: str            # fact-table column joining to build_key
    payload: tuple[str, ...]  # build-side columns carried into the output
    build_predicate: Optional[Expr] = None  # optional build-side filter


@dataclass(frozen=True)
class Query:
    """A selection / aggregation / selection-with-join query.

    Exactly one of ``select`` or ``aggregates`` must be given. ``finalize``
    post-processes merged aggregates on the host (e.g. Q14's promo-revenue
    ratio); it receives a dict of aggregate name -> value and returns the
    final scalar row.
    """

    table: str
    predicate: Optional[Expr] = None
    #: Evaluated after the join probe, over probe columns plus the build
    #: payload — for predicates that span both sides (TPC-H Q19 style).
    post_predicate: Optional[Expr] = None
    join: Optional[JoinSpec] = None
    select: tuple[tuple[str, Expr], ...] = ()
    aggregates: tuple[AggSpec, ...] = ()
    group_by: Optional[str | tuple[str, ...]] = None
    finalize: Optional[Callable[[dict[str, Any]], dict[str, Any]]] = None
    order_by: Optional[str] = None   # an output column name
    descending: bool = False
    limit: Optional[int] = None
    distinct: bool = False
    name: str = "query"

    def __post_init__(self):
        if bool(self.select) == bool(self.aggregates):
            raise PlanError(
                "a query needs exactly one of select or aggregates")
        if self.group_by and not self.aggregates:
            raise PlanError("group_by requires aggregates")
        if self.finalize and not self.aggregates:
            raise PlanError("finalize requires aggregates")
        if self.limit is not None:
            if not self.select:
                raise PlanError("limit requires a select query")
            if self.limit < 1:
                raise PlanError("limit must be positive")
            if self.order_by is None:
                raise PlanError("limit requires order_by (top-N semantics)")
        if self.order_by is not None:
            if not self.select:
                raise PlanError("order_by requires a select query")
            if self.order_by not in (name for name, __ in self.select):
                raise PlanError(
                    f"order_by column {self.order_by!r} must be one of the "
                    "select outputs")
        if self.distinct and not self.select:
            raise PlanError("distinct requires a select query")

    @property
    def group_by_columns(self) -> tuple[str, ...]:
        """Grouping columns as a tuple (possibly empty).

        ``group_by`` accepts a single name or a tuple of names (TPC-H Q1
        groups by two columns).
        """
        if self.group_by is None:
            return ()
        if isinstance(self.group_by, str):
            return (self.group_by,)
        return tuple(self.group_by)

    @property
    def is_aggregate(self) -> bool:
        """True for aggregate-producing queries."""
        return bool(self.aggregates)

    def probe_side_columns(self) -> list[str]:
        """Fact-table columns the scan must decode, in first-use order."""
        needed: list[str] = []

        def add(names) -> None:
            for name in names:
                if name not in needed:
                    needed.append(name)

        if self.predicate is not None:
            add(sorted(self.predicate.columns()))
        if self.join is not None:
            add([self.join.probe_key])
        build_side = set(self.join.payload) if self.join else set()
        if self.post_predicate is not None:
            add(sorted(self.post_predicate.columns() - build_side))
        for __, expr in self.select:
            add(sorted(expr.columns() - build_side))
        for agg in self.aggregates:
            if agg.expr is not None:
                add(sorted(agg.expr.columns() - build_side))
        add(name for name in self.group_by_columns
            if name not in build_side)
        return needed

    def output_names(self) -> list[str]:
        """Column names of the result."""
        if self.select:
            return [name for name, __ in self.select]
        return list(self.group_by_columns) + [agg.name
                                              for agg in self.aggregates]
