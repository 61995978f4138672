"""Plan rendering and partition-aware scatter/gather planning.

Rendering: textual versions of the paper's Figures 4 and 6 — the host
collecting output from a device-resident subtree of scan / filter /
hash-join / aggregate operators (:func:`explain`).

Scatter/gather: the scheduler's planner (:func:`plan_scatter`) rewrites
one logical :class:`~repro.engine.plans.Query` over a
:class:`~repro.host.catalog.ShardedTable` into per-shard pushdowns — one
physical query per participating device, ``finalize`` stripped so shards
return raw mergeable partials — plus the host-side recombination
(:func:`merge_scatter_rows`): scalar and grouped aggregates fold through
the same exchange-merge a parallel DBMS would (sum/count add, min/max
fold, AVG recombines from its sum+count partials inside ``finalize``),
ordered top-N re-merges the per-shard top-Ns, and DISTINCT unions the
per-shard distinct sets. Range-sharded tables additionally prune shards
whose key interval provably cannot satisfy the predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.engine.expressions import And, Col, Compare, Const, Expr, Or
from repro.engine.plans import Query
from repro.errors import PlanError
from repro.host.catalog import ShardedTable, shard_table_name

if TYPE_CHECKING:
    from repro.host.db import Database


def explain(db: "Database", query: Query, placement: str = "smart") -> str:
    """Render the physical plan as an indented operator tree.

    A sharded table's plan is one scatter line (fan-out and pruned shards)
    above the plan of the first shard that runs.
    """
    if db.catalog.is_sharded(query.table):
        plan = plan_scatter(db, query)
        return (f"{query.name} (scatter over {plan.sharded.spec.kind} "
                f"table {query.table}: fan-out {plan.fan_out} of "
                f"{len(plan.sharded.shards)} shards, pruned "
                f"{list(plan.pruned_shards)})\n"
                + explain(db, plan.shard_queries[0], placement))
    table = db.catalog.table(query.table)
    side = "DEVICE" if placement == "smart" else "HOST"
    lines = [f"{query.name} (placement={placement}, "
             f"device={table.device_name}, layout={table.layout.value})"]

    if placement == "smart":
        lines.append("└─ HOST: collect results (GET loop) + finalize")
        prefix = "   "
        program = ("hash_join" if query.join is not None
                   else "aggregate" if query.aggregates else "scan_filter")
        lines.append(f"{prefix}└─ OPEN session: program={program!r}")
        prefix += "   "
    else:
        lines.append("└─ HOST: execute plan over buffer pool")
        prefix = "   "

    if query.limit is not None or query.order_by is not None:
        direction = "DESC" if query.descending else "ASC"
        limit = f" LIMIT {query.limit}" if query.limit is not None else ""
        lines.append(f"{prefix}└─ HOST: sort [{query.order_by} "
                     f"{direction}]{limit} (device keeps page-local top-N)")
        prefix += "   "
    if query.aggregates:
        aggs = ", ".join(f"{a.kind.upper()}({a.name})"
                         for a in query.aggregates)
        group = (f" GROUP BY {query.group_by_columns}"
                 if query.group_by else "")
        lines.append(f"{prefix}└─ {side}: aggregate [{aggs}]{group}")
        prefix += "   "
    elif query.select:
        names = ", ".join(name for name, __ in query.select)
        distinct = "distinct " if query.distinct else ""
        lines.append(f"{prefix}└─ {side}: {distinct}project [{names}]")
        prefix += "   "

    if query.join is not None:
        build = db.catalog.table(query.join.build_table)
        lines.append(
            f"{prefix}└─ {side}: hash join "
            f"({query.table}.{query.join.probe_key} = "
            f"{query.join.build_table}.{query.join.build_key})")
        child = prefix + "   "
        lines.append(f"{child}├─ probe: "
                     + _scan_line(side, query, table))
        lines.append(
            f"{child}└─ build: {side}: hash build <- scan "
            f"{build.name} ({build.layout.value}, "
            f"{build.page_count:,} pages, {build.tuple_count:,} rows)")
    else:
        lines.append(f"{prefix}└─ " + _scan_line(side, query, table))
    return "\n".join(lines)


def _scan_line(side: str, query: Query, table) -> str:
    pred = f" filter [{query.predicate!r}]" if query.predicate is not None \
        else ""
    return (f"{side}:{pred} <- scan {table.name} ({table.layout.value}, "
            f"{table.page_count:,} pages, {table.tuple_count:,} rows)")


# --------------------------------------------------------------------------
# Scatter/gather planning over sharded tables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScatterPlan:
    """One logical query rewritten into per-shard physical pushdowns."""

    logical: Query
    sharded: ShardedTable
    #: Indices of the shards that must run (range-pruned shards absent).
    shard_indices: tuple[int, ...]
    #: Physical per-shard queries, aligned with :attr:`shard_indices`.
    shard_queries: tuple[Query, ...]
    #: Shards the planner proved irrelevant from their key ranges.
    pruned_shards: tuple[int, ...] = ()
    #: Schema of the join build table (replicated per shard), when any.
    build_schema: Optional[Any] = None

    @property
    def fan_out(self) -> int:
        """Number of devices the query actually touches."""
        return len(self.shard_indices)


def plan_scatter(db: "Database", query: Query) -> ScatterPlan:
    """Rewrite ``query`` over a sharded table into per-shard pushdowns.

    Each participating shard gets a clone of the query with the table
    (and, for joins, the build table) renamed to the shard-local physical
    relation and ``finalize`` stripped — partial aggregates must merge
    *before* host finalization, or AVG-style recombinations would be
    computed per shard. Range-sharded tables drop shards whose key
    interval provably cannot satisfy the predicate (the shard-level
    analogue of the device's zone-map pruning). A replicated table is
    read from one copy, shard 0: every copy holds every row.
    """
    sharded = db.catalog.sharded(query.table)
    build_schema = None
    if query.join is not None:
        build = db.catalog.sharded(query.join.build_table)
        if build.spec.kind != "replicated":
            raise PlanError(
                f"join build table {query.join.build_table!r} must be "
                f"replicated across the shard devices (kind="
                f"{build.spec.kind!r}); load it with "
                f"ShardSpec(kind='replicated')")
        if build.device_names != sharded.device_names:
            raise PlanError(
                f"build table {query.join.build_table!r} is replicated on "
                f"{build.device_names} but probe shards live on "
                f"{sharded.device_names}")
        build_schema = build.schema
    kept: list[int] = []
    pruned: list[int] = []
    candidates = (1 if sharded.spec.kind == "replicated"
                  else len(sharded.shards))
    for index in range(candidates):
        bounds = sharded.shard_key_range(index)
        if bounds is not None and not _shard_might_match(
                query.predicate, sharded.spec.key, *bounds):
            pruned.append(index)
        else:
            kept.append(index)
    if not kept:
        # A fully-pruned query still needs one shard to produce the typed
        # zero-row / identity result.
        kept = [pruned.pop(0)]
    queries = tuple(_shard_query(query, sharded, index) for index in kept)
    return ScatterPlan(logical=query, sharded=sharded,
                       shard_indices=tuple(kept), shard_queries=queries,
                       pruned_shards=tuple(pruned),
                       build_schema=build_schema)


def _shard_query(query: Query, sharded: ShardedTable, index: int) -> Query:
    """The physical query one shard runs."""
    changes: dict[str, Any] = {
        "table": shard_table_name(query.table, index),
        "finalize": None,
        "name": f"{query.name}/s{index}",
    }
    if query.join is not None:
        changes["join"] = replace(
            query.join,
            build_table=shard_table_name(query.join.build_table, index))
    return replace(query, **changes)


def _shard_might_match(predicate: Optional[Expr], key: Optional[str],
                       lo: Any, hi: Any) -> bool:
    """Could any key in ``[lo, hi)`` satisfy the predicate?

    Conservative: only ``key <op> Const`` comparisons (and And/Or trees
    over them) ever prune; every unanalyzable shape answers True. A False
    is a proof — the shard holds no qualifying tuple.
    """
    if predicate is None:
        return True
    if isinstance(predicate, And):
        return (_shard_might_match(predicate.left, key, lo, hi)
                and _shard_might_match(predicate.right, key, lo, hi))
    if isinstance(predicate, Or):
        return (_shard_might_match(predicate.left, key, lo, hi)
                or _shard_might_match(predicate.right, key, lo, hi))
    if not isinstance(predicate, Compare):
        return True
    left, op, right = predicate.left, predicate.op, predicate.right
    if isinstance(left, Const) and isinstance(right, Col):
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if not (isinstance(left, Col) and isinstance(right, Const)
            and left.name == key):
        return True
    value = right.value
    # The shard holds keys in [lo, hi); a None end is unbounded.
    if op == "<":
        return lo is None or lo < value
    if op == "<=":
        return lo is None or lo <= value
    if op == ">":
        return hi is None or hi > value
    if op == ">=":
        return hi is None or hi > value
    if op == "==":
        return ((lo is None or value >= lo)
                and (hi is None or value < hi))
    return True  # '!=' and anything exotic never prunes a whole shard


# -- host-side recombination -------------------------------------------------

def merge_scatter_rows(plan: ScatterPlan,
                       shard_rows: list[Any]) -> Any:
    """Merge per-shard results into the logical query's result rows.

    * aggregates (scalar or grouped): partials fold through
      :class:`~repro.engine.kernels.AggState` merge — exact for the
      integer storage forms every figure query uses — and the logical
      query's ``finalize`` runs once over the merged values;
    * ordered top-N: per-shard top-Ns concatenate and re-sort with the
      same order/limit kernel the single-device path uses;
    * DISTINCT: per-shard distinct sets union through the same kernel;
    * plain selections: deterministic shard-order concatenation (the
      multiset of rows is identical to the single-device plan; row order
      is shard-major instead of page-major).
    """
    query = plan.logical
    if query.aggregates:
        from repro.host.executor import _finalize_aggregates
        return _finalize_aggregates(query,
                                    merge_scatter_state(query, shard_rows))
    from repro.host.executor import _merge_select_chunks
    chunks = [
        {name: rows[name] for name in query.output_names()}
        for rows in shard_rows if len(rows)
    ]
    return _merge_select_chunks(query, chunks, schema=plan.sharded.schema,
                                build_schema=plan.build_schema)


def merge_scatter_state(query: Query, shard_rows: list[Any]):
    """Fold per-shard pre-finalize aggregate rows into one ``AggState``.

    The serving layer's result cache stores this merged state (not final
    rows), so the requesting query's ``finalize`` — an arbitrary callable
    that cannot participate in a cache key — is re-applied on every hit.
    """
    from repro.engine.kernels import AggState

    state = AggState()
    group_columns = query.group_by_columns
    for rows in shard_rows:
        partial = AggState()
        for row in rows:
            if not isinstance(row, dict):
                raise PlanError(
                    f"shard returned non-aggregate row {row!r}")
            if group_columns:
                key = (row[group_columns[0]] if len(group_columns) == 1
                       else tuple(row[name] for name in group_columns))
                partial.groups[key] = {
                    agg.name: row.get(agg.name)
                    for agg in query.aggregates}
            else:
                partial.values = {agg.name: row.get(agg.name)
                                  for agg in query.aggregates}
        state.merge(partial, query.aggregates)
    return state
