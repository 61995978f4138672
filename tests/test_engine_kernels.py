"""Unit tests for the kernel, hash tables, and the reference executor."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import (
    AggSpec,
    AggState,
    And,
    Col,
    Compare,
    Const,
    Div,
    HashTable,
    JoinSpec,
    Mul,
    Query,
    and_all,
    build_hash_table,
    run_reference,
)
from repro.engine.kernels import BatchKernel, BuildCollector
from repro.errors import PlanError
from repro.host.db import Database
from repro.model import WorkCounters
from repro.storage import (
    Column,
    Int32Type,
    Int64Type,
    Layout,
    Schema,
    UnitColumns,
    build_heap_pages,
)
from repro.storage.layout import tuples_per_page


@pytest.fixture
def fact_schema():
    return Schema([
        Column("id", Int64Type()),
        Column("fk", Int32Type()),
        Column("val", Int32Type()),
    ])


@pytest.fixture
def dim_schema():
    return Schema([
        Column("pk", Int32Type()),
        Column("label", Int32Type()),
    ])


@pytest.fixture
def fact_rows(fact_schema):
    n = 500
    return fact_schema.rows_to_array(
        [(i, i % 20, i % 100) for i in range(n)])


@pytest.fixture
def dim_rows(dim_schema):
    return dim_schema.rows_to_array([(i, 1000 + i) for i in range(20)])


def pages_of(schema, rows, layout):
    return build_heap_pages(schema, rows, layout)


def run_kernel(query, schema, rows, layout, hash_table=None):
    """Drive the kernel page by page (one-page units); one record per page."""
    kernel = BatchKernel(query, schema, layout, hash_table=hash_table)
    partials = []
    for page in pages_of(schema, rows, layout):
        counters, agg = WorkCounters(), AggState()
        unit = kernel.process_unit([page], counters=counters,
                                   agg_into=None if query.select else agg)
        partials.append(SimpleNamespace(
            columns=unit.chunks[0][1] if query.select else None, agg=agg,
            counters=counters, touched_nbytes=unit.touched_nbytes))
    return kernel, partials


def merge_rows(partials, names):
    return {name: np.concatenate([p.columns[name] for p in partials])
            for name in names}


def merge_aggs(partials, aggs):
    state = AggState()
    for partial in partials:
        state.merge(partial.agg, aggs)
    return state


@pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
class TestFilterProject:
    def test_matches_reference(self, fact_schema, fact_rows, layout):
        query = Query(
            table="fact",
            predicate=Compare(Col("val"), "<", Const(10)),
            select=(("id", Col("id")), ("boosted", Mul(Col("val"), Const(2)))),
        )
        __, partials = run_kernel(query, fact_schema, fact_rows, layout)
        got = merge_rows(partials, ["id", "boosted"])
        expected = run_reference(query, {"fact": fact_schema},
                                 {"fact": fact_rows})
        assert np.array_equal(got["id"], expected["id"])
        assert np.array_equal(got["boosted"], expected["boosted"])

    def test_no_predicate_returns_everything(self, fact_schema, fact_rows,
                                             layout):
        query = Query(table="fact", select=(("id", Col("id")),))
        __, partials = run_kernel(query, fact_schema, fact_rows, layout)
        got = merge_rows(partials, ["id"])
        assert np.array_equal(got["id"], fact_rows["id"])

    def test_empty_result(self, fact_schema, fact_rows, layout):
        query = Query(table="fact",
                      predicate=Compare(Col("val"), "<", Const(0)),
                      select=(("id", Col("id")),))
        __, partials = run_kernel(query, fact_schema, fact_rows, layout)
        got = merge_rows(partials, ["id"])
        assert len(got["id"]) == 0

    def test_touched_bytes_accounted(self, fact_schema, fact_rows, layout):
        query = Query(table="fact",
                      predicate=Compare(Col("val"), "<", Const(10)),
                      select=(("id", Col("id")),))
        __, partials = run_kernel(query, fact_schema, fact_rows, layout)
        cap = tuples_per_page(layout, fact_schema)
        first_page_tuples = min(cap, len(fact_rows))
        if layout is Layout.PAX:
            # Only the id (8B) and val (4B) minipages are touched.
            assert partials[0].touched_nbytes == first_page_tuples * (8 + 4)
        else:
            from repro.storage.nsm import record_stride
            assert partials[0].touched_nbytes == (
                first_page_tuples * record_stride(fact_schema))

    def test_counters_track_parse_work(self, fact_schema, fact_rows, layout):
        query = Query(table="fact", select=(("id", Col("id")),))
        __, partials = run_kernel(query, fact_schema, fact_rows, layout)
        total = sum(p.counters.nsm_tuples_parsed for p in partials)
        if layout is Layout.NSM:
            assert total == len(fact_rows)
        else:
            assert total == 0
        pages = sum(p.counters.pages_parsed for p in partials)
        assert pages == len(pages_of(fact_schema, fact_rows, layout))


class TestTouchedBytesContrast:
    def test_pax_touches_less_than_nsm(self, fact_schema, fact_rows):
        query = Query(table="fact",
                      predicate=Compare(Col("val"), "<", Const(10)),
                      select=(("id", Col("id")),))
        __, nsm = run_kernel(query, fact_schema, fact_rows, Layout.NSM)
        __, pax = run_kernel(query, fact_schema, fact_rows, Layout.PAX)
        assert (sum(p.touched_nbytes for p in pax)
                < sum(p.touched_nbytes for p in nsm))


@pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
class TestAggregates:
    def test_sum_count_min_max_match_reference(self, fact_schema, fact_rows,
                                               layout):
        query = Query(
            table="fact",
            predicate=Compare(Col("val"), ">=", Const(50)),
            aggregates=(
                AggSpec("sum", Mul(Col("val"), Const(3)), "total"),
                AggSpec("count", None, "n"),
                AggSpec("min", Col("id"), "lo"),
                AggSpec("max", Col("id"), "hi"),
            ),
        )
        __, partials = run_kernel(query, fact_schema, fact_rows, layout)
        state = merge_aggs(partials, query.aggregates)
        expected = run_reference(query, {"fact": fact_schema},
                                 {"fact": fact_rows})
        assert state.values["total"] == expected["total"]
        assert state.values["n"] == expected["n"]
        assert state.values["lo"] == expected["lo"]
        assert state.values["hi"] == expected["hi"]

    def test_empty_aggregate(self, fact_schema, fact_rows, layout):
        query = Query(table="fact",
                      predicate=Compare(Col("val"), "<", Const(0)),
                      aggregates=(AggSpec("sum", Col("val"), "s"),
                                  AggSpec("count", None, "n"),
                                  AggSpec("min", Col("val"), "lo")))
        __, partials = run_kernel(query, fact_schema, fact_rows, layout)
        state = merge_aggs(partials, query.aggregates)
        assert state.values["s"] == 0
        assert state.values["n"] == 0
        assert state.values["lo"] is None

    def test_grouped_aggregate_matches_reference(self, fact_schema,
                                                 fact_rows, layout):
        query = Query(
            table="fact",
            predicate=Compare(Col("id"), "<", Const(200)),
            aggregates=(AggSpec("sum", Col("val"), "s"),
                        AggSpec("count", None, "n"),
                        AggSpec("min", Col("val"), "lo"),
                        AggSpec("max", Col("val"), "hi")),
            group_by="fk",
        )
        __, partials = run_kernel(query, fact_schema, fact_rows, layout)
        state = merge_aggs(partials, query.aggregates)
        expected = run_reference(query, {"fact": fact_schema},
                                 {"fact": fact_rows})
        assert set(state.groups) == set(expected)
        for group, entry in expected.items():
            for key, value in entry.items():
                assert state.groups[group][key] == value


def fold_units(query, schema, rows, layout, unit_pages=None):
    """Fold ``rows``' pages through the kernel, ``unit_pages`` per unit
    (default: all of them in one unit); returns (AggState, counters)."""
    kernel = BatchKernel(query, schema, layout)
    pages = pages_of(schema, rows, layout)
    step = unit_pages or len(pages)
    agg, counters = AggState(), WorkCounters()
    for lo in range(0, len(pages), step):
        kernel.process_unit(pages[lo:lo + step], counters=counters,
                            agg_into=agg)
    return agg, counters


@pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
class TestUnitFold:
    """The once-per-unit fold against one-page units and the reference."""

    AGGS = (AggSpec("count", None, "n"), AggSpec("sum", Col("id"), "s"),
            AggSpec("sum", Div(Col("id"), Const(7)), "f"),
            AggSpec("min", Col("val"), "lo"), AggSpec("max", Col("id"), "hi"))

    def paged_rows(self, schema, layout, page_fks, page_val=lambda p: 1):
        """One full page per entry of ``page_fks``, cycling its fk values."""
        cap = tuples_per_page(layout, schema)
        return schema.rows_to_array(
            [(p * cap + i, fks[i % len(fks)], page_val(p))
             for p, fks in enumerate(page_fks) for i in range(cap)])

    @pytest.mark.parametrize("unit_pages", [None, 1])
    def test_grouped_integer_sum_is_exact_past_2_53(self, fact_schema, layout,
                                                    unit_pages):
        rows = fact_schema.rows_to_array(
            [(2**53 + 1 + 2 * i, i % 2, 0) for i in range(1200)])
        query = Query(table="fact", group_by="fk",
                      aggregates=(AggSpec("sum", Col("id"), "s"),))
        agg, __ = fold_units(query, fact_schema, rows, layout, unit_pages)
        assert agg.groups == run_reference(query, {"fact": fact_schema},
                                           {"fact": rows})

    def test_groups_enter_in_first_appearance_order(self, fact_schema,
                                                    layout):
        rows = self.paged_rows(fact_schema, layout,
                               [(3,), (3, 1), (7, 3, 0)])
        query = Query(table="fact", group_by="fk", aggregates=self.AGGS)
        unit, unit_counters = fold_units(query, fact_schema, rows, layout)
        paged, page_counters = fold_units(query, fact_schema, rows, layout, 1)
        assert list(unit.groups) == list(paged.groups) == [3, 1, 0, 7]
        assert (unit, unit_counters) == (paged, page_counters)

    @pytest.mark.parametrize("group_by", [None, "fk"])
    def test_page_without_survivors_inside_a_unit(self, fact_schema, layout,
                                                  group_by):
        rows = self.paged_rows(fact_schema, layout, [(1, 2)] * 3,
                               page_val=lambda p: -1 if p == 1 else p)
        query = Query(table="fact", group_by=group_by, aggregates=self.AGGS,
                      predicate=Compare(Col("val"), ">=", Const(0)))
        assert (fold_units(query, fact_schema, rows, layout)
                == fold_units(query, fact_schema, rows, layout, 1))

    def test_unit_without_survivors(self, fact_schema, fact_rows, layout):
        nothing = Compare(Col("val"), "<", Const(0))
        scalar = Query(table="fact", predicate=nothing, aggregates=self.AGGS)
        agg, __ = fold_units(scalar, fact_schema, fact_rows, layout)
        assert agg == AggState(values={"n": 0, "s": 0, "f": 0, "lo": None,
                                       "hi": None})
        grouped = Query(table="fact", predicate=nothing, group_by="fk",
                        aggregates=self.AGGS)
        agg, counters = fold_units(grouped, fact_schema, fact_rows, layout)
        assert agg == AggState(values=dict.fromkeys("n s f lo hi".split()))
        assert counters.aggregate_updates == 0

    @pytest.mark.parametrize("group_by", [None, "fk", ("fk", "val")])
    def test_merge_of_two_units_equals_one_unit(self, fact_schema, layout,
                                                group_by):
        rows = self.paged_rows(fact_schema, layout, [(3,), (3, 1), (7, 3)],
                               page_val=lambda p: p % 2)
        cap = tuples_per_page(layout, fact_schema)
        # Integer aggregates only: merging re-associates a float sum.
        query = Query(table="fact", group_by=group_by,
                      aggregates=self.AGGS[:2] + self.AGGS[3:])
        head, __ = fold_units(query, fact_schema, rows[:2 * cap], layout)
        tail, __ = fold_units(query, fact_schema, rows[2 * cap:], layout)
        head.merge(tail, query.aggregates)
        whole, __ = fold_units(query, fact_schema, rows, layout)
        assert head == whole


@pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
class TestHashJoin:
    def make_query(self):
        return Query(
            table="fact",
            predicate=Compare(Col("val"), "<", Const(30)),
            join=JoinSpec(build_table="dim", build_key="pk",
                          probe_key="fk", payload=("label",)),
            select=(("id", Col("id")), ("label", Col("label"))),
        )

    def test_join_matches_reference(self, fact_schema, fact_rows, dim_schema,
                                    dim_rows, layout):
        query = self.make_query()
        counters = WorkCounters()
        table = build_hash_table(
            dim_schema, pages_of(dim_schema, dim_rows, layout), query.join,
            counters, layout)
        __, partials = run_kernel(query, fact_schema, fact_rows, layout,
                                  hash_table=table)
        got = merge_rows(partials, ["id", "label"])
        expected = run_reference(
            query, {"fact": fact_schema, "dim": dim_schema},
            {"fact": fact_rows, "dim": dim_rows})
        assert np.array_equal(got["id"], expected["id"])
        assert np.array_equal(got["label"], expected["label"])
        assert counters.hash_builds == len(dim_rows)

    def test_probe_counts_only_filter_survivors(self, fact_schema, fact_rows,
                                                dim_schema, dim_rows, layout):
        query = self.make_query()
        table = build_hash_table(
            dim_schema, pages_of(dim_schema, dim_rows, layout), query.join,
            WorkCounters(), layout)
        __, partials = run_kernel(query, fact_schema, fact_rows, layout,
                                  hash_table=table)
        probes = sum(p.counters.hash_probes for p in partials)
        survivors = int((fact_rows["val"] < 30).sum())
        assert probes == survivors

    def test_unmatched_probe_rows_dropped(self, fact_schema, dim_schema,
                                          dim_rows, layout):
        rows = fact_schema.rows_to_array(
            [(1, 5, 1), (2, 99, 1), (3, 7, 1)])  # fk=99 has no dim match
        query = Query(
            table="fact",
            join=JoinSpec(build_table="dim", build_key="pk",
                          probe_key="fk", payload=("label",)),
            select=(("id", Col("id")),),
        )
        table = build_hash_table(
            dim_schema, pages_of(dim_schema, dim_rows, layout), query.join,
            WorkCounters(), layout)
        __, partials = run_kernel(query, fact_schema, rows, layout,
                                  hash_table=table)
        got = merge_rows(partials, ["id"])
        assert got["id"].tolist() == [1, 3]

    def test_join_without_table_rejected(self, fact_schema, layout):
        query = self.make_query()
        with pytest.raises(PlanError):
            BatchKernel(query, fact_schema, layout, hash_table=None)

    @pytest.mark.parametrize("predicate", [
        Compare(Col("val"), "<", Const(30)),
        And(Compare(Col("val"), "<", Const(30)),
            And(Compare(Col("fk"), "<", Const(9)),
                Compare(Col("id"), "<", Const(400)))),
    ], ids=["exact", "right-nested"])
    def test_aggregate_without_state_rejected(self, fact_schema, fact_rows,
                                              layout, predicate):
        query = Query(table="fact", predicate=predicate,
                      aggregates=(AggSpec("sum", Col("val"), "s"),))
        kernel = BatchKernel(query, fact_schema, layout)
        pages = pages_of(fact_schema, fact_rows, layout)
        with pytest.raises(PlanError):
            kernel.process_unit(pages, counters=WorkCounters(),
                                agg_into=None)
        unit = UnitColumns(fact_schema, pages)
        with pytest.raises(PlanError):
            kernel.process_decoded_unit(
                unit.decode(kernel.needed_columns), unit.counts,
                counters=WorkCounters(), agg_into=None)


class TestHashTable:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(PlanError):
            HashTable(np.array([1, 1, 2]), {})

    def test_probe_hits_and_misses(self):
        table = HashTable(np.array([10, 20, 30]),
                          {"v": np.array([1, 2, 3])})
        match, positions = table.probe(np.array([20, 5, 30, 99]))
        assert match.tolist() == [True, False, True, False]
        assert table.payload["v"][positions[match]].tolist() == [2, 3]

    def test_empty_table_probe(self):
        table = HashTable(np.empty(0, dtype=np.int64), {})
        match, __ = table.probe(np.array([1, 2]))
        assert not match.any()

    def test_nbytes_scales_with_entries(self):
        small = HashTable(np.arange(10, dtype=np.int64),
                          {"v": np.arange(10, dtype=np.int64)})
        big = HashTable(np.arange(1000, dtype=np.int64),
                        {"v": np.arange(1000, dtype=np.int64)})
        assert big.nbytes > 50 * small.nbytes

    def test_build_with_build_predicate(self):
        dim_schema = Schema([Column("pk", Int32Type()),
                             Column("label", Int32Type())])
        rows = dim_schema.rows_to_array([(i, i * 10) for i in range(50)])
        spec = JoinSpec(build_table="dim", build_key="pk", probe_key="fk",
                        payload=("label",),
                        build_predicate=Compare(Col("pk"), "<", Const(10)))
        counters = WorkCounters()
        table = build_hash_table(
            dim_schema, pages_of(dim_schema, rows, Layout.PAX), spec,
            counters, Layout.PAX)
        assert len(table) == 10
        assert counters.hash_builds == 10

    @pytest.mark.parametrize("layout", [Layout.NSM, Layout.PAX])
    def test_right_nested_build_predicate(self, layout):
        """A build predicate that is not batch-exact: a 32-page batch
        charges what 32 one-page batches charge, and the join is right on
        both placements."""
        dim_schema = Schema([Column("pk", Int32Type()),
                             Column("label", Int32Type())])
        dim = np.empty(40_000, dtype=dim_schema.numpy_dtype())
        dim["pk"] = np.arange(len(dim))
        dim["label"] = dim["pk"] % 97
        spec = JoinSpec(
            build_table="dim", build_key="pk", probe_key="fk",
            payload=("label",),
            build_predicate=And(Compare(Col("label"), "<", Const(60)),
                                And(Compare(Col("pk"), ">=", Const(700)),
                                    Compare(Col("label"), "!=", Const(3)))))
        pages = pages_of(dim_schema, dim, layout)[:32]
        assert len(pages) == 32
        whole, paged = BuildCollector(dim_schema, spec), BuildCollector(
            dim_schema, spec)
        unit_counters, page_counters = WorkCounters(), WorkCounters()
        unit_touched = whole.consume(pages, unit_counters, layout)
        page_touched = sum(paged.consume([page], page_counters, layout)
                           for page in pages)
        assert (unit_counters, unit_touched) == (page_counters, page_touched)
        assert unit_counters.decoded_bytes > 0
        assert np.array_equal(whole.finish().keys, paged.finish().keys)

        fact_schema = Schema([Column("id", Int32Type()),
                              Column("fk", Int32Type())])
        fact = np.empty(3000, dtype=fact_schema.numpy_dtype())
        fact["id"] = np.arange(len(fact))
        fact["fk"] = (fact["id"] * 13) % 45_000  # some fks dangle
        query = Query(table="fact", join=spec,
                      select=(("id", Col("id")), ("label", Col("label"))))
        db = Database()
        db.create_smart_ssd()
        db.create_table("fact", fact_schema, layout, fact, "smart-ssd")
        db.create_table("dim", dim_schema, layout, dim, "smart-ssd")
        expected = run_reference(
            query, {"fact": fact_schema, "dim": dim_schema},
            {"fact": fact, "dim": dim})
        assert len(expected["id"])
        for placement in ("host", "smart"):
            rows = db.execute_placed(query, placement).rows
            assert np.array_equal(rows["id"], expected["id"])
            assert np.array_equal(rows["label"], expected["label"])


class TestQueryValidation:
    def test_select_and_aggregates_mutually_exclusive(self):
        with pytest.raises(PlanError):
            Query(table="t", select=(("a", Col("a")),),
                  aggregates=(AggSpec("count", None, "n"),))
        with pytest.raises(PlanError):
            Query(table="t")

    def test_group_by_requires_aggregates(self):
        with pytest.raises(PlanError):
            Query(table="t", select=(("a", Col("a")),), group_by="g")

    def test_probe_side_columns_excludes_build_payload(self):
        query = Query(
            table="fact",
            predicate=Compare(Col("val"), "<", Const(1)),
            join=JoinSpec(build_table="dim", build_key="pk",
                          probe_key="fk", payload=("label",)),
            select=(("id", Col("id")), ("label", Col("label"))),
        )
        needed = query.probe_side_columns()
        assert "label" not in needed
        assert set(needed) == {"val", "fk", "id"}

    def test_output_names(self):
        query = Query(table="t", aggregates=(AggSpec("count", None, "n"),),
                      group_by="g")
        assert query.output_names() == ["g", "n"]

    def test_bad_aggregate_kind_rejected(self):
        with pytest.raises(PlanError):
            AggSpec("median", Col("x"), "m")

    def test_sum_without_expr_rejected(self):
        with pytest.raises(PlanError):
            AggSpec("sum", None, "s")
