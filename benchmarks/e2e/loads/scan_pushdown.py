"""``scan_pushdown``: the paper's core claim (Fig. 3, Fig. 7).

LINEITEM and PART in PAX on one default Smart SSD; seeded Q6/Q1/Q14
parameter variants through ``Session.execute(q, Placement.SMART)``, one at a
time. The flash read path, the simulator, PAX unit decode, the batch kernels
and the Smart SSD runtime do the work; the scheduler, the serving layer, the
write path, SQL and the host executor stay idle. Q1, the aggregate-heavy
query, is one op in six, so it is the p95 op.
"""

from __future__ import annotations

import repro
from repro.bench import figures, paper
from repro.bench.runners import (
    DeviceKind,
    invalidate_workload_cache,
    make_tpch_db,
)
from repro.workloads import (
    generate_lineitem,
    generate_part,
    lineitem_schema,
    part_schema,
    q1_query,
    q6_query,
    q14_query,
)

from harness import World
from loads.base import (
    Workload,
    matches_reference,
    q6_variant,
    paper_error_pct,
    reference_rows,
    timed,
)


class ScanPushdown(Workload):
    name = "scan_pushdown"

    def __init__(self, seed: int, size: dict):
        super().__init__(seed, size)
        rng = self.rng()
        ops = []
        for _ in range(size["q6"]):
            params = q6_variant(rng)
            ops.append(("q6", params, q6_query(*params)))
        for _ in range(size["q1"]):
            params = (int(rng.integers(60, 121)),)
            ops.append(("q1", params, q1_query(*params)))
        for _ in range(size["q14"]):
            params = (int(rng.integers(1993, 1998)),
                      int(rng.integers(1, 13)))
            ops.append(("q14", params, q14_query(*params)))
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]
        self._paper_err = None

    def build(self) -> None:
        invalidate_workload_cache()
        make_tpch_db(DeviceKind.SMART, repro.Layout.PAX, self.size["scale"])

    def fresh(self) -> World:
        db = make_tpch_db(DeviceKind.SMART, repro.Layout.PAX,
                          self.size["scale"])
        return World(devices=[(db.device("smart-ssd"), db.sim)],
                     session=repro.Session(db))

    def run_pass(self, world: World, tally) -> None:
        session = world.session
        scanned = session.db.catalog.table("lineitem").tuple_count
        for index, (kind, params, query) in enumerate(self.ops):
            with tally.span("Session.execute", op=index):
                report, wall = timed(lambda: session.execute(
                    query, repro.Placement.SMART))
            tally.op(kind, (kind, params), wall, report.elapsed_seconds,
                     report.rows)
            tally.report(report)
            tally.counts["engine.rows_examined"] += scanned

    def verify(self, tally) -> tuple[int, int]:
        scale = self.size["scale"]
        schemas = {"lineitem": lineitem_schema(), "part": part_schema()}
        tables = {"lineitem": generate_lineitem(scale),
                  "part": generate_part(scale)}
        queries = {(kind, params): query
                   for kind, params, query in self.ops}
        failed = 0
        for key, query in queries.items():
            expected = reference_rows(query, schemas, tables)
            if not matches_reference(tally.results[key], expected):
                failed += 1
        return len(queries), failed

    def specific(self, tally) -> dict:
        if self._paper_err is None:
            fig3 = {row[0]: row[3] for row in figures.fig3_q6().rows}
            fig7 = {row[0]: row[3] for row in figures.fig7_q14().rows}
            table2 = figures.table2_sequential_read().rows[2][2]
            self._paper_err = paper_error_pct([
                (fig3["smart-pax"], paper.FIG3_Q6_PAX_SPEEDUP),
                (fig7["smart-pax"], paper.FIG7_Q14_PAX_SPEEDUP),
                (table2, paper.TABLE2_INTERNAL_SPEEDUP)])
        return {**super().specific(tally), "paper_err_pct": self._paper_err}
