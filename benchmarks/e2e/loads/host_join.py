"""``host_join``: the baseline side of the paper's Fig. 5.

Synthetic64 R and S in NSM on a plain SAS SSD, with the buffer pool capped
at half of S: R fits, S does not. The ops are the Fig. 5 join-selectivity
sweep, the scan-selectivity sweep with and without aggregation, and bursts
of small selections on R, all issued as SQL text through
``Session.execute(sql, Placement.HOST)``. SQL, the host planner, executor
and buffer pool, the hash join and NSM decode do the work; nothing
device-side runs, so this is the bypass workload for any Smart SSD change.
"""

from __future__ import annotations

import repro
from repro.bench import figures, paper
from repro.host.db import DatabaseConfig
from repro.host.machine import HostSpec
from repro.storage.page import PAGE_SIZE
from repro.workloads import (
    generate_synthetic64_r,
    generate_synthetic64_s,
    synthetic64_r_schema,
    synthetic64_s_schema,
)

from harness import World
from loads.base import (
    Workload,
    matches_reference,
    paper_error_pct,
    reference_rows,
    timed,
)

JOIN_SQL = ("SELECT s_col_1, r_col_2 FROM synthetic64_r, synthetic64_s "
            "WHERE r_col_1 = s_col_2 AND s_col_3 < {value}")
SCAN_SQL = ("SELECT s_col_1, s_col_2, s_col_3, s_col_4, s_col_5, s_col_6, "
            "s_col_7, s_col_8 FROM synthetic64_s WHERE s_col_3 < {value}")
SCAN_AGG_SQL = "SELECT SUM(s_col_4) FROM synthetic64_s WHERE s_col_3 < {value}"
R_SQL = "SELECT r_col_1, r_col_2 FROM synthetic64_r WHERE r_col_3 < {value}"
#: Dimension-table selections arrive in bursts, so all but the first of a
#: burst can hit the buffer pool before an S scan floods it again.
R_BURST = 4
DEVICE = "sas-ssd"
SCHEMAS = {"synthetic64_r": synthetic64_r_schema,
           "synthetic64_s": synthetic64_s_schema}


class HostJoin(Workload):
    name = "host_join"

    def __init__(self, seed: int, size: dict):
        super().__init__(seed, size)
        rng = self.rng()

        def near(percent: int) -> int:
            return int(min(100, max(1, percent + rng.integers(-2, 3))))

        singles = []
        for _ in range(size["sweeps"]):
            for percent in paper.FIG5_SELECTIVITIES_PCT:
                singles.append(("join", JOIN_SQL.format(value=near(percent))))
                singles.append(("scan", SCAN_SQL.format(value=near(percent))))
                singles.append(("scan-agg",
                                SCAN_AGG_SQL.format(value=near(percent))))
        bursts = [[("r-select",
                    R_SQL.format(value=int(rng.integers(1, 1_000_000))))
                   for _ in range(R_BURST)]
                  for _ in range(size["r_bursts"])]
        units = [[op] for op in singles] + bursts
        self.ops = [op for i in rng.permutation(len(units))
                    for op in units[i]]
        self._rows = None
        self._paper_err = None

    def build(self) -> None:
        scale = self.size["scale"]
        # R is floored like repro.bench.runners does, so the join always
        # has a few hundred distinct build keys.
        r_rows = generate_synthetic64_r(max(scale, 5e-4))
        self._rows = {
            "synthetic64_r": r_rows,
            "synthetic64_s": generate_synthetic64_s(scale, len(r_rows))}
        self.fresh()

    def fresh(self) -> World:
        s_nbytes = (len(self._rows["synthetic64_s"])
                    * synthetic64_s_schema().numpy_dtype().itemsize)
        session = repro.connect(DatabaseConfig(
            host=HostSpec(buffer_pool_nbytes=max(s_nbytes // 2,
                                                 64 * PAGE_SIZE))))
        device = session.db.create_ssd()
        for name, schema in SCHEMAS.items():
            session.create_table(name, schema(), repro.Layout.NSM,
                                 self._rows[name], DEVICE)
        return World(devices=[(device, session.db.sim)], session=session)

    def run_pass(self, world: World, tally) -> None:
        session = world.session
        catalog = session.db.catalog
        scanned = {
            "r-select": catalog.table("synthetic64_r").tuple_count,
            "join": catalog.table("synthetic64_s").tuple_count,
        }
        for index, (kind, sql) in enumerate(self.ops):
            with tally.span("Session.execute", op=index):
                report, wall = timed(lambda: session.execute(
                    sql, repro.Placement.HOST))
            tally.op(kind, sql, wall, report.elapsed_seconds, report.rows)
            tally.report(report)
            tally.counts["sql.statements"] += 1
            tally.counts["engine.rows_examined"] += scanned.get(
                kind, scanned["join"])

    def verify(self, tally) -> tuple[int, int]:
        tables = self._rows
        schemas = {name: schema() for name, schema in SCHEMAS.items()}
        session = tally.world.session
        statements = sorted({sql for _, sql in self.ops})
        failed = 0
        for sql in statements:
            expected = reference_rows(session.compile(sql), schemas, tables)
            if not matches_reference(tally.results[sql], expected):
                failed += 1
        return len(statements), failed

    def host_samples(self, tally) -> dict:
        session = tally.world.session
        for _, sql in self.ops:
            tally.samples["sql.compile_ms_p50"].append(
                timed(lambda: session.compile(sql))[1])
        return super().host_samples(tally)

    def specific(self, tally) -> dict:
        if self._paper_err is None:
            rows = figures.fig5_join_selectivity(
                run_scale=self.size["paper_run_scale"],
                selectivities=(1, 100)).rows
            self._paper_err = paper_error_pct([
                (rows[0][4], paper.FIG5_JOIN_SPEEDUP_AT_1PCT),
                (rows[1][4], 1.0)])
        return {**super().specific(tally), "paper_err_pct": self._paper_err}
