"""``htap_mixed``: writes beside reads, through the front door.

One small-geometry Smart SSD filled to about 90% of its logical capacity
with LINEITEM and a narrow ``hot`` table. Each window submits shared Q6 scans
over LINEITEM and skewed ``Session.submit_update`` statements over ``hot``,
then gathers. The pass is long enough for GC to cycle and for write
amplification to level off. Page *encode*, host DML, the write path and write
admission do the work: ``storage`` and ``sched`` are used the opposite way
round from the read-only workloads, so a decode win that costs encode shows.
"""

from __future__ import annotations

import numpy as np

import repro
from repro import Add, Col, Compare, Const, and_all
from repro.flash import NandGeometry
from repro.storage import Column, Int32Type, Int64Type, Schema
from repro.workloads import generate_lineitem, lineitem_schema, q6_query

from harness import World, write_amplification
from loads.base import (
    Workload,
    matches_reference,
    q6_variant,
    reference_rows,
    timed,
)

DEVICE = "smart-ssd"
#: The hot fifth of the keys takes ``hot_updates`` of a window's updates, the
#: rest of the keys the other ``cold_updates``: the split is fixed, so the
#: volume flushed per window hardly moves with the seed; where each update
#: lands inside its region is seeded.
HOT_FRACTION = 0.2
SCAN_SPACING_VS = 1e-4
UPDATE_SPACING_VS = 2e-4


def hot_schema() -> Schema:
    """``k`` is the key, ``v`` the updated value; the rest is row width."""
    return Schema([Column("k", Int32Type()), Column("v", Int32Type())]
                  + [Column(f"pad_{i}", Int64Type()) for i in range(6)])


class HtapMixed(Workload):
    name = "htap_mixed"

    def __init__(self, seed: int, size: dict):
        super().__init__(seed, size)
        rng = self.rng()
        rows = size["hot_rows"]
        span = int(rows * size["update_span"])
        hot = int(rows * HOT_FRACTION)
        self.windows = []
        for _ in range(size["windows"]):
            scans = []
            for _ in range(size["scans"]):
                params = q6_variant(rng)
                scans.append((params, q6_query(*params)))
            lows = ([int(rng.integers(0, hot - span))
                     for _ in range(size["hot_updates"])]
                    + [int(rng.integers(hot, rows - span))
                       for _ in range(size["cold_updates"])])
            updates = [(lows[i], lows[i] + span, int(rng.integers(1, 10)))
                       for i in rng.permutation(len(lows))]
            self.windows.append((scans, updates))
        self._lineitem = None

    def _hot_rows(self) -> np.ndarray:
        rows = np.zeros(self.size["hot_rows"],
                        dtype=hot_schema().numpy_dtype())
        rows["k"] = np.arange(len(rows))
        rows["v"] = rows["k"] % 97
        return rows

    def build(self) -> None:
        self._lineitem = generate_lineitem(self.size["scale"])
        self.fresh()

    def fresh(self) -> World:
        session = repro.connect()
        device = session.db.create_smart_ssd(repro.SmartSsdSpec(
            geometry=NandGeometry(*self.size["geometry"])))
        session.create_table("lineitem", lineitem_schema(), repro.Layout.PAX,
                             self._lineitem, DEVICE)
        session.create_table("hot", hot_schema(), repro.Layout.PAX,
                             self._hot_rows(), DEVICE)
        return World(devices=[(device, session.db.sim)], session=session)

    def run_pass(self, world: World, tally) -> None:
        session = world.session
        sim = session.db.sim
        scanned = session.db.catalog.table("lineitem").tuple_count
        half = len(self.windows) // 2
        for index, (scans, updates) in enumerate(self.windows):
            if index == half:
                mid = tally.probe.delta()
            start = sim.now

            def window():
                for i, (_, query) in enumerate(scans):
                    session.submit(query, repro.Placement.SMART,
                                   at=i * SCAN_SPACING_VS)
                tickets = [
                    session.submit_update(
                        "hot",
                        and_all([Compare(Col("k"), ">=", Const(low)),
                                 Compare(Col("k"), "<", Const(high))]),
                        {"v": Add(Col("v"), Const(step))},
                        at=j * UPDATE_SPACING_VS)
                    for j, (low, high, step) in enumerate(updates)]
                return session.gather(), tickets

            with tally.span("Session.submit+gather", op=index):
                (reports, tickets), wall = timed(window)
            share = wall / (len(scans) + len(updates))
            for (params, _), report in zip(scans, reports):
                tally.op("q6", params, share, report.elapsed_seconds,
                         report.rows)
                tally.report(report, energy=False)
                tally.counts["engine.rows_examined"] += scanned
            for j, ticket in enumerate(tickets):
                tally.op("update", None, share,
                         ticket.done_at - start - j * UPDATE_SPACING_VS)
                tally.work(ticket.counters)
            tally.energy_j += reports[0].energy.entire_system_j
            tally.window(session.scheduler.stats)
        delta = tally.probe.delta()
        world.state["write_amp"] = write_amplification(
            {key: delta[key] - mid[key]
             for key in ("host_writes", "gc_relocations")})

    def verify(self, tally) -> tuple[int, int]:
        schemas = {"lineitem": lineitem_schema()}
        tables = {"lineitem": self._lineitem}
        queries = {params: query for scans, _ in self.windows
                   for params, query in scans}
        failed = 0
        for params, query in queries.items():
            expected = reference_rows(query, schemas, tables)
            if not matches_reference(tally.results[params], expected):
                failed += 1
        # The final state of the updated table against an in-memory model.
        model = self._hot_rows()
        for _, updates in self.windows:
            for low, high, step in updates:
                model["v"][(model["k"] >= low) & (model["k"] < high)] += step
        stored = tally.world.session.execute(
            "SELECT k, v FROM hot", repro.Placement.HOST).rows
        if not (np.array_equal(stored["k"], model["k"])
                and np.array_equal(stored["v"], model["v"])):
            failed += 1
        return len(queries) + 1, failed

    def specific(self, tally) -> dict:
        return {**super().specific(tally),
                "write_amp": tally.world.state["write_amp"]}
