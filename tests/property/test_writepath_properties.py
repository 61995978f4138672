"""Property tests for the HTAP write path (repro.writepath + flash GC).

Four contracts from ISSUE 10:

* **No data loss under any GC policy** — after any in-capacity write
  sequence, every LPN reads back its latest data, whichever victim
  policy ran underneath.
* **Wear-spread bound** — wear leveling keeps the per-block erase-count
  spread below greedy's on a skewed churn workload.
* **Exact WA accounting** — NAND ground truth (programs, erases) equals
  the FTL's host_writes + gc_relocations / erase counters, and the wear
  histogram partitions the physical block population.
* **Scan/DML isolation** — a scheduler window's scan results are
  bit-identical with and without concurrent DML write units on the same
  device.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError, ReproError
from repro.flash import (
    CostBenefitGcPolicy,
    GreedyGcPolicy,
    NandArray,
    NandGeometry,
    PageMappedFtl,
)
from repro.storage.page import PAGE_SIZE

POLICIES = {
    "greedy": GreedyGcPolicy,
    "cost-benefit": lambda: CostBenefitGcPolicy(wear_leveling=False),
    "cost-benefit+wl": lambda: CostBenefitGcPolicy(wear_leveling=True),
}


def make_ftl(policy_name: str):
    geometry = NandGeometry(channels=2, chips_per_channel=2,
                            blocks_per_chip=8, pages_per_block=4,
                            page_nbytes=PAGE_SIZE)
    nand = NandArray(geometry)
    ftl = PageMappedFtl(geometry, nand, overprovision=0.3,
                        gc_policy=POLICIES[policy_name]())
    return ftl, nand


def page_of(tag: int) -> bytes:
    return (tag & 0xFFFFFFFF).to_bytes(4, "little") * (PAGE_SIZE // 4)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@given(operations=st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 1_000_000)),
    min_size=1, max_size=120))
@settings(max_examples=25, deadline=None)
def test_no_data_loss_under_any_policy(policy_name, operations):
    """Reads return the last write regardless of the GC policy."""
    ftl, __ = make_ftl(policy_name)
    expected = {}
    for lpn, tag in operations:
        if (lpn not in expected
                and len(expected) >= ftl.logical_capacity_pages):
            continue  # respect the exported capacity
        ftl.write(lpn, page_of(tag))
        expected[lpn] = tag
    for lpn, tag in expected.items():
        assert ftl.read(lpn) == page_of(tag)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@given(operations=st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 999)),
    min_size=1, max_size=120))
@settings(max_examples=20, deadline=None)
def test_wa_accounting_exact(policy_name, operations):
    """FTL counters reconcile exactly with NAND ground truth."""
    ftl, nand = make_ftl(policy_name)
    for lpn, tag in operations:
        ftl.write(lpn, page_of(tag))
    stats = ftl.stats
    assert nand.programs == stats.host_writes + stats.gc_relocations
    assert stats.host_writes == len(operations)
    assert nand.erases == stats.erases
    assert stats.erases == sum(stats.block_erases.values())
    assert stats.write_amplification >= 1.0
    # The all-blocks wear histogram partitions the physical population.
    total_blocks = ftl.geometry.dies * ftl.geometry.blocks_per_chip
    assert sum(ftl.wear_histogram().values()) == total_blocks
    assert ftl.wear_spread() >= 0


@given(operations=st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 999)),
    min_size=1, max_size=150))
@settings(max_examples=20, deadline=None)
def test_greedy_heap_matches_linear_scan(operations):
    """The lazy victim heap returns exactly the linear scan's answer:
    minimum valid count over sealed candidate blocks, ties to the lowest
    block number, None when every candidate is fully valid."""
    ftl, __ = make_ftl("greedy")
    for lpn, tag in operations:
        ftl.write(lpn, page_of(tag))
    pages_per_block = ftl.geometry.pages_per_block
    for die in ftl._dies:
        candidates = []
        for block in sorted(die.sealed):
            key = (die.channel, die.chip, block)
            if ftl.is_collecting(*key):
                continue
            valid = ftl.valid_pages(*key)
            if valid >= pages_per_block:
                continue
            candidates.append((valid, block))
        expected = min(candidates, default=None)
        picked = ftl._min_valid_victim(die)
        if expected is None:
            assert picked is None
        else:
            assert picked == (die.channel, die.chip, expected[1])


def _skewed_churn(policy, rounds=20, seed=7):
    """Run a hot/cold overwrite mix; return the FTL afterwards."""
    geometry = NandGeometry(channels=1, chips_per_channel=2,
                            blocks_per_chip=16, pages_per_block=8,
                            page_nbytes=PAGE_SIZE)
    nand = NandArray(geometry)
    ftl = PageMappedFtl(geometry, nand, gc_policy=policy)
    blank = bytes(PAGE_SIZE)
    n = ftl.logical_capacity_pages
    for lpn in range(n):
        ftl.write(lpn, blank)
    hot = max(1, n // 20)
    rng = np.random.default_rng(seed)
    total = rounds * n
    draws = rng.random(total)
    hots = rng.integers(0, hot, total)
    colds = rng.integers(hot, n, total)
    for i in range(total):
        ftl.write(int(hots[i] if draws[i] < 0.95 else colds[i]), blank)
    return ftl


def test_wear_leveling_bounds_spread():
    """Under skewed churn, wear leveling must tighten the erase-count
    spread versus greedy, and cost-benefit must not cost WA."""
    greedy = _skewed_churn(GreedyGcPolicy())
    leveled = _skewed_churn(CostBenefitGcPolicy(wear_leveling=True))
    assert leveled.wear_spread() < greedy.wear_spread()
    assert leveled.stats.write_amplification \
        <= greedy.stats.write_amplification
    # Both paths moved the same logical data: host writes identical.
    assert leveled.stats.host_writes == greedy.stats.host_writes


def test_cost_benefit_deterministic_for_fixed_seed():
    """Same seed, same workload => bit-identical GC decisions."""
    first = _skewed_churn(CostBenefitGcPolicy(wear_leveling=True, seed=3),
                          rounds=8)
    second = _skewed_churn(CostBenefitGcPolicy(wear_leveling=True, seed=3),
                           rounds=8)
    assert first.stats.gc_relocations == second.stats.gc_relocations
    assert first.stats.block_erases == second.stats.block_erases


# -- scheduler write units ------------------------------------------------


def _mixed_window(with_dml: bool, scans: int = 3, dml_streams: int = 3):
    """A small scan batch, optionally with DML on a separate hot table."""
    from repro.engine.expressions import Col, Compare, Const, Mul
    from repro.host.db import Database
    from repro.sched import QueryScheduler
    from repro.storage import Column, Int32Type, Layout, Schema
    from repro.workloads import generate_lineitem, lineitem_schema, q6_query

    db = Database()
    db.create_smart_ssd()
    db.create_table("lineitem", lineitem_schema(), Layout.PAX,
                    generate_lineitem(0.001), "smart-ssd")
    schema = Schema([Column("k", Int32Type()), Column("v", Int32Type())])
    rows = np.zeros(5_000, dtype=schema.numpy_dtype())
    rows["k"] = np.arange(5_000)
    rows["v"] = np.arange(5_000) % 97
    db.create_table("hot", schema, Layout.PAX, rows, "smart-ssd")

    scheduler = QueryScheduler(db)
    for i in range(scans):
        scheduler.submit(q6_query(), "smart", at=i * 1e-4)
    tickets = []
    if with_dml:
        for j in range(dml_streams):
            tickets.append(scheduler.submit_update(
                "hot", Compare(Col("k"), ">=", Const(j * 1_000)),
                {"v": Mul(Col("v"), Const(2))}, at=j * 2e-4))
    reports = scheduler.gather()
    return db, scheduler, reports, tickets


def test_scans_bit_identical_with_and_without_dml():
    """The isolation differential: concurrent DML on the same device may
    not change any scan's result rows, row for row, byte for byte."""
    __, __, base_reports, __ = _mixed_window(with_dml=False)
    __, sched, mixed_reports, tickets = _mixed_window(with_dml=True)
    assert len(base_reports) == len(mixed_reports)
    for base, mixed in zip(base_reports, mixed_reports):
        assert base.rows == mixed.rows
    assert sched.stats["write_submitted"] == 3
    assert sched.stats["write_rows_changed"] == sum(
        t.rows_changed for t in tickets)


def test_write_tickets_account_and_group_flush():
    """Write units fill their tickets and group-flush once per table."""
    db, scheduler, __, tickets = _mixed_window(with_dml=True)
    assert all(t.done_at is not None for t in tickets)
    assert all(t.rows_changed > 0 for t in tickets)
    # Group flush: exactly one unit per table performs the write-back.
    flushed = [t for t in tickets if t.flushed]
    assert len(flushed) == 1
    assert scheduler.stats["group_flushes"] == 1
    assert scheduler.stats["write_pages_flushed"] == sum(
        t.pages_flushed for t in tickets)
    for ticket in flushed:
        assert ticket.host_writes > 0
        assert ticket.write_amplification >= 1.0
    # The updates really landed: every page flushed, none left dirty.
    assert db.flush_table("hot") == 0


def test_submit_update_validates_early():
    from repro.engine.expressions import Col, Compare, Const
    from repro.host.db import Database
    from repro.sched import QueryScheduler
    from repro.storage import Column, Int32Type, Layout, Schema

    db = Database()
    db.create_smart_ssd()
    schema = Schema([Column("k", Int32Type()), Column("v", Int32Type())])
    rows = np.zeros(10, dtype=schema.numpy_dtype())
    db.create_table("hot", schema, Layout.PAX, rows, "smart-ssd")
    scheduler = QueryScheduler(db)
    predicate = Compare(Col("k"), ">=", Const(0))

    with pytest.raises(ReproError):
        scheduler.submit_update("nope", predicate, {"v": Const(1)})
    with pytest.raises(ReproError):
        scheduler.submit_update("hot", predicate, {"missing": Const(1)})
    with pytest.raises(PlanError):
        scheduler.submit_update("hot", predicate, {"v": Const(1)}, at=-1.0)
    assert scheduler.write_submissions == []


def test_device_spec_selects_gc_policy():
    """SsdSpec.gc_policy / gc_wear_leveling / gc_seed plumb to the FTL."""
    from repro.host.db import Database
    from repro.smart.device import SmartSsdSpec

    db = Database()
    device = db.create_smart_ssd(SmartSsdSpec(
        gc_policy="cost-benefit", gc_wear_leveling=True, gc_seed=11))
    policy = device.ftl.gc_policy
    assert isinstance(policy, CostBenefitGcPolicy)
    assert policy.name == "cost-benefit"
    assert policy.wear_leveling is True

    default = Database()
    default_device = default.create_smart_ssd()
    assert isinstance(default_device.ftl.gc_policy, GreedyGcPolicy)
