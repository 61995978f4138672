"""Exact-state golden for the FTL write/GC path.

A seeded stream (bulk fill to 90%, 95/5 skewed overwrites, a few trims and
one unclean shutdown + recovery in the middle) runs on a small geometry
under both GC policies, with and without a ``nand.program`` fault plan.
The digest covers the L2P map, every page's ``(state, oob)``, ``FtlStats``
including the per-block erase counters, each die's cursors, the sequence of
GC victims and the fired faults.

The expected digests were generated on the commit *before* the flash
substrate moved to per-block records and one write core (PR 13), when
``write_bulk`` still had its own fast path. They are the oracle for "same
PPNs, write sequence, OOB, stats, victim choices and wear": any rewrite of
the write or GC path has to reproduce them bit for bit.
"""

import hashlib
import random

import pytest

from repro.faults import SITE_NAND_PROGRAM, FaultPlan
from repro.flash import NandArray, NandGeometry, PageMappedFtl
from repro.flash.gc import GcPolicy, make_gc_policy
from repro.storage.page import PAGE_SIZE

GEOMETRY = NandGeometry(channels=2, chips_per_channel=2, blocks_per_chip=12,
                        pages_per_block=8, page_nbytes=PAGE_SIZE)
FILL = 0.90
OVERWRITES = 1500
HOT_FRACTION = 0.05
HOT_SHARE = 0.95
TRIM_EVERY = 193
SEED = 13

POLICIES = {
    "greedy": {},
    "cost-benefit": {"wear_leveling": True, "seed": 5},
}

EXPECTED = {
    ("greedy", False):
        "590887d7ac9cae6f325ac9403fd88103a69167598428c5dce4d1995a499c2fa4",
    ("greedy", True):
        "8396ec99f2d0bb8f19c7a0a9486de7b0c52b4eed7732899cd085a56873a19358",
    ("cost-benefit", False):
        "d997789f6e24bea535a286dd8c8b9c84505eaea7333b404f3f64e4f9ca80a7e1",
    ("cost-benefit", True):
        "7e8c04c7bdd2ae9f2076933963f773574cfbc4dcb5b9f74c43d243686c5c32a4",
}


class RecordingPolicy(GcPolicy):
    """Delegates to a real policy and keeps every answer it gave."""

    def __init__(self, inner: GcPolicy):
        self.inner = inner
        self.name = inner.name
        self.victims = []

    def pick_victim(self, ftl, die):
        victim = self.inner.pick_victim(ftl, die)
        self.victims.append(victim)
        return victim


def page_of(tag: int) -> bytes:
    return (tag & 0xFFFFFFFF).to_bytes(4, "little") * (PAGE_SIZE // 4)


def run_stream(policy_name: str, faulty: bool):
    """Run the seeded stream; returns (ftl, nand, policy, plan, model)."""
    nand = NandArray(GEOMETRY)
    policy = RecordingPolicy(
        make_gc_policy(policy_name, **POLICIES[policy_name]))
    ftl = PageMappedFtl(GEOMETRY, nand, gc_policy=policy)
    plan = None
    if faulty:
        plan = FaultPlan(seed=3)
        plan.add(SITE_NAND_PROGRAM, probability=0.04)
        nand.faults = plan

    loaded = int(ftl.logical_capacity_pages * FILL)
    model = {lpn: lpn for lpn in range(loaded)}
    # The fill goes through the bulk door in two runs, so the second one
    # starts mid-stripe.
    split = loaded // 3
    ftl.write_bulk(0, [page_of(lpn) for lpn in range(split)])
    ftl.write_bulk(split, [page_of(lpn) for lpn in range(split, loaded)])

    rng = random.Random(SEED)
    hot = max(1, int(loaded * HOT_FRACTION))
    for index in range(OVERWRITES):
        if rng.random() < HOT_SHARE:
            lpn = rng.randrange(hot)
        else:
            lpn = rng.randrange(hot, loaded)
        if index % TRIM_EVERY == TRIM_EVERY - 1:
            ftl.trim(lpn)
            model.pop(lpn, None)
            continue
        tag = loaded + index
        ftl.write(lpn, page_of(tag))
        model[lpn] = tag
        if index == OVERWRITES // 2:
            ftl.unclean_shutdown()
            assert ftl.recover() == len(model)
    return ftl, nand, policy, plan, model


def state_digest(ftl, nand, policy, plan) -> str:
    """SHA-256 over everything the exact-state contract names."""
    geometry = ftl.geometry
    parts = [("map", sorted(ftl._map.items()))]
    pages = []
    for ppn in range(geometry.total_pages):
        pages.append((nand.state(ppn).value, nand.oob(ppn)))
    parts.append(("pages", pages))
    stats = ftl.stats
    parts.append(("stats", (
        stats.host_writes, stats.gc_relocations, stats.erases,
        stats.program_retries, stats.recoveries, stats.recovered_pages,
        sorted(stats.block_erases.items()))))
    parts.append(("nand", (nand.reads, nand.programs, nand.erases,
                           nand.program_failures)))
    parts.append(("dies", [
        (die.channel, die.chip, list(die.free_blocks), die.active_block,
         die.next_page, die.spare_block, die.invalid_pages,
         sorted(die.sealed))
        for die in ftl._dies]))
    parts.append(("victims", policy.victims))
    parts.append(("wear", (sorted(ftl.wear_histogram().items()),
                           ftl.wear_spread())))
    if plan is not None:
        parts.append(("faults", [(event.hit, event.context["ppn"])
                                 for event in plan.events]))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
def test_state_matches_pre_rewrite_digest(policy_name, faulty):
    ftl, nand, policy, plan, model = run_stream(policy_name, faulty)
    # The stream has to reach the machinery the digest is there to pin.
    assert ftl.stats.erases > 50
    assert ftl.stats.gc_relocations > 100
    assert ftl.stats.recoveries == 1
    assert (ftl.stats.program_retries > 10) == faulty
    assert state_digest(ftl, nand, policy, plan) == EXPECTED[
        (policy_name, faulty)]
    for lpn, tag in model.items():
        assert ftl.read(lpn) == page_of(tag)
    assert ftl.mapped_pages == len(model)
    # The maintained per-die counter equals what it replaced: free blocks
    # plus the active block's unwritten tail.
    pages_per_block = GEOMETRY.pages_per_block
    for die in ftl._dies:
        tail = pages_per_block - die.next_page if die.active_block >= 0 else 0
        assert die.free_pages == len(die.free_blocks) * pages_per_block + tail
