"""Pluggable garbage-collection victim-selection policies.

The FTL's collector (:meth:`repro.flash.ftl.PageMappedFtl._collect`) is
mechanism — read the victim's live pages, relocate them, erase. *Which*
block to collect is policy, and the classic design space (EagleTree maps
it) has two poles:

* **Greedy** — the block with the fewest valid pages. Minimal relocation
  work *right now*; provably optimal under uniform random overwrites, but
  under skew it keeps collecting hot blocks whose remaining live pages
  were about to be invalidated anyway.
* **Cost-benefit** — weigh the reclaimed space against the relocation
  cost *and* the block's age (virtual time since its last program, in
  write-sequence units). Old blocks hold cold data whose relocation is
  not wasted; young blocks are deferred until churn has hollowed them
  out. The score is the eNVy/LFS form ``(1 - u) / (1 + u) * age`` with
  ``u`` the valid-page fraction. An optional **wear-leveling bias**
  divides the score by the block's erase count, steering erases toward
  less-worn blocks and bounding the wear spread.

Policies are deterministic: greedy resolves ties toward the lowest block
number (bit-identical to the historical linear scan), and cost-benefit
breaks exact score ties from its own seeded PRNG stream, so a fixed
workload picks the same victims run after run.

Select a policy per device via :class:`repro.flash.ssd.SsdSpec`
(``gc_policy="greedy" | "cost-benefit"``, ``gc_wear_leveling``,
``gc_seed``) or pass a :class:`GcPolicy` instance to
:class:`~repro.flash.ftl.PageMappedFtl` directly.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import DeviceError

if TYPE_CHECKING:
    from repro.flash.ftl import PageMappedFtl, _Die

#: Block key: (channel, chip, block).
BlockKey = tuple[int, int, int]


class GcPolicy:
    """Strategy interface: pick the next GC victim block on one die."""

    #: Wire name (stable: reports, configs, and specs use it).
    name = "base"

    def pick_victim(self, ftl: "PageMappedFtl",
                    die: "_Die") -> Optional[BlockKey]:
        """The next victim on ``die``, or None when nothing is gained.

        Implementations see the FTL's candidate ("sealed") block set and
        its valid-count / age / wear tables (indexed by the flat block id
        ``die.base + block``); they must never return the
        active block, the spare, a free block, or a block already being
        collected, and must return None when every candidate is fully
        valid (collecting it would reclaim nothing).
        """
        raise NotImplementedError


class GreedyGcPolicy(GcPolicy):
    """Min-valid-pages victim selection (the historical default).

    Delegates to the FTL's valid-count heap index, which resolves ties
    toward the lowest block number — bit-identical victims to the original
    O(blocks_per_chip) linear scan, at O(log candidates) per pick.
    """

    name = "greedy"

    def pick_victim(self, ftl: "PageMappedFtl",
                    die: "_Die") -> Optional[BlockKey]:
        return ftl._min_valid_victim(die)


class CostBenefitGcPolicy(GcPolicy):
    """Age-weighted cost-benefit selection with optional wear leveling.

    ``score = (1 - u) / (1 + u) * (1 + age)`` where ``u`` is the block's
    valid fraction and ``age`` is the write-sequence distance since the
    block was last programmed; with ``wear_leveling`` the score is divided
    by ``1 + wear_weight * erase_count`` so heavily-cycled blocks are
    deprioritized. Exact score ties draw from a PRNG seeded at
    construction, keeping the pick deterministic for a fixed workload.
    """

    name = "cost-benefit"

    def __init__(self, wear_leveling: bool = True,
                 wear_weight: float = 0.05, seed: int = 0):
        if wear_weight < 0:
            raise DeviceError(f"negative wear weight {wear_weight}")
        self.wear_leveling = wear_leveling
        self.wear_weight = wear_weight
        self.seed = seed
        self._rng = random.Random(seed)

    def pick_victim(self, ftl: "PageMappedFtl",
                    die: "_Die") -> Optional[BlockKey]:
        pages_per_block = ftl.geometry.pages_per_block
        write_seq = ftl._write_seq
        best: Optional[BlockKey] = None
        best_score = 0.0
        for block in sorted(die.sealed):
            flat = die.base + block
            if flat in ftl._gc_victims:
                continue
            valid = ftl._valid[flat]
            if valid >= pages_per_block:
                continue  # collecting a fully-valid block gains nothing
            u = valid / pages_per_block
            age = write_seq - ftl._block_seq[flat]
            score = (1.0 - u) / (1.0 + u) * (1.0 + age)
            if self.wear_leveling:
                wear = ftl.stats.block_erases.get(flat, 0)
                score /= 1.0 + self.wear_weight * wear
            if best is None or score > best_score or (
                    score == best_score and self._rng.random() < 0.5):
                best, best_score = (die.channel, die.chip, block), score
        return best


def make_gc_policy(policy: Union[str, GcPolicy, None], *,
                   wear_leveling: bool = False,
                   seed: int = 0) -> GcPolicy:
    """Resolve a policy spec (wire name, instance, or None) to a policy."""
    if policy is None:
        return GreedyGcPolicy()
    if isinstance(policy, GcPolicy):
        return policy
    if policy == GreedyGcPolicy.name:
        return GreedyGcPolicy()
    if policy in (CostBenefitGcPolicy.name, "costbenefit"):
        return CostBenefitGcPolicy(wear_leveling=wear_leveling, seed=seed)
    raise DeviceError(
        f"unknown GC policy {policy!r}; expected "
        f"{GreedyGcPolicy.name!r} or {CostBenefitGcPolicy.name!r}")
