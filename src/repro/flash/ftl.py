"""Page-mapping Flash Translation Layer.

The FTL maps Logical Page Numbers (the host's view; one logical page is one
8 KiB DBMS page) to Physical Page Numbers in the NAND array. Key behaviours:

* **Channel striping** — consecutive writes rotate round-robin across every
  die of every channel, so a sequentially-written extent is read back with
  all channels working in parallel. This is the chip-level and channel-level
  interleaving §2 of the paper describes.
* **Out-of-place updates** — rewriting an LPN invalidates the old flash page
  and programs a fresh one.
* **Policy-driven garbage collection with a per-die spare block** — when a
  die runs low on free pages, a victim block chosen by the configured
  :class:`~repro.flash.gc.GcPolicy` (greedy min-valid by default;
  age-weighted cost-benefit with a wear-leveling bias as the alternative)
  is collected: its live pages are relocated (into normal free slots, or
  into the die's dedicated spare block under emergency pressure) and the
  block erased. The spare guarantees that *any* victim is collectible, so
  the die can always compact as long as it holds invalid pages.
* **Pressure steering** — live data drifts between dies under random
  overwrites (an overwrite invalidates the old copy's die but programs the
  round-robin target die), so writes shed from squeezed dies to the die
  with the most reclaimable space.
* **Block-granular bookkeeping** — a block is one flat integer id
  (``ppn // pages_per_block``) keying the valid-count and age tables;
  each die maintains its free-page counter and a lazy min-heap over sealed
  blocks' valid counts (the greedy pick is O(log candidates)). There is no
  reverse map: a page's owner is the LPN in its out-of-band metadata.
* **One write core** — :meth:`PageMappedFtl.write` and ``write_bulk`` are
  two doors onto one per-page core, so a bulk load leaves exactly the state
  the equivalent writes would (``tests/test_ftl_state_golden.py`` pins it).

Stats expose host writes vs. GC relocations (the write-amplification
factor the tests check) plus per-block erase counts — the wear histogram
and spread the leveling policy is gated on.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Union

from repro.errors import DeviceError, FlashError
from repro.faults import SITE_NAND_PROGRAM, check_fault
from repro.flash.gc import GcPolicy, make_gc_policy
from repro.flash.geometry import NandGeometry
from repro.flash.nand import ERASED, INVALID, PROGRAMMED, NandArray

#: Fraction of raw capacity reserved as over-provisioning.
DEFAULT_OVERPROVISION = 0.08

#: GC maintenance keeps at least this many blocks' worth of free pages per
#: die (beyond the dedicated spare block).
GC_HEADROOM_BLOCKS = 2

#: Consecutive NAND program failures tolerated for one logical write before
#: the device gives up (each failed attempt burns one physical slot).
PROGRAM_RETRY_LIMIT = 8

#: Pressure-steering order: most immediately-free space first, ties toward
#: reclaimable space so GC can make room (``max`` keeps the first maximum).
_BY_SPACE = attrgetter("free_pages", "invalid_pages")


@dataclass
class FtlStats:
    """Write/GC accounting."""

    host_writes: int = 0
    gc_relocations: int = 0
    erases: int = 0
    program_retries: int = 0    # NAND program failures retried on a new slot
    recoveries: int = 0        # unclean-shutdown recovery scans completed
    recovered_pages: int = 0    # live pages remapped by those scans
    #: Erase count per flat block id (wear). Like real firmware's per-block
    #: cycle counters this survives power loss — it is accounting, not the
    #: volatile map state an unclean shutdown drops.
    block_erases: dict[int, int] = field(default_factory=dict)

    @property
    def write_amplification(self) -> float:
        """(host + GC writes) / host writes; 1.0 when GC never ran."""
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_relocations) / self.host_writes

    @property
    def wear_histogram(self) -> dict[int, int]:
        """Erase-count -> number of blocks at that count (erased blocks
        only; :meth:`PageMappedFtl.wear_histogram` includes the zeros)."""
        histogram: dict[int, int] = {}
        for count in self.block_erases.values():
            histogram[count] = histogram.get(count, 0) + 1
        return histogram


@dataclass
class _Die:
    """Per-die allocation state."""

    channel: int
    chip: int
    base: int               # flat id of this die's block 0
    free_blocks: list[int] = field(default_factory=list)
    active_block: int = -1
    next_page: int = 0
    #: Pages writable without GC (free blocks plus the active block's tail),
    #: maintained at: slot taken, block freed, spare rotated in, sealed short.
    free_pages: int = 0
    spare_block: int = -1   # always-erased GC relocation reserve
    invalid_pages: int = 0  # reclaimable pages on this die
    #: GC candidate blocks: written and rotated out of the active slot
    #: (i.e. not active, not spare, not free). Victims come from here.
    sealed: set[int] = field(default_factory=set)
    #: Lazy min-heap of (valid_count, block) over sealed blocks. Entries
    #: are pushed at seal time and on every invalidation; stale entries
    #: (count moved on, block erased/reused) are discarded on pop.
    victim_heap: list[tuple[int, int]] = field(default_factory=list)


class PageMappedFtl:
    """LPN -> PPN mapping with striped allocation and pluggable GC."""

    def __init__(self, geometry: NandGeometry, nand: NandArray,
                 overprovision: float = DEFAULT_OVERPROVISION,
                 gc_policy: Union[GcPolicy, str, None] = None,
                 sim=None):
        if not 0.0 <= overprovision < 0.5:
            raise DeviceError(f"unreasonable overprovision {overprovision}")
        if geometry.blocks_per_chip < GC_HEADROOM_BLOCKS + 2:
            raise DeviceError("geometry too small for the GC reserve")
        self.geometry = geometry
        self.nand = nand
        self.stats = FtlStats()
        self.gc_policy = make_gc_policy(gc_policy)
        #: Optional simulator binding; only consulted for observability
        #: (``sim.obs``) — the FTL itself is untimed firmware state.
        self._sim = sim
        self._map: dict[int, int] = {}
        self._pages_per_block = pages_per_block = geometry.pages_per_block
        self._page_nbytes = geometry.page_nbytes
        #: GC keeps at least this many free pages per die before a write.
        self._headroom = GC_HEADROOM_BLOCKS * pages_per_block
        self._reset_block_tables()
        self._dies: list[_Die] = []
        # Channel-minor order: consecutive writes land on consecutive
        # *channels* (then rotate chips), so even short sequential runs
        # read back with full channel-level parallelism (§2).
        for chip in range(geometry.chips_per_channel):
            for channel in range(geometry.channels):
                die = _Die(channel, chip,
                           (channel * geometry.chips_per_channel + chip)
                           * geometry.blocks_per_chip,
                           free_blocks=list(range(geometry.blocks_per_chip)))
                die.spare_block = die.free_blocks.pop()
                die.free_pages = len(die.free_blocks) * pages_per_block
                self._dies.append(die)
        #: Dies in flat-id order: block ``flat`` is on
        #: ``_die_of_block[flat // blocks_per_chip]``.
        self._die_of_block = sorted(self._dies, key=attrgetter("base"))
        self._next_die = 0
        self._gc_victims: set[int] = set()   # flat ids mid-collection
        self._write_seq = 0
        self._needs_recovery = False
        # Exported capacity: the requested over-provisioning, floored by a
        # hard per-die reserve (the spare block plus GC headroom plus one
        # block of slack).
        per_die_reserve = (GC_HEADROOM_BLOCKS + 2) * pages_per_block
        reserve_pages = max(
            int(geometry.total_pages * overprovision),
            geometry.dies * per_die_reserve)
        if reserve_pages >= geometry.total_pages:
            raise DeviceError("geometry too small for the GC reserve")
        self.logical_capacity_pages = geometry.total_pages - reserve_pages

    def _reset_block_tables(self) -> None:
        """Empty the per-block tables: flat id -> live pages, and flat id ->
        write sequence of the block's newest program (the age signal the
        cost-benefit policy weighs). Absent means 0."""
        self._valid: dict[int, int] = defaultdict(int)
        self._block_seq: dict[int, int] = defaultdict(int)

    # -- host-facing operations --------------------------------------------

    def lookup(self, lpn: int) -> int:
        """PPN currently holding ``lpn``; raises if unmapped."""
        self._check_recovered()
        try:
            return self._map[lpn]
        except KeyError:
            raise DeviceError(f"LPN {lpn} is not mapped") from None

    def lookup_many(self, lpns) -> list[int]:
        """PPNs for a whole I/O unit of LPNs; raises on the first unmapped."""
        self._check_recovered()
        mapping = self._map
        try:
            return [mapping[lpn] for lpn in lpns]
        except KeyError:
            for lpn in lpns:
                self.lookup(lpn)
            raise  # unreachable: the loop above raises the DeviceError

    def is_mapped(self, lpn: int) -> bool:
        """True when ``lpn`` currently holds data."""
        return lpn in self._map

    @property
    def mapped_pages(self) -> int:
        """Number of live logical pages."""
        return len(self._map)

    def valid_pages(self, channel: int, chip: int, block: int) -> int:
        """Live pages currently in one physical block."""
        return self._valid[self._flat_block(channel, chip, block)]

    def is_collecting(self, channel: int, chip: int, block: int) -> bool:
        """True while GC is relocating out of this block."""
        return self._flat_block(channel, chip, block) in self._gc_victims

    def read(self, lpn: int) -> bytes:
        """Read the bytes stored at a logical page."""
        return self.nand.read(self.lookup(lpn))

    def write(self, lpn: int, data: bytes) -> int:
        """Write a logical page out-of-place; returns the new PPN."""
        self._check_recovered()
        return self._write_page(lpn, data)

    def write_bulk(self, first_lpn: int, pages: Iterable[bytes]) -> None:
        """Write a run of logical pages starting at ``first_lpn``.

        The untimed bulk-load door onto the same per-page core as
        :meth:`write`: same PPNs (hence channel striping and simulated read
        timing), write sequence, out-of-band metadata, stats, GC decisions.
        """
        self._check_recovered()
        for lpn, data in enumerate(pages, first_lpn):
            self._write_page(lpn, data)

    def trim(self, lpn: int) -> None:
        """Discard a logical page (TRIM); no-op if unmapped."""
        self._check_recovered()
        old = self._map.pop(lpn, None)
        if old is not None:
            self._invalidate_ppn(old)

    # -- allocation & garbage collection ------------------------------------

    def _write_page(self, lpn: int, data: bytes) -> int:
        """The one write path: supersede, pick a die, keep headroom, program."""
        if lpn < 0:
            raise DeviceError(f"negative LPN {lpn}")
        mapping = self._map
        old = mapping.get(lpn)
        if old is not None:
            self._invalidate_ppn(old)
        elif len(mapping) >= self.logical_capacity_pages:
            raise DeviceError("device is at logical capacity")
        dies = self._dies
        index = self._next_die
        die = dies[index]
        self._next_die = (index + 1) % len(dies)
        headroom = self._headroom
        if die.free_pages <= headroom:
            # The round-robin target is squeezed: shed to the roomiest die,
            # and compact it *before* programming, so GC never meets a
            # programmed page without a logical owner.
            die = max(dies, key=_BY_SPACE)
            while die.free_pages < headroom and self._collect(die):
                pass
        ppn = self._program_on_die(die, data, lpn)
        self.stats.host_writes += 1
        mapping[lpn] = ppn
        return ppn

    def _program_on_die(self, die: _Die, data: bytes, lpn: int) -> int:
        """Program ``data`` for ``lpn``, retrying past failed NAND slots.

        The page carries (LPN, sequence) out-of-band metadata so
        :meth:`recover` can rebuild the map after an unclean shutdown. A
        failed program leaves its slot INVALID (reclaimed at erase) and the
        write moves to the next slot, as real firmware does. Every check of
        :meth:`NandArray.program` runs here, bar the range of a PPN the FTL
        itself just computed.
        """
        if len(data) != self._page_nbytes:
            raise FlashError(f"program of {len(data)} bytes; page is "
                             f"{self._page_nbytes}")
        nand = self.nand
        blocks = nand.blocks
        pages_per_block = self._pages_per_block
        failures = 0
        while failures < PROGRAM_RETRY_LIMIT:
            if die.active_block < 0 or die.next_page >= pages_per_block:
                self._open_block(die)
            page = die.next_page
            die.next_page = page + 1
            die.free_pages -= 1
            flat = die.base + die.active_block
            ppn = flat * pages_per_block + page
            self._write_seq = seq = self._write_seq + 1
            record = blocks.get(flat)
            if record is None:
                record = nand.open_block(flat)
            state = record.state
            if state[page] != ERASED:
                raise FlashError(
                    f"program of {nand.state(ppn).value} page {ppn} "
                    "(erase-before-program violated)")
            if nand.faults is not None and check_fault(
                    nand.faults, SITE_NAND_PROGRAM, ppn=ppn) is not None:
                state[page] = INVALID
                nand.program_failures += 1
                self.stats.program_retries += 1
                die.invalid_pages += 1
                failures += 1
                continue
            if page == len(record.data):    # blocks fill in page order
                record.data.append(bytes(data))
                record.oob.append((lpn, seq))
            else:                           # a failed slot left a gap
                record.store(page, bytes(data), (lpn, seq))
            state[page] = PROGRAMMED
            nand.programs += 1
            self._valid[flat] += 1
            self._block_seq[flat] = seq
            return ppn
        raise DeviceError(
            f"die ({die.channel},{die.chip}) failed {PROGRAM_RETRY_LIMIT} "
            "consecutive page programs")

    def _open_block(self, die: _Die) -> None:
        """Open a free block on a die whose active block is exhausted."""
        if not die.free_blocks:
            self._collect(die)
        if not die.free_blocks:
            raise DeviceError(
                f"die ({die.channel},{die.chip}) has no free blocks")
        self._activate(die, die.free_blocks.pop(0))

    def _collect(self, die: _Die) -> bool:
        """GC one block on ``die``; returns False when nothing is gained.

        The die's dedicated spare block makes every victim collectible:
        when normal free slots cannot hold the victim's live pages, the
        spare becomes the active block (its erased pages are the relocation
        destination) and the erased victim becomes the new spare.
        """
        victim = self.gc_policy.pick_victim(self, die)
        if victim is None:
            return False
        channel, chip, block = victim
        flat = self._flat_block(channel, chip, block)
        pages_per_block = self._pages_per_block
        nand = self.nand
        self._gc_victims.add(flat)
        try:
            record = nand.open_block(flat)
            live = [page for page, code in enumerate(record.state)
                    if code == PROGRAMMED]
            invalid_in_block = record.state.count(INVALID)
            used_spare = False
            if live and die.free_pages < len(live):
                # Emergency: rotate the spare in as the active block.
                self._activate(die, die.spare_block)
                die.free_pages += pages_per_block
                die.spare_block = -1
                used_spare = True
            first = flat * pages_per_block
            for page in live:
                ppn = first + page
                meta = record.oob[page]
                if meta is None or self._map.get(meta[0]) != ppn:
                    raise FlashError(f"orphan programmed page {ppn}")
                nand.reads += 1
                self._invalidate_ppn(ppn)
                self._map[meta[0]] = self._program_on_die(
                    die, record.data[page], meta[0])
                self.stats.gc_relocations += 1
            nand.erase_block(channel, chip, block)
            # The erase reclaims the block's pre-GC invalid pages plus the
            # ones relocation just created.
            die.invalid_pages -= invalid_in_block + len(live)
            self._valid.pop(flat, None)
            self._block_seq.pop(flat, None)
            die.sealed.discard(block)
            if used_spare or die.spare_block < 0:
                die.spare_block = block
            else:
                die.free_blocks.append(block)
                die.free_pages += pages_per_block
            self.stats.erases += 1
            wear = self.stats.block_erases.get(flat, 0) + 1
            self.stats.block_erases[flat] = wear
            obs = None if self._sim is None else self._sim.obs
            if obs is not None:
                obs.span("ftl.gc", track="ftl",
                         policy=self.gc_policy.name, channel=channel,
                         chip=chip, block=block,
                         relocated=len(live),
                         reclaimed=invalid_in_block,
                         used_spare=used_spare).__enter__().finish()
                obs.metrics.counter("ftl.gc.erases").inc()
                if live:
                    obs.metrics.counter("ftl.gc.relocations").inc(len(live))
                obs.metrics.histogram("ftl.wear").observe(wear)
        finally:
            self._gc_victims.discard(flat)
        return True

    def _activate(self, die: _Die, block: int) -> None:
        """Make erased ``block`` the die's active block. The retired one
        becomes a GC candidate; its unwritten tail, if any, stops counting
        as free space until the block is erased."""
        old = die.active_block
        if old >= 0:
            die.free_pages -= self._pages_per_block - die.next_page
            die.sealed.add(old)
            heapq.heappush(die.victim_heap,
                           (self._valid[die.base + old], old))
        die.active_block = block
        die.next_page = 0

    def _min_valid_victim(self, die: _Die) -> tuple[int, int, int] | None:
        """The sealed block with the fewest valid pages (greedy pick).

        Pops the die's lazy heap past stale entries (count moved on, block
        erased or re-activated, block mid-collection); ties resolve to the
        lowest block number — exactly the original linear scan's answer.
        """
        heap = die.victim_heap
        while heap:
            valid, block = heap[0]
            flat = die.base + block
            if (block not in die.sealed
                    or flat in self._gc_victims
                    or self._valid[flat] != valid):
                heapq.heappop(heap)
                continue
            # Collecting a fully-valid block makes no progress; leave the
            # entry for when invalidations shrink it.
            if valid >= self._pages_per_block:
                return None
            return die.channel, die.chip, block
        return None

    def _flat_block(self, channel: int, chip: int, block: int) -> int:
        """Flatten a (channel, chip, block) address to one array-wide id."""
        return (self.geometry.ppn(channel, chip, block, 0)
                // self._pages_per_block)

    # -- wear reporting -----------------------------------------------------

    def wear_histogram(self) -> dict[int, int]:
        """Erase-count -> block count over *all* physical blocks."""
        histogram = dict(self.stats.wear_histogram)
        never = (self.geometry.dies * self.geometry.blocks_per_chip
                 - len(self.stats.block_erases))
        if never:
            histogram[0] = histogram.get(0, 0) + never
        return histogram

    def wear_spread(self) -> int:
        """Max minus min per-block erase count (never-erased counts as 0)."""
        erases = self.stats.block_erases
        if not erases:
            return 0
        total = self.geometry.dies * self.geometry.blocks_per_chip
        low = 0 if len(erases) < total else min(erases.values())
        return max(erases.values()) - low

    # -- crash recovery -------------------------------------------------------

    def unclean_shutdown(self) -> None:
        """Simulate power loss: every volatile structure is gone.

        The DRAM-resident map, valid counts, and allocation cursors are
        dropped; only the NAND array (data + out-of-band metadata) survives.
        All host-facing operations raise until :meth:`recover` runs.
        """
        self._map = {}
        self._reset_block_tables()
        self._gc_victims = set()
        for die in self._dies:   # back to a fresh, block-less die in place
            die.__init__(die.channel, die.chip, die.base)
        self._needs_recovery = True

    def recover(self) -> int:
        """Rebuild the logical map by scanning NAND out-of-band metadata.

        For every programmed page the stored (LPN, sequence) pair is read
        back; the highest sequence wins an LPN and stale or orphaned pages
        are invalidated. Die allocation state is rebuilt conservatively:
        any block holding data is sealed (its erased tail is reclaimed by a
        later GC erase) and one fully-erased block per die becomes the new
        spare. Returns the number of live pages remapped.
        """
        nand = self.nand
        pages_per_block = self._pages_per_block
        best: dict[int, tuple[int, int]] = {}   # lpn -> (seq, ppn)
        stale: list[int] = []
        for ppn in nand.programmed_ppns():
            meta = nand.oob(ppn)
            if meta is None:
                stale.append(ppn)
                continue
            lpn, seq = meta
            current = best.get(lpn)
            if current is None or seq > current[0]:
                if current is not None:
                    stale.append(current[1])
                best[lpn] = (seq, ppn)
            else:
                stale.append(ppn)
        for ppn in stale:
            nand.invalidate(ppn)

        self._map = {lpn: ppn for lpn, (__, ppn) in best.items()}
        self._reset_block_tables()
        for seq, ppn in best.values():
            flat = ppn // pages_per_block
            self._valid[flat] += 1
            # A block's age signal: its newest surviving sequence number.
            if seq > self._block_seq[flat]:
                self._block_seq[flat] = seq

        for die in self._dies:
            die.__init__(die.channel, die.chip, die.base)
            for block in range(self.geometry.blocks_per_chip):
                record = nand.blocks.get(die.base + block)
                if record is None or not any(record.state):
                    die.free_blocks.append(block)
                    continue
                # Every non-erased block is conservatively sealed: with no
                # active block, they are all GC candidates again.
                die.sealed.add(block)
                die.invalid_pages += record.state.count(INVALID)
                die.victim_heap.append((self._valid[die.base + block], block))
            if not die.free_blocks:
                raise FlashError(
                    f"die ({die.channel},{die.chip}) has no erased block "
                    "left for the GC spare; device unrecoverable")
            die.spare_block = die.free_blocks.pop()
            die.free_pages = len(die.free_blocks) * pages_per_block
            heapq.heapify(die.victim_heap)

        self._write_seq = max((seq for seq, __ in best.values()), default=0)
        self._needs_recovery = False
        recovered = len(self._map)
        self.stats.recoveries += 1
        self.stats.recovered_pages += recovered
        return recovered

    def _check_recovered(self) -> None:
        if self._needs_recovery:
            raise DeviceError(
                "FTL volatile state lost by unclean shutdown; "
                "recover() must run first")

    def _invalidate_ppn(self, ppn: int) -> None:
        """Supersede a mapped page: NAND state, valid count, victim index."""
        flat = ppn // self._pages_per_block
        page = ppn % self._pages_per_block
        record = self.nand.blocks.get(flat)
        if record is None or record.state[page] != PROGRAMMED:
            raise FlashError(
                f"invalidate of {self.nand.state(ppn).value} page {ppn}")
        record.state[page] = INVALID
        self._valid[flat] = count = self._valid[flat] - 1
        blocks_per_chip = self.geometry.blocks_per_chip
        die = self._die_of_block[flat // blocks_per_chip]
        block = flat % blocks_per_chip
        die.invalid_pages += 1
        if block in die.sealed:
            # Keep the victim index current: sealed counts only ever
            # shrink, so the freshest (smallest) entry is authoritative.
            heapq.heappush(die.victim_heap, (count, block))
