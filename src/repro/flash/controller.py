"""Flash memory controller: interleaving, DMA, and ECC.

The controller is where the paper's two key internal mechanisms live:

* **Channel/chip interleaving** — a multi-page read is split by channel and
  the channels proceed in parallel, each pipelining array senses across its
  dies (§2: "the flash controller uses chip-level and channel-level
  interleaving techniques"). Each channel a unit touches is one *hold* of
  that channel for its pages' occupancy; all of a unit's holds start
  together through :func:`~repro.sim.resources.hold_all`, which posts one
  release event per hold and runs no process per channel.
* **Shared DRAM bus** — every page crossing from a channel into device DRAM
  serializes on a single :class:`~repro.sim.resources.Bandwidth` ("all the
  flash channels share access to the DRAM. Hence, data transfers from the
  flash channels to the DRAM (via DMA) are serialized"). Its 1,560 MB/s rate
  is the Table-2 internal sequential read bandwidth and the hard ceiling on
  what a Smart SSD program can stream.

ECC is modeled functionally: a page's payload CRC is verified on read
(inline hardware, so no extra simulated time), so injected corruption
surfaces as :class:`~repro.errors.StorageError` exactly where a real
controller would raise a media error. The host-side check runs once per
stored copy of a page: stored bytes never change, so a copy that passed
once passes again. A new copy (a program, an FTL write or GC relocation,
``corrupt_page``) clears the page's ``checked`` byte and an erase drops it
with the block; ``ecc_pages_checked`` still counts every page read.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Generator, Sequence

from repro.errors import UncorrectableMediaError
from repro.faults import SITE_NAND_READ, check_fault
from repro.flash.ftl import PageMappedFtl
from repro.flash.geometry import NandGeometry, NandTiming
from repro.flash.nand import NandArray
from repro.sim import (Bandwidth, Event, Resource, Simulator, hold_all,
                       seize)

#: ECC read-retry rounds (re-sense with shifted thresholds) before a page
#: is declared uncorrectable.
ECC_RETRY_LIMIT = 4


class FlashController:
    """Schedules NAND operations onto channels and the shared DRAM bus.

    With ``verify_ecc`` every read page's CRC is checked, once per stored
    copy (:meth:`~repro.flash.nand.NandArray.read_unit`); the ``nand.read``
    fault site prices ECC retries independently of that check.
    """

    def __init__(self, sim: Simulator, geometry: NandGeometry,
                 timing: NandTiming, nand: NandArray, ftl: PageMappedFtl,
                 dram_bus_rate: float, verify_ecc: bool = True,
                 ecc_retry_limit: int = ECC_RETRY_LIMIT):
        self.sim = sim
        self.geometry = geometry
        self.timing = timing
        self.nand = nand
        self.ftl = ftl
        self.verify_ecc = verify_ecc
        self.ecc_retry_limit = ecc_retry_limit
        self.dram_bus = Bandwidth(sim, dram_bus_rate, name="device-dram-bus")
        self.channels = [
            Resource(sim, 1, name=f"flash-channel-{i}")
            for i in range(geometry.channels)
        ]
        self.ecc_pages_checked = 0
        self.ecc_retries = 0
        self.ecc_uncorrectable = 0

    # -- timed operations ----------------------------------------------------

    def read_lpns(self, lpns: Sequence[int]) -> Generator[Event, None, list[bytes]]:
        """Timed read of logical pages into device DRAM (one I/O unit).

        Every channel the unit touches is held once, for its page count
        times the per-page read occupancy; the holds run in parallel and the
        unit waits for the last release. The unit's pages then DMA across
        the shared DRAM bus in one serialized transfer. Returns the page
        bytes in ``lpns`` order.
        """
        obs = self.sim.obs
        by_channel: dict[int, int] = defaultdict(int)
        channel_of = self.geometry.channel_of
        if obs is None:
            ppns = self.ftl.lookup_many(lpns)
            for ppn in ppns:
                by_channel[channel_of(ppn)] += 1
        else:
            with obs.span("ftl.lookup", track="ftl", pages=len(lpns)):
                ppns = self.ftl.lookup_many(lpns)
                for ppn in ppns:
                    by_channel[channel_of(ppn)] += 1
            obs.metrics.counter("ftl.lookups").inc(len(lpns))
            for channel, count in by_channel.items():
                obs.metrics.counter("nand.read.pages",
                                    channel=channel).inc(count)

        occupancy = self.timing.channel_occupancy_per_read(self.geometry)
        yield hold_all(self.sim, [
            (self.channels[channel], count * occupancy,
             None if obs is None else obs.span(
                 "nand.read", track=self.channels[channel].name,
                 pages=count))
            for channel, count in by_channel.items()])
        yield from self._ecc_retry_rounds(ppns, occupancy)

        total = len(lpns) * self.geometry.page_nbytes
        if obs is None:
            yield from self.dram_bus.transfer(total)
        else:
            obs.metrics.counter("dram.bus.bytes", direction="read").inc(total)
            yield from self.dram_bus.transfer(
                total, obs.span("dram.dma", track=self.dram_bus.name,
                                bytes=total))

        pages = self.nand.read_unit(ppns, self.verify_ecc)
        if self.verify_ecc:
            self.ecc_pages_checked += len(pages)
        return pages

    def write_lpns(self, lpns: Sequence[int],
                   pages: Sequence[bytes]) -> Generator[Event, None, None]:
        """Timed write of logical pages (DRAM -> channels -> NAND).

        One DRAM-bus transfer, then one hold per programmed channel for its
        page count times the per-page program occupancy, run in parallel.
        """
        obs = self.sim.obs
        total = len(lpns) * self.geometry.page_nbytes
        if obs is None:
            yield from self.dram_bus.transfer(total)
        else:
            obs.metrics.counter("dram.bus.bytes", direction="write").inc(total)
            yield from self.dram_bus.transfer(
                total, obs.span("dram.dma", track=self.dram_bus.name,
                                bytes=total))

        # Program out-of-place first so we know which channels are hit.
        # The channel is the top field of a PPN the FTL just allocated.
        by_channel: dict[int, int] = defaultdict(int)
        write = self.ftl.write
        pages_per_channel = self.geometry.total_pages // self.geometry.channels
        for lpn, data in zip(lpns, pages):
            by_channel[write(lpn, data) // pages_per_channel] += 1

        occupancy = self.timing.channel_occupancy_per_program(self.geometry)
        yield hold_all(self.sim, [
            (self.channels[channel], count * occupancy,
             None if obs is None else obs.span(
                 "nand.program", track=self.channels[channel].name,
                 pages=count))
            for channel, count in by_channel.items()])
        if obs is not None:
            for channel, count in by_channel.items():
                obs.metrics.counter("nand.program.pages",
                                    channel=channel).inc(count)

    def _ecc_retry_rounds(self, ppns: Sequence[int],
                          occupancy: float) -> Generator[Event, None, None]:
        """Injected media errors: re-sense flagged pages with ECC retries.

        Each flagged page re-occupies its channel for the decided number of
        read-retry rounds (shifted-threshold re-senses); a page needing more
        rounds than the budget fails the whole unit with
        :class:`~repro.errors.UncorrectableMediaError`.
        """
        faults = getattr(self.sim, "faults", None)
        if faults is None:
            return
        for ppn in ppns:
            decision = check_fault(faults, SITE_NAND_READ,
                                   time=self.sim.now, ppn=ppn)
            if decision is None:
                continue
            rounds = int(decision.payload.get("retries", 1))
            self.ecc_retries += rounds
            obs = self.sim.obs
            if obs is not None:
                obs.metrics.counter("nand.ecc.retries").inc(rounds)
            if self.sim.tracer is not None:
                self.sim.tracer.mark(self.sim.now, "ecc-retry",
                                     f"ppn={ppn} rounds={rounds}")
            if rounds > self.ecc_retry_limit:
                self.ecc_uncorrectable += 1
                raise UncorrectableMediaError(
                    f"page {ppn} unreadable after "
                    f"{self.ecc_retry_limit} ECC retries")
            channel = self.geometry.channel_of(ppn)
            yield from seize(
                self.channels[channel], rounds * occupancy,
                None if obs is None else obs.span(
                    "nand.ecc-retry", track=self.channels[channel].name,
                    ppn=ppn, rounds=rounds))

    # -- instantaneous helpers ------------------------------------------------

    def internal_read_rate(self) -> float:
        """Sustained internal sequential read bandwidth in bytes/s.

        The minimum of the aggregate channel rate and the shared DRAM bus —
        for the default device the DRAM bus is the binding constraint, which
        is exactly the paper's Table-2 explanation.
        """
        occupancy = self.timing.channel_occupancy_per_read(self.geometry)
        per_channel = self.geometry.page_nbytes / occupancy
        aggregate = per_channel * self.geometry.channels
        return min(aggregate, self.dram_bus.rate)
