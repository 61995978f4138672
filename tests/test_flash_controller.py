"""Unit tests for flash-controller timing: interleaving and the DRAM bus."""

import pytest

import repro.flash.nand as nand_module
from repro.errors import StorageError
from repro.flash import (
    FlashController,
    NandArray,
    NandGeometry,
    NandTiming,
    PageMappedFtl,
)
from repro.sim import Simulator
from repro.storage import Column, Int32Type, Layout, Schema, encode_page
from repro.storage.page import (
    PAGE_HEADER_NBYTES,
    PAGE_SIZE,
    verify_page,
    verify_pages,
)
from repro.units import MB


def make_controller(channels=4, chips=4, dram_rate=1560 * MB,
                    verify_ecc=False):
    sim = Simulator()
    geometry = NandGeometry(channels=channels, chips_per_channel=chips,
                            blocks_per_chip=16, pages_per_block=32)
    timing = NandTiming()
    nand = NandArray(geometry)
    ftl = PageMappedFtl(geometry, nand)
    controller = FlashController(sim, geometry, timing, nand, ftl,
                                 dram_bus_rate=dram_rate,
                                 verify_ecc=verify_ecc)
    return sim, controller, ftl


def load(ftl, count):
    blank = bytes(PAGE_SIZE)
    for lpn in range(count):
        ftl.write(lpn, blank)


class TestReadTiming:
    def test_single_page_read_time(self):
        sim, controller, ftl = make_controller()
        load(ftl, 1)
        proc = sim.process(controller.read_lpns([0]))
        sim.run()
        occupancy = controller.timing.channel_occupancy_per_read(
            controller.geometry)
        dma = PAGE_SIZE / controller.dram_bus.rate
        assert sim.now == pytest.approx(occupancy + dma)
        assert proc.value == [bytes(PAGE_SIZE)]

    def test_striped_reads_use_channels_in_parallel(self):
        """A striped 4-page read on 4 channels costs one channel slot, not
        four."""
        sim4, controller4, ftl4 = make_controller(channels=4)
        load(ftl4, 4)
        sim4.process(controller4.read_lpns([0, 1, 2, 3]))
        sim4.run()

        sim1, controller1, ftl1 = make_controller(channels=1)
        load(ftl1, 4)
        sim1.process(controller1.read_lpns([0, 1, 2, 3]))
        sim1.run()

        assert sim4.now < sim1.now
        occupancy = controller4.timing.channel_occupancy_per_read(
            controller4.geometry)
        dma = 4 * PAGE_SIZE / controller4.dram_bus.rate
        assert sim4.now == pytest.approx(occupancy + dma)

    def test_dram_bus_serializes_concurrent_reads(self):
        """Two concurrent big reads cannot beat the DRAM-bus rate."""
        sim, controller, ftl = make_controller()
        load(ftl, 256)

        def reader(start):
            yield from controller.read_lpns(list(range(start, start + 128)))

        sim.process(reader(0))
        sim.process(reader(128))
        sim.run()
        total_bytes = 256 * PAGE_SIZE
        floor = total_bytes / controller.dram_bus.rate
        assert sim.now >= floor
        assert controller.dram_bus.bytes_moved == total_bytes

    def test_internal_read_rate_formula(self):
        __, controller, __ = make_controller(channels=8, chips=4)
        # 8 channels x 400 MB/s = 3.2 GB/s aggregate, capped by the bus.
        assert controller.internal_read_rate() == pytest.approx(1560 * MB)
        __, slow, __ = make_controller(channels=1, chips=4)
        assert slow.internal_read_rate() == pytest.approx(
            PAGE_SIZE / slow.timing.channel_occupancy_per_read(slow.geometry))

    def test_ecc_counts_checked_pages(self):
        sim, controller, ftl = make_controller(verify_ecc=True)
        schema = Schema([Column("x", Int32Type())])
        page = encode_page(Layout.NSM, schema,
                           schema.rows_to_array([(1,)]))
        ftl.write(0, page)
        sim.process(controller.read_lpns([0]))
        sim.run()
        assert controller.ecc_pages_checked == 1


class TestWriteTiming:
    def test_write_round_trip_and_time(self):
        sim, controller, ftl = make_controller()
        data = [bytes([i]) * PAGE_SIZE for i in range(8)]
        proc = sim.process(controller.write_lpns(list(range(8)), data))
        sim.run()
        assert sim.now > 0
        for lpn, page in enumerate(data):
            assert ftl.read(lpn) == page

    def test_write_slower_than_read(self):
        sim_w, controller_w, __ = make_controller()
        data = [bytes(PAGE_SIZE)] * 32
        sim_w.process(controller_w.write_lpns(list(range(32)), data))
        sim_w.run()

        sim_r, controller_r, ftl_r = make_controller()
        load(ftl_r, 32)
        sim_r.process(controller_r.read_lpns(list(range(32))))
        sim_r.run()
        assert sim_w.now > sim_r.now


class TestEccOncePerCopy:
    """The CRC check runs once per stored copy of a page; a new copy (a
    program, an FTL write, a GC relocation, ``corrupt_page``) is checked
    again, and ``ecc_pages_checked`` still counts every page read."""

    SCHEMA = Schema([Column("x", Int32Type())])

    def encoded(self, value):
        return encode_page(Layout.NSM, self.SCHEMA,
                           self.SCHEMA.rows_to_array([(value,)]))

    def bad_crc(self, value):
        page = bytearray(self.encoded(value))
        page[PAGE_HEADER_NBYTES] ^= 0xFF
        return bytes(page)

    @pytest.fixture
    def verified(self, monkeypatch):
        """Pages handed to the CRC check, in order."""
        seen = []

        def counting(pages):
            pages = list(pages)
            seen.extend(pages)
            verify_pages(pages)

        monkeypatch.setattr(nand_module, "verify_pages", counting)
        return seen

    def read(self, sim, controller, lpns):
        proc = sim.process(controller.read_lpns(lpns))
        sim.run()
        return proc.value

    def test_repeat_reads_check_once_but_count_every_page(self, verified):
        sim, controller, ftl = make_controller(verify_ecc=True)
        for lpn in range(4):
            ftl.write(lpn, self.encoded(lpn))
        for __ in range(3):
            pages = self.read(sim, controller, [0, 1, 2, 3])
        assert pages == [self.encoded(lpn) for lpn in range(4)]
        assert len(verified) == 4
        assert controller.ecc_pages_checked == 12

    def test_corrupted_after_a_read_still_raises(self, verified):
        sim, controller, ftl = make_controller(verify_ecc=True)
        ftl.write(0, self.encoded(7))
        self.read(sim, controller, [0])
        bad = self.bad_crc(7)
        controller.nand.corrupt_page(ftl.lookup(0), bad)
        with pytest.raises(StorageError) as expected:
            verify_page(bad)
        for __ in range(2):  # a bad copy is never marked checked
            with pytest.raises(StorageError) as raised:
                self.read(sim, controller, [0])
            assert str(raised.value) == str(expected.value)

    def test_erased_and_reprogrammed_bad_page_raises(self, verified):
        sim, controller, ftl = make_controller(verify_ecc=True)
        ftl.write(0, self.encoded(1))
        self.read(sim, controller, [0])
        ppn = ftl.lookup(0)
        nand = controller.nand
        channel, chip, block, __ = controller.geometry.unflatten(ppn)
        nand.erase_block(channel, chip, block)
        nand.program(ppn, self.bad_crc(1))
        with pytest.raises(StorageError, match="CRC mismatch"):
            self.read(sim, controller, [0])

    def test_gc_relocated_page_is_checked_once_more(self, verified):
        sim, controller, ftl = make_controller(channels=1, chips=1,
                                               verify_ecc=True)
        cold, hot = self.encoded(99), self.encoded(1)
        ftl.write(0, cold)
        self.read(sim, controller, [0])
        # Fill the device, then supersede the cold page's block-mates: its
        # block holds the fewest live pages, so the next GC relocates it.
        capacity = ftl.logical_capacity_pages
        for lpn in range(1, capacity):
            ftl.write(lpn, hot)
        before = ftl.lookup(0)
        pages_per_block = controller.geometry.pages_per_block
        for lpn in range(1, pages_per_block):
            ftl.write(lpn, hot)
        for lpn in range(capacity - 1, pages_per_block, -1):
            if ftl.lookup(0) != before:
                break
            ftl.write(lpn, hot)
        assert ftl.lookup(0) != before
        verified.clear()
        assert self.read(sim, controller, [0]) == [cold]
        assert self.read(sim, controller, [0]) == [cold]
        assert verified == [cold]
        assert controller.ecc_pages_checked == 3


class TestEventBudget:
    """One event per channel hold: an 8-page unit striped over 8 idle
    channels posts 8 channel releases plus 4 more events (the process
    start, the channel gate, the DRAM-bus transfer and the process end)."""

    CHANNEL_HOLDS = 8
    OTHER_EVENTS = 4

    def test_read_unit_event_budget(self):
        sim, controller, ftl = make_controller(channels=8)
        load(ftl, 8)
        before = sim._sequence
        sim.process(controller.read_lpns(list(range(8))))
        sim.run()
        assert sim._sequence - before == self.CHANNEL_HOLDS + self.OTHER_EVENTS
        occupancy = controller.timing.channel_occupancy_per_read(
            controller.geometry)
        dma = 8 * PAGE_SIZE / controller.dram_bus.rate
        assert sim.now == occupancy + dma

    def test_write_unit_event_budget(self):
        sim, controller, ftl = make_controller(channels=8)
        data = [bytes([i]) * PAGE_SIZE for i in range(8)]
        before = sim._sequence
        sim.process(controller.write_lpns(list(range(8)), data))
        sim.run()
        assert sim._sequence - before == self.CHANNEL_HOLDS + self.OTHER_EVENTS
        assert all(channel.busy.busy_time(sim.now) > 0
                   for channel in controller.channels)
