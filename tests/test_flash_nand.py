"""Unit tests for NAND geometry and array semantics."""

import pytest

from repro.errors import FlashError
from repro.flash import NandArray, NandGeometry, NandTiming, PageState
from repro.storage.page import PAGE_SIZE


@pytest.fixture
def geometry():
    return NandGeometry(channels=2, chips_per_channel=2, blocks_per_chip=4,
                        pages_per_block=8, page_nbytes=PAGE_SIZE)


class TestGeometry:
    def test_totals(self, geometry):
        assert geometry.dies == 4
        assert geometry.pages_per_chip == 32
        assert geometry.total_pages == 128
        assert geometry.capacity_nbytes == 128 * PAGE_SIZE

    def test_ppn_round_trip(self, geometry):
        for address in [(0, 0, 0, 0), (1, 1, 3, 7), (0, 1, 2, 3)]:
            ppn = geometry.ppn(*address)
            assert geometry.unflatten(ppn) == address

    def test_ppn_round_trip_exhaustive(self, geometry):
        seen = set()
        for c in range(geometry.channels):
            for ch in range(geometry.chips_per_channel):
                for b in range(geometry.blocks_per_chip):
                    for p in range(geometry.pages_per_block):
                        ppn = geometry.ppn(c, ch, b, p)
                        assert 0 <= ppn < geometry.total_pages
                        seen.add(ppn)
        assert len(seen) == geometry.total_pages

    def test_bad_address_rejected(self, geometry):
        with pytest.raises(FlashError):
            geometry.ppn(2, 0, 0, 0)
        with pytest.raises(FlashError):
            geometry.unflatten(geometry.total_pages)

    def test_bad_geometry_rejected(self):
        with pytest.raises(FlashError):
            NandGeometry(channels=0)

    def test_channel_of(self, geometry):
        ppn = geometry.ppn(1, 0, 2, 5)
        assert geometry.channel_of(ppn) == 1


class TestTiming:
    def test_channel_occupancy_transfer_bound(self, geometry):
        timing = NandTiming(read_latency=1e-6, channel_rate=400e6)
        occ = timing.channel_occupancy_per_read(geometry)
        assert occ == pytest.approx(PAGE_SIZE / 400e6)

    def test_channel_occupancy_sense_bound(self, geometry):
        timing = NandTiming(read_latency=1.0, channel_rate=400e6)
        occ = timing.channel_occupancy_per_read(geometry)
        assert occ == pytest.approx(1.0 / geometry.chips_per_channel)

    def test_program_occupancy_slower_than_read(self, geometry):
        timing = NandTiming()
        assert (timing.channel_occupancy_per_program(geometry)
                >= timing.channel_occupancy_per_read(geometry))


class TestNandArray:
    def page(self, fill=0xAB):
        return bytes([fill]) * PAGE_SIZE

    def test_program_then_read(self, geometry):
        nand = NandArray(geometry)
        nand.program(5, self.page())
        assert nand.read(5) == self.page()
        assert nand.state(5) is PageState.PROGRAMMED

    def test_pages_start_erased(self, geometry):
        nand = NandArray(geometry)
        assert nand.state(0) is PageState.ERASED

    def test_read_of_erased_page_rejected(self, geometry):
        nand = NandArray(geometry)
        with pytest.raises(FlashError):
            nand.read(0)

    def test_program_twice_rejected(self, geometry):
        nand = NandArray(geometry)
        nand.program(3, self.page())
        with pytest.raises(FlashError, match="erase-before-program"):
            nand.program(3, self.page(0xCD))

    def test_wrong_size_program_rejected(self, geometry):
        nand = NandArray(geometry)
        with pytest.raises(FlashError):
            nand.program(0, b"short")

    def test_invalidate_then_read_rejected(self, geometry):
        nand = NandArray(geometry)
        nand.program(3, self.page())
        nand.invalidate(3)
        assert nand.state(3) is PageState.INVALID
        with pytest.raises(FlashError):
            nand.read(3)

    def test_erase_block_releases_pages(self, geometry):
        nand = NandArray(geometry)
        first = geometry.ppn(0, 0, 1, 0)
        for offset in range(geometry.pages_per_block):
            nand.program(first + offset, self.page())
        nand.erase_block(0, 0, 1)
        assert nand.state(first) is PageState.ERASED
        nand.program(first, self.page(0x11))  # reprogrammable after erase
        assert nand.erases == 1

    def test_counters(self, geometry):
        nand = NandArray(geometry)
        nand.program(0, self.page())
        nand.read(0)
        nand.read(0)
        assert nand.programs == 1
        assert nand.reads == 2

    def test_block_page_states(self, geometry):
        nand = NandArray(geometry)
        first = geometry.ppn(0, 0, 0, 0)
        nand.program(first, self.page())
        states = nand.block_page_states(0, 0, 0)
        assert states[0] is PageState.PROGRAMMED
        assert all(s is PageState.ERASED for s in states[1:])

    def test_out_of_order_programs_within_a_block(self, geometry):
        nand = NandArray(geometry)
        first = geometry.ppn(1, 0, 2, 0)
        nand.program(first + 5, self.page(5), oob=(50, 1))
        nand.program(first + 2, self.page(2), oob=(20, 2))
        assert nand.read(first + 5) == self.page(5)
        assert nand.read(first + 2) == self.page(2)
        assert nand.oob(first + 5) == (50, 1)
        assert nand.oob(first + 3) is None
        assert nand.oob(first + 7) is None
        assert nand.programmed_ppns() == [first + 2, first + 5]
        nand.invalidate(first + 2)
        assert nand.oob(first + 2) == (20, 2)   # kept until the erase
        nand.erase_block(1, 0, 2)
        assert nand.oob(first + 5) is None
        assert nand.programmed_ppns() == []

    def test_corrupt_page_swaps_bytes_only(self, geometry):
        nand = NandArray(geometry)
        nand.program(9, self.page(), oob=(4, 1))
        nand.corrupt_page(9, self.page(0x00))
        assert nand.read(9) == self.page(0x00)
        assert nand.state(9) is PageState.PROGRAMMED
        assert nand.oob(9) == (4, 1)
        assert nand.programs == 1
        with pytest.raises(FlashError, match="erased"):
            nand.corrupt_page(10, self.page())

    def test_out_of_range_ppn_rejected(self, geometry):
        nand = NandArray(geometry)
        with pytest.raises(FlashError):
            nand.read(geometry.total_pages)
