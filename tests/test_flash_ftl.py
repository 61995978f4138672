"""Unit tests for the page-mapping FTL: striping, updates, GC, stats."""

import pytest

from repro.errors import DeviceError, FlashError
from repro.faults import SITE_NAND_PROGRAM, FaultPlan
from repro.flash import NandArray, NandGeometry, PageMappedFtl
from repro.flash.ftl import PROGRAM_RETRY_LIMIT
from repro.storage.page import PAGE_SIZE


def make_ftl(channels=2, chips=2, blocks=6, pages=4, overprovision=0.25):
    geometry = NandGeometry(channels=channels, chips_per_channel=chips,
                            blocks_per_chip=blocks, pages_per_block=pages,
                            page_nbytes=PAGE_SIZE)
    nand = NandArray(geometry)
    return PageMappedFtl(geometry, nand, overprovision=overprovision), nand, geometry


def page_of(tag: int) -> bytes:
    return tag.to_bytes(4, "little") * (PAGE_SIZE // 4)


class TestMapping:
    def test_write_read_round_trip(self):
        ftl, __, __ = make_ftl()
        ftl.write(10, page_of(1))
        assert ftl.read(10) == page_of(1)

    def test_unmapped_read_rejected(self):
        ftl, __, __ = make_ftl()
        with pytest.raises(DeviceError):
            ftl.read(99)

    def test_overwrite_returns_new_data(self):
        ftl, __, __ = make_ftl()
        ftl.write(0, page_of(1))
        old_ppn = ftl.lookup(0)
        ftl.write(0, page_of(2))
        assert ftl.read(0) == page_of(2)
        assert ftl.lookup(0) != old_ppn  # out-of-place update

    def test_trim_unmaps(self):
        ftl, __, __ = make_ftl()
        ftl.write(0, page_of(1))
        ftl.trim(0)
        assert not ftl.is_mapped(0)
        ftl.trim(0)  # idempotent

    def test_negative_lpn_rejected(self):
        ftl, __, __ = make_ftl()
        with pytest.raises(DeviceError):
            ftl.write(-1, page_of(0))

    def test_capacity_enforced(self):
        ftl, __, geometry = make_ftl(overprovision=0.25)
        cap = ftl.logical_capacity_pages
        # At most the requested over-provisioning; possibly less because of
        # the per-die GC reserve.
        assert 0 < cap <= int(geometry.total_pages * 0.75)
        for lpn in range(cap):
            ftl.write(lpn, page_of(lpn))
        with pytest.raises(DeviceError, match="capacity"):
            ftl.write(cap, page_of(0))
        # Overwrites of existing LPNs are still allowed at capacity.
        ftl.write(0, page_of(123))
        assert ftl.read(0) == page_of(123)


class TestStriping:
    def test_sequential_writes_rotate_across_all_dies(self):
        ftl, __, geometry = make_ftl(channels=4, chips=2)
        dies = set()
        for lpn in range(geometry.channels * geometry.chips_per_channel):
            ppn = ftl.write(lpn, page_of(lpn))
            channel, chip, __, __ = geometry.unflatten(ppn)
            dies.add((channel, chip))
        assert len(dies) == geometry.dies

    def test_sequential_extent_covers_all_channels(self):
        ftl, __, geometry = make_ftl(channels=4)
        channels = [geometry.channel_of(ftl.write(lpn, page_of(lpn)))
                    for lpn in range(32)]
        for channel in range(geometry.channels):
            assert channels.count(channel) == 32 // geometry.channels


class TestGarbageCollection:
    def test_sustained_overwrites_trigger_gc(self):
        ftl, nand, __ = make_ftl(blocks=6, pages=4, overprovision=0.4)
        working_set = ftl.logical_capacity_pages // 2
        for round_no in range(12):
            for lpn in range(working_set):
                ftl.write(lpn, page_of(round_no * 1000 + lpn))
        assert ftl.stats.erases > 0
        # Data still correct after GC relocations.
        for lpn in range(working_set):
            assert ftl.read(lpn) == page_of(11 * 1000 + lpn)

    def test_write_amplification_at_least_one(self):
        ftl, __, __ = make_ftl()
        for lpn in range(8):
            ftl.write(lpn, page_of(lpn))
        assert ftl.stats.write_amplification == 1.0
        for round_no in range(20):
            for lpn in range(8):
                ftl.write(lpn, page_of(round_no))
        assert ftl.stats.write_amplification >= 1.0

    def test_gc_preserves_every_live_page(self):
        ftl, __, __ = make_ftl(blocks=8, pages=4, overprovision=0.3)
        stable = {lpn: page_of(9000 + lpn) for lpn in range(6)}
        for lpn, data in stable.items():
            ftl.write(lpn, data)
        # Hammer a different LPN range to force GC around the stable data.
        hot_base = 6
        for round_no in range(30):
            for lpn in range(hot_base, hot_base + 4):
                ftl.write(lpn, page_of(round_no))
        for lpn, data in stable.items():
            assert ftl.read(lpn) == data

    def test_stats_counters_consistent(self):
        ftl, nand, __ = make_ftl()
        for round_no in range(10):
            for lpn in range(6):
                ftl.write(lpn, page_of(round_no))
        assert ftl.stats.host_writes == 60
        assert nand.programs == ftl.stats.host_writes + ftl.stats.gc_relocations
        assert nand.erases == ftl.stats.erases


class TestWriteCoreChecks:
    """The checks `_program_on_die` took over from `NandArray.program`."""

    def faulty(self, **rule):
        ftl, nand, __ = make_ftl()
        plan = FaultPlan(seed=1)
        plan.add(SITE_NAND_PROGRAM, **rule)
        nand.faults = plan
        return ftl, nand

    def test_retry_limit_gives_up_after_eight_failed_slots(self):
        ftl, nand = self.faulty()          # every program fails
        with pytest.raises(DeviceError, match="consecutive page programs"):
            ftl.write(0, page_of(1))
        assert nand.program_failures == PROGRAM_RETRY_LIMIT
        assert ftl.stats.program_retries == PROGRAM_RETRY_LIMIT
        assert nand.programs == 0 and not ftl.is_mapped(0)

    def test_last_retry_can_still_succeed(self):
        ftl, nand = self.faulty(limit=PROGRAM_RETRY_LIMIT - 1)
        ftl.write(0, page_of(1))
        assert ftl.read(0) == page_of(1)
        assert ftl.stats.program_retries == PROGRAM_RETRY_LIMIT - 1
        # The burned slots stay INVALID until their block is erased.
        assert sum(die.invalid_pages for die in ftl._dies) == (
            PROGRAM_RETRY_LIMIT - 1)

    def test_wrong_page_length_rejected_on_both_doors(self):
        ftl, __, __ = make_ftl()
        with pytest.raises(FlashError, match="page is"):
            ftl.write(0, b"short")
        with pytest.raises(FlashError, match="page is"):
            ftl.write_bulk(1, [page_of(1), b"short"])
        assert ftl.read(1) == page_of(1)   # pages before the bad one landed

    def test_bulk_door_matches_per_page_door(self):
        bulk, bulk_nand, geometry = make_ftl()
        single, single_nand, __ = make_ftl()
        pages = [page_of(tag) for tag in range(10)]
        bulk.write_bulk(3, pages)
        for offset, data in enumerate(pages):
            single.write(3 + offset, data)
        assert bulk._map == single._map
        assert ([bulk_nand.oob(ppn) for ppn in range(geometry.total_pages)]
                == [single_nand.oob(ppn)
                    for ppn in range(geometry.total_pages)])
        assert bulk.stats == single.stats
