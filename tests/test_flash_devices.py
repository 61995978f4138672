"""Unit tests for the composed SSD/HDD devices and the controller timing."""

import pytest

from repro.errors import DeviceError, DeviceResourceError, StorageError
from repro.flash import (
    DeviceDram,
    Hdd,
    HddSpec,
    NandGeometry,
    Ssd,
    SsdSpec,
    bandwidth_trend,
)
from repro.sim import Simulator
from repro.storage.page import PAGE_SIZE
from repro.units import MB, MIB


def run_process(sim, generator):
    proc = sim.process(generator)
    sim.run()
    assert proc.ok
    return proc.value


def blank_pages(n):
    """n distinct valid-CRC-free raw pages (CRC checks disabled in specs)."""
    return [i.to_bytes(4, "little") * (PAGE_SIZE // 4) for i in range(n)]


def small_ssd(sim, **overrides):
    # 4 chips/channel keeps channels transfer-bound (not sense-bound), so
    # each channel sustains its full 400 MB/s bus rate.
    spec = SsdSpec(
        geometry=NandGeometry(channels=4, chips_per_channel=4,
                              blocks_per_chip=8, pages_per_block=16),
        verify_ecc=False, **overrides)
    return Ssd(sim, spec)


class TestSsd:
    def test_load_then_direct_read(self):
        sim = Simulator()
        ssd = small_ssd(sim)
        pages = blank_pages(10)
        first = ssd.load_extent(pages)
        for offset, data in enumerate(pages):
            assert ssd.read_page_direct(first + offset) == data

    def test_extents_do_not_overlap(self):
        sim = Simulator()
        ssd = small_ssd(sim)
        a = ssd.allocate_extent(10)
        b = ssd.allocate_extent(5)
        assert b >= a + 10

    def test_extent_capacity_enforced(self):
        sim = Simulator()
        ssd = small_ssd(sim)
        with pytest.raises(DeviceError):
            ssd.allocate_extent(ssd.capacity_pages + 1)
        with pytest.raises(DeviceError):
            ssd.allocate_extent(0)

    def test_internal_rate_is_dram_bus_bound(self):
        sim = Simulator()
        ssd = small_ssd(sim)
        # 4 channels x 400 MB/s aggregate = 1.6 GB/s > 1.56 GB/s DRAM bus.
        assert ssd.internal_read_rate() == pytest.approx(1560 * MB)

    def test_external_rate_is_interface_bound(self):
        sim = Simulator()
        ssd = small_ssd(sim)
        assert ssd.external_read_rate() == pytest.approx(550 * MB)

    def test_host_read_slower_than_internal_read(self):
        pages = blank_pages(64)

        def timed(path_name):
            sim = Simulator()
            ssd = small_ssd(sim)
            first = ssd.load_extent(pages)
            lpns = list(range(first, first + len(pages)))
            run_process(sim, getattr(ssd, path_name)(lpns))
            return sim.now

        internal = timed("internal_read")
        external = timed("host_read")
        assert external > internal

    def test_host_read_returns_correct_bytes(self):
        sim = Simulator()
        ssd = small_ssd(sim)
        pages = blank_pages(8)
        first = ssd.load_extent(pages)
        got = run_process(sim, ssd.host_read(list(range(first, first + 8))))
        assert got == pages

    def test_timed_host_write_round_trip(self):
        sim = Simulator()
        ssd = small_ssd(sim)
        first = ssd.allocate_extent(4)
        pages = blank_pages(4)
        run_process(sim, ssd.host_write(list(range(first, first + 4)), pages))
        assert sim.now > 0
        assert ssd.read_page_direct(first) == pages[0]

    def test_host_write_refreshes_only_the_owning_extent(self):
        class RecordingStats:
            def __init__(self, page_count):
                self.page_count = page_count
                self.refreshed = []

            def refresh(self, index, page):
                self.refreshed.append((index, page))

        sim = Simulator()
        ssd = small_ssd(sim)
        pages = blank_pages(6)
        firsts = [ssd.load_extent(pages) for _ in range(4)]
        # Registered out of LPN order; the third extent carries no stats.
        stats = {first: RecordingStats(len(pages))
                 for first in (firsts[1], firsts[3], firsts[0])}
        for first, entry in stats.items():
            ssd.register_extent_stats(first, entry)
        fresh = blank_pages(8)[6:]
        run_process(sim, ssd.host_write(
            [firsts[1] + 2, firsts[2] + 1], fresh))
        assert stats[firsts[1]].refreshed == [(2, fresh[0])]
        assert stats[firsts[0]].refreshed == []
        assert stats[firsts[3]].refreshed == []
        # Re-registering an extent replaces its entry without a second key.
        replacement = RecordingStats(len(pages))
        ssd.register_extent_stats(firsts[1], replacement)
        run_process(sim, ssd.host_write([firsts[1]], fresh[:1]))
        assert replacement.refreshed == [(0, fresh[0])]
        assert stats[firsts[1]].refreshed == [(2, fresh[0])]

    def test_bookkeeping_memory_follows_blocks_opened_not_geometry(self):
        import tracemalloc

        payload = bytes(PAGE_SIZE)   # one shared object: payloads cost nothing
        tracemalloc.start()
        try:
            before, __ = tracemalloc.get_traced_memory()
            ssd = Ssd(Simulator(), SsdSpec(verify_ecc=False))
            ssd.load_extent([payload] * 1000)
            after, __ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ssd.spec.geometry.total_pages == 2_097_152
        # A dense per-page array at this geometry is 2-26 MB.
        assert after - before < 1_000_000

    def test_ecc_detects_injected_corruption(self):
        sim = Simulator()
        spec = SsdSpec(geometry=NandGeometry(channels=2, chips_per_channel=1,
                                             blocks_per_chip=16,
                                             pages_per_block=8),
                       verify_ecc=True)
        ssd = Ssd(sim, spec)
        # Load a real encoded page, then corrupt the NAND copy underneath.
        from repro.storage import Column, Int32Type, Layout, Schema, encode_page
        schema = Schema([Column("x", Int32Type())])
        rows = schema.rows_to_array([(1,), (2,)])
        page = encode_page(Layout.NSM, schema, rows)
        first = ssd.load_extent([page])
        ppn = ssd.ftl.lookup(first)
        corrupted = bytearray(ssd.nand.read(ppn))
        corrupted[2000] ^= 0x1
        ssd.nand.corrupt_page(ppn, bytes(corrupted))

        proc = sim.process(ssd.internal_read([first]))
        with pytest.raises(StorageError, match="CRC"):
            sim.run()

    def test_transfer_to_host_times_by_interface_rate(self):
        sim = Simulator()
        ssd = small_ssd(sim)
        run_process(sim, ssd.transfer_to_host(int(550 * MB)))
        assert sim.now == pytest.approx(1.0)


class TestDeviceDram:
    def test_allocate_and_free(self):
        dram = DeviceDram(256 * MIB, reserved_nbytes=56 * MIB)
        before = dram.available_nbytes
        handle = dram.allocate(100 * MIB)
        assert dram.available_nbytes == before - 100 * MIB
        dram.free(handle)
        assert dram.available_nbytes == before

    def test_exhaustion_rejected(self):
        dram = DeviceDram(128 * MIB, reserved_nbytes=64 * MIB)
        with pytest.raises(DeviceResourceError):
            dram.allocate(65 * MIB)

    def test_double_free_rejected(self):
        dram = DeviceDram(128 * MIB, reserved_nbytes=8 * MIB)
        handle = dram.allocate(1)
        dram.free(handle)
        with pytest.raises(DeviceResourceError):
            dram.free(handle)

    def test_reservation_must_fit(self):
        with pytest.raises(DeviceResourceError):
            DeviceDram(8 * MIB, reserved_nbytes=8 * MIB)


class TestHdd:
    def test_sequential_read_at_media_rate(self):
        sim = Simulator()
        hdd = Hdd(sim)
        pages = blank_pages(100)
        first = hdd.load_extent(pages)
        got = run_process(sim,
                          hdd.host_read(list(range(first, first + 100))))
        assert got == pages
        stream_time = 100 * PAGE_SIZE / hdd.spec.media_rate
        assert sim.now == pytest.approx(hdd.spec.positioning_time + stream_time)

    def test_contiguous_reads_seek_once(self):
        sim = Simulator()
        hdd = Hdd(sim)
        first = hdd.load_extent(blank_pages(64))

        def scan():
            for start in range(first, first + 64, 16):
                yield from hdd.host_read(list(range(start, start + 16)))

        run_process(sim, scan())
        assert hdd.seeks == 1

    def test_random_reads_seek_every_time(self):
        sim = Simulator()
        hdd = Hdd(sim)
        first = hdd.load_extent(blank_pages(64))

        def hop():
            yield from hdd.host_read([first + 40])
            yield from hdd.host_read([first + 3])
            yield from hdd.host_read([first + 60])

        run_process(sim, hop())
        assert hdd.seeks == 3

    def test_hdd_much_slower_than_ssd_on_scan(self):
        def timed(make_device):
            sim = Simulator()
            device = make_device(sim)
            first = device.load_extent(blank_pages(128))
            run_process(
                sim, device.host_read(list(range(first, first + 128))))
            return sim.now

        hdd_time = timed(lambda sim: Hdd(sim))
        ssd_time = timed(small_ssd)
        assert hdd_time > 4 * ssd_time

    def test_unwritten_read_rejected(self):
        sim = Simulator()
        hdd = Hdd(sim)
        proc = sim.process(hdd.host_read([5]))
        with pytest.raises(DeviceError):
            sim.run()

    def test_rotational_latency(self):
        spec = HddSpec(rpm=10_000)
        assert spec.avg_rotational_latency == pytest.approx(0.003)


class TestBandwidthTrend:
    def test_fig1_shape(self):
        trend = bandwidth_trend()
        assert trend[0]["year"] == 2007
        assert trend[0]["interface_x"] == pytest.approx(1.0)
        # The internal/interface gap widens over the roadmap toward ~10x
        # (dips are allowed in years the interface generation bumps).
        gaps = [row["gap_x"] for row in trend]
        assert gaps[-1] > gaps[0]
        assert gaps[-1] >= 8.0
        internals = [row["internal_x"] for row in trend]
        assert all(b > a for a, b in zip(internals, internals[1:]))
        # 2012 row matches Table 2's device.
        row_2012 = next(r for r in trend if r["year"] == 2012)
        assert row_2012["interface_mb_s"] == 550.0
        assert row_2012["internal_mb_s"] == 1560.0
