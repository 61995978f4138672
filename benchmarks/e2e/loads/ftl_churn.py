"""``ftl_churn``: the flash write and GC path, through the device door.

Two small-geometry ``Ssd`` devices, one with the greedy GC policy and one
with cost-benefit and wear leveling, are loaded to 90% of their logical
capacity and take the same seeded 95/5 hot/cold overwrite stream through
``Ssd.host_write`` under one simulator process. An op writes the same eight
pages to both. Flash writes, GC and the simulator do the work and everything
above the device is idle, so this is the workload on which an array-backed
FTL has to show.
"""

from __future__ import annotations

import time

from repro.flash import NandGeometry, Ssd, SsdSpec
from repro.model.energy import DeviceActivity, EnergyMeter
from repro.sim import Simulator
from repro.storage.page import PAGE_SIZE

from harness import World
from loads.base import Workload

PAGES_PER_OP = 8
HOT_FRACTION = 0.05
HOT_SHARE = 0.95
#: Distinct page payloads; which one an LPN holds says which write it saw.
PAYLOADS = 251
LEGS = (("greedy", {"gc_policy": "greedy"}),
        ("cost-benefit+wl", {"gc_policy": "cost-benefit",
                             "gc_wear_leveling": True}))


class FtlChurn(Workload):
    name = "ftl_churn"

    def __init__(self, seed: int, size: dict):
        super().__init__(seed, size)
        self.geometry = NandGeometry(*size["geometry"])
        self.payloads = [bytes([i]) * PAGE_SIZE for i in range(PAYLOADS)]
        capacity = Ssd(Simulator(), self._spec(LEGS[0])).capacity_pages
        self.loaded = int(capacity * size["fill"])
        hot = max(PAGES_PER_OP, int(self.loaded * HOT_FRACTION))
        rng = self.rng()
        count = size["ops"]
        # Exactly 95% of the ops are hot; which ones, and where each lands,
        # is seeded.
        is_hot = rng.permutation(count) < round(count * HOT_SHARE)
        hot_starts = rng.integers(0, hot - PAGES_PER_OP + 1, count)
        cold_starts = rng.integers(hot, self.loaded - PAGES_PER_OP + 1, count)
        self.ops = []
        #: LPN -> payload index after the whole stream (the row model).
        self.expected = {lpn: lpn % PAYLOADS for lpn in range(self.loaded)}
        for index in range(count):
            start = int(hot_starts[index] if is_hot[index]
                        else cold_starts[index])
            lpns = list(range(start, start + PAGES_PER_OP))
            stamps = [(lpn + index + 1) % PAYLOADS for lpn in lpns]
            self.expected.update(zip(lpns, stamps))
            self.ops.append((lpns, [self.payloads[s] for s in stamps]))

    def _spec(self, leg) -> SsdSpec:
        label, policy = leg
        return SsdSpec(name=f"churn-{label}", geometry=self.geometry,
                       verify_ecc=False, **policy)

    def build(self) -> None:
        self.fresh()

    def fresh(self) -> World:
        sim = Simulator()
        devices = []
        for leg in LEGS:
            ssd = Ssd(sim, self._spec(leg))
            ssd.load_extent([self.payloads[lpn % PAYLOADS]
                             for lpn in range(self.loaded)])
            devices.append((ssd, sim))
        return World(devices=devices)

    def run_pass(self, world: World, tally) -> None:
        sim = world.sims()[0]
        ssds = [ssd for ssd, _ in world.devices]
        half = len(self.ops) // 2

        def written():
            return (sum(ssd.ftl.stats.host_writes for ssd in ssds),
                    sum(ssd.ftl.stats.gc_relocations for ssd in ssds))

        def stream():
            for index, (lpns, pages) in enumerate(self.ops):
                if index == half:
                    world.state["mid"] = written()
                wall, virt = time.perf_counter(), sim.now
                for ssd in ssds:
                    yield from ssd.host_write(lpns, pages)
                tally.op("write", None, time.perf_counter() - wall,
                         sim.now - virt)

        busy = [self._io_busy(ssd, sim) for ssd in ssds]
        with tally.span("Ssd.host_write stream"):
            sim.process(stream(), name="churn")
            sim.run()
        # Second half of the stream only: by then GC has cycled and the
        # ratio has levelled off.
        host, moved = (end - mid for end, mid
                       in zip(written(), world.state["mid"]))
        world.state["write_amp"] = (host + moved) / host
        activity = []
        for (label, _), ssd, before in zip(LEGS, ssds, busy):
            stats = ssd.ftl.stats
            tally.results[label] = world.state[label] = (
                stats.host_writes, stats.gc_relocations, stats.erases,
                ssd.nand.programs)
            power = ssd.spec.power
            activity.append(DeviceActivity(
                name=ssd.spec.name, idle_w=power.idle_w,
                active_delta_w=power.active_w - power.idle_w,
                io_busy_seconds=self._io_busy(ssd, sim) - before))
        tally.energy_j += EnergyMeter().measure(
            sim.now, 0.0, activity).entire_system_j

    @staticmethod
    def _io_busy(ssd: Ssd, sim: Simulator) -> float:
        return max(ssd.controller.dram_bus.busy.busy_time(sim.now),
                   ssd.interface.busy.busy_time(sim.now))

    def verify(self, tally) -> tuple[int, int]:
        failed = 0
        for ssd, _ in tally.world.devices:
            for lpn, stamp in self.expected.items():
                if ssd.read_page_direct(lpn) != self.payloads[stamp]:
                    failed += 1
            stats = ssd.ftl.stats
            if stats.host_writes + stats.gc_relocations != ssd.nand.programs:
                failed += 1
        return (len(self.expected) + 1) * len(LEGS), failed

    def specific(self, tally) -> dict:
        return {**super().specific(tally),
                "write_amp": tally.world.state["write_amp"]}

    def detail(self, tally) -> dict:
        return {label: dict(zip(("host_writes", "gc_relocations", "erases",
                                 "nand_programs"), tally.world.state[label]))
                for label, _ in LEGS}
