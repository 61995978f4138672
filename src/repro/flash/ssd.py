"""The composed SSD device.

An :class:`Ssd` wires together the NAND array, FTL, flash controller, device
DRAM, and a host interface link. Two read paths mirror the paper's core
contrast:

* :meth:`Ssd.host_read` — the conventional path: flash -> device DRAM ->
  host interface. Externally visible bandwidth is capped by the interface
  (550 MB/s effective on the paper's SAS-6Gbps HBA).
* :meth:`Ssd.internal_read` — the Smart SSD path: flash -> device DRAM only,
  capped by the shared DRAM bus (1,560 MB/s). The 2.8x between the two is
  the paper's Table 2.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Generator, Sequence

from repro.errors import DeviceError, DeviceTimeoutError
from repro.faults import (
    DEAD_COMMAND_TIMEOUT_S,
    SITE_DEVICE_DEAD,
    SITE_DEVICE_SLOW,
    SITE_UNCLEAN_SHUTDOWN,
    FaultPlan,
    check_fault,
)
from repro.flash.controller import FlashController
from repro.flash.dram import DeviceDram
from repro.flash.ftl import PageMappedFtl
from repro.flash.gc import make_gc_policy
from repro.flash.geometry import NandGeometry, NandTiming
from repro.flash.interface import INTERFACES, HostInterfaceSpec
from repro.flash.nand import NandArray
from repro.sim import Bandwidth, Event, Simulator
from repro.units import GIB, MB, MIB


@dataclass(frozen=True)
class DevicePower:
    """Power draw of one storage device, watts."""

    idle_w: float
    active_w: float

    def __post_init__(self):
        if self.idle_w < 0 or self.active_w < self.idle_w:
            raise DeviceError("active power must be >= idle power >= 0")


@dataclass(frozen=True)
class SsdSpec:
    """Configuration of one SSD device.

    Defaults describe the paper's 400 GB SAS SSD / Smart SSD prototype:
    SAS-6Gbps interface (550 MB/s effective), 1,560 MB/s internal DRAM bus.
    """

    name: str = "sas-ssd"
    geometry: NandGeometry = field(default_factory=NandGeometry)
    timing: NandTiming = field(default_factory=NandTiming)
    interface: HostInterfaceSpec = INTERFACES["sas6"]
    dram_bus_rate: float = 1560 * MB
    dram_nbytes: int = 1 * GIB
    dram_reserved_nbytes: int = 64 * MIB
    power: DevicePower = DevicePower(idle_w=1.3, active_w=8.0)
    verify_ecc: bool = True
    #: FTL garbage-collection victim policy: ``"greedy"`` (min valid
    #: pages; the historical default) or ``"cost-benefit"`` (age-weighted,
    #: see :mod:`repro.flash.gc`).
    gc_policy: str = "greedy"
    #: Bias cost-benefit selection away from heavily-erased blocks
    #: (ignored by the greedy policy).
    gc_wear_leveling: bool = False
    #: PRNG seed for the policy's deterministic tie-breaking stream.
    gc_seed: int = 0


class Ssd:
    """A simulated SSD: real bytes behind timed read/write paths."""

    def __init__(self, sim: Simulator, spec: SsdSpec | None = None):
        self.sim = sim
        self.spec = spec or SsdSpec()
        self.nand = NandArray(self.spec.geometry)
        self.ftl = PageMappedFtl(
            self.spec.geometry, self.nand,
            gc_policy=make_gc_policy(
                self.spec.gc_policy,
                wear_leveling=self.spec.gc_wear_leveling,
                seed=self.spec.gc_seed),
            sim=sim)
        self.controller = FlashController(
            sim, self.spec.geometry, self.spec.timing, self.nand, self.ftl,
            dram_bus_rate=self.spec.dram_bus_rate,
            verify_ecc=self.spec.verify_ecc)
        self.dram = DeviceDram(self.spec.dram_nbytes,
                               self.spec.dram_reserved_nbytes)
        self.interface = Bandwidth(sim, self.spec.interface.effective_rate,
                                   name=f"{self.spec.name}-interface")
        self._next_lpn = 0
        # Firmware-resident per-page statistics, keyed by extent first LPN
        # (see repro.storage.stats). Device scan programs consult these to
        # skip non-qualifying NAND page reads.
        self._extent_stats: dict[int, "object"] = {}
        self._extent_starts: list[int] = []   # the same keys, sorted
        if getattr(sim, "faults", None) is not None:
            self.install_fault_plan(sim.faults)

    # -- fault injection -------------------------------------------------------

    def install_fault_plan(self, plan: FaultPlan) -> None:
        """Wire a fault plan into this device (and the shared simulator)."""
        self.sim.faults = plan
        self.nand.faults = plan

    def power_cycle(self, clean: bool = True) -> int:
        """Power the device off and on again (untimed maintenance action).

        A clean cycle is a no-op — firmware flushed its map. An unclean one
        (``clean=False``, or a fault plan firing at ``ftl.unclean_shutdown``)
        drops the FTL's volatile state and replays the out-of-band recovery
        scan. Returns the number of live pages remapped (0 when clean).
        """
        decision = check_fault(getattr(self.sim, "faults", None),
                               SITE_UNCLEAN_SHUTDOWN, time=self.sim.now,
                               device=self.spec.name)
        if clean and decision is None:
            return 0
        self.ftl.unclean_shutdown()
        recovered = self.ftl.recover()
        if self.sim.tracer is not None:
            self.sim.tracer.mark(self.sim.now, "ftl-recovery",
                                 f"{self.spec.name}: {recovered} pages")
        return recovered

    def _maybe_slow(self, command: str) -> Generator[Event, None, None]:
        """Inject a straggler delay when the fault plan marks us slow."""
        decision = check_fault(getattr(self.sim, "faults", None),
                               SITE_DEVICE_SLOW, time=self.sim.now,
                               device=self.spec.name, command=command)
        if decision is None:
            return
        yield self.sim.timeout(
            float(decision.payload.get("delay", DEAD_COMMAND_TIMEOUT_S)))

    def _check_alive(self, command: str) -> Generator[Event, None, None]:
        """Raise (after a timeout's worth of waiting) when the device is
        marked dead by the fault plan."""
        decision = check_fault(getattr(self.sim, "faults", None),
                               SITE_DEVICE_DEAD, time=self.sim.now,
                               device=self.spec.name, command=command)
        if decision is None:
            return
        yield self.sim.timeout(
            float(decision.payload.get("delay", DEAD_COMMAND_TIMEOUT_S)))
        raise DeviceTimeoutError(
            f"{self.spec.name}: no reply to {command} command")

    @property
    def page_nbytes(self) -> int:
        """Logical/flash page size."""
        return self.spec.geometry.page_nbytes

    @property
    def capacity_pages(self) -> int:
        """Exported logical capacity in pages."""
        return self.ftl.logical_capacity_pages

    # -- space management -----------------------------------------------------

    def allocate_extent(self, page_count: int) -> int:
        """Reserve a run of logical pages; returns the first LPN."""
        if page_count < 1:
            raise DeviceError(f"bad extent size {page_count}")
        if self._next_lpn + page_count > self.capacity_pages:
            raise DeviceError(
                f"extent of {page_count} pages exceeds device capacity")
        first = self._next_lpn
        self._next_lpn += page_count
        return first

    def load_extent(self, pages: Sequence[bytes]) -> int:
        """Bulk-load pages without charging simulated time (data staging).

        Loading the database is setup, not the experiment; the paper's runs
        start from already-loaded heap tables ("cold" only means an empty
        buffer pool). Returns the extent's first LPN.
        """
        first = self.allocate_extent(len(pages))
        self.ftl.write_bulk(first, pages)
        return first

    def register_extent_stats(self, first_lpn: int, stats) -> None:
        """Attach per-page statistics to an extent (untimed metadata).

        ``stats`` is a :class:`repro.storage.stats.ExtentStats`; its page
        count must match the extent it describes. Registration is free in
        simulated time — stats are computed while the table loads, exactly
        like the page encode itself.
        """
        if stats.page_count < 1:
            raise DeviceError("extent stats must cover at least one page")
        if first_lpn not in self._extent_stats:
            insort(self._extent_starts, first_lpn)
        self._extent_stats[first_lpn] = stats

    def extent_stats(self, first_lpn: int):
        """Statistics registered for the extent at ``first_lpn``, or None."""
        return self._extent_stats.get(first_lpn)

    # -- timed I/O paths --------------------------------------------------------

    def internal_read(self, lpns: Sequence[int]) -> Generator[Event, None, list[bytes]]:
        """Smart-SSD path: flash -> device DRAM (no interface crossing)."""
        pages = yield from self.controller.read_lpns(lpns)
        return pages

    def host_read(self, lpns: Sequence[int]) -> Generator[Event, None, list[bytes]]:
        """Conventional path: flash -> device DRAM -> host interface."""
        yield from self._check_alive("read")
        pages = yield from self.controller.read_lpns(lpns)
        nbytes = len(lpns) * self.page_nbytes
        yield from self.interface.transfer(
            nbytes, self._interface_span("interface.read", nbytes))
        return pages

    def host_write(self, lpns: Sequence[int],
                   pages: Sequence[bytes]) -> Generator[Event, None, None]:
        """Timed host write: interface -> device DRAM -> flash."""
        nbytes = len(lpns) * self.page_nbytes
        yield from self.interface.transfer(
            nbytes, self._interface_span("interface.write", nbytes))
        yield from self.controller.write_lpns(lpns, pages)
        # Keep firmware page statistics current: recompute the entry for
        # every rewritten page (untimed maintenance, like the FTL map).
        starts = self._extent_starts
        if starts:
            for lpn, page in zip(lpns, pages):
                owner = bisect_right(starts, lpn) - 1
                if owner >= 0:
                    first = starts[owner]
                    stats = self._extent_stats[first]
                    if lpn < first + stats.page_count:
                        stats.refresh(lpn - first, page)

    def transfer_to_host(self, nbytes: int) -> Generator[Event, None, None]:
        """Move result bytes (not pages) to the host — the GET reply path."""
        yield from self.interface.transfer(
            nbytes, self._interface_span("interface.reply", nbytes))

    def _interface_span(self, name: str, nbytes: int):
        """Hold-span for an interface crossing, or None when obs is off."""
        obs = self.sim.obs
        if obs is None:
            return None
        obs.metrics.counter("interface.bytes", device=self.spec.name).inc(nbytes)
        return obs.span(name, track=self.interface.name, bytes=nbytes)

    # -- untimed access ---------------------------------------------------------

    def read_page_direct(self, lpn: int) -> bytes:
        """Fetch page bytes without simulated time (assertions, debugging)."""
        return self.ftl.read(lpn)

    # -- reporting ----------------------------------------------------------------

    def internal_read_rate(self) -> float:
        """Sustained internal sequential read bandwidth, bytes/s (Table 2)."""
        return self.controller.internal_read_rate()

    def external_read_rate(self) -> float:
        """Sustained host-visible sequential read bandwidth, bytes/s."""
        return min(self.internal_read_rate(),
                   self.spec.interface.effective_rate)
