"""SSD device substrate.

A functional model of the modern SSD the paper's §2 describes:

* :mod:`repro.flash.geometry` — NAND organization and timing parameters.
* :mod:`repro.flash.nand` — the flash array itself; stores real bytes and
  enforces NAND semantics (erase-before-program, page-granular I/O).
* :mod:`repro.flash.ftl` — page-mapping Flash Translation Layer with
  round-robin channel striping and greedy garbage collection.
* :mod:`repro.flash.controller` — flash memory controller: per-channel
  interleaving (one parallel hold per channel a unit touches), DMA over the
  single shared DRAM bus (the serialization the paper identifies as the
  internal bottleneck), and ECC verification.
* :mod:`repro.flash.interface` — host interface standards (SATA/SAS/PCIe)
  and the Figure-1 bandwidth roadmap.
* :mod:`repro.flash.ssd` / :mod:`repro.flash.hdd` — the composed devices.
"""

from repro.flash.geometry import NandGeometry, NandTiming
from repro.flash.hdd import Hdd, HddSpec
from repro.flash.interface import (
    INTERFACE_ROADMAP,
    INTERFACES,
    HostInterfaceSpec,
    bandwidth_trend,
)
from repro.flash.nand import NandArray, PageState
from repro.flash.ftl import FtlStats, PageMappedFtl
from repro.flash.gc import (
    CostBenefitGcPolicy,
    GcPolicy,
    GreedyGcPolicy,
    make_gc_policy,
)
from repro.flash.controller import FlashController
from repro.flash.dram import DeviceDram
from repro.flash.ssd import DevicePower, Ssd, SsdSpec

__all__ = [
    "CostBenefitGcPolicy",
    "DevicePower",
    "DeviceDram",
    "FlashController",
    "FtlStats",
    "GcPolicy",
    "GreedyGcPolicy",
    "make_gc_policy",
    "Hdd",
    "HddSpec",
    "HostInterfaceSpec",
    "INTERFACES",
    "INTERFACE_ROADMAP",
    "NandArray",
    "NandGeometry",
    "NandTiming",
    "PageMappedFtl",
    "PageState",
    "Ssd",
    "SsdSpec",
    "bandwidth_trend",
]
