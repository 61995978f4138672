"""Device programs: the operator code uploaded into the Smart SSD.

The paper uploads "code for simple selection, aggregation, and selection
with join queries" (§4.1.2). Each program validates that an OPEN request
matches its shape, then runs the shared in-device execution engine
(:mod:`repro.smart.programs.base`), which streams heap pages from flash,
runs the page kernels on the device CPU, and stages results for GET.
The shared-scan program (:mod:`repro.smart.programs.shared`) extends the
set with a multi-query circular scan that serves the host scheduler's
cooperative scan sharing.
"""

from repro.smart.programs.base import DeviceProgram, ProgramArguments
from repro.smart.programs.scan import ScanFilterProgram
from repro.smart.programs.aggregate import AggregateProgram
from repro.smart.programs.join import HashJoinProgram
from repro.smart.programs.shared import (
    SharedScanArguments,
    SharedScanProgram,
)


def default_programs() -> list[DeviceProgram]:
    """The standard program set flashed onto every Smart SSD."""
    return [ScanFilterProgram(), AggregateProgram(), HashJoinProgram(),
            SharedScanProgram()]


__all__ = [
    "AggregateProgram",
    "DeviceProgram",
    "HashJoinProgram",
    "ProgramArguments",
    "ScanFilterProgram",
    "SharedScanArguments",
    "SharedScanProgram",
    "default_programs",
]
