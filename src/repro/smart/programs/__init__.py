"""Device programs: the operator code uploaded into the Smart SSD.

The paper uploads "code for simple selection, aggregation, and selection
with join queries" (§4.1.2). Here they are one program: a single device
scan body (:mod:`repro.smart.programs.shared`) that streams heap pages from
flash, runs the page kernels on the device CPU, and stages results for
GET — for one query or for many riding one circular scan, which is how
the host scheduler's cooperative scan sharing runs. The four OPEN names
(``scan_filter``, ``aggregate``, ``hash_join``, ``shared_scan``) stay
because the paper's protocol names programs; each is only the shape check
it runs in front of that body (:data:`PROGRAMS`).
"""

from repro.smart.programs.base import ProgramArguments
from repro.smart.programs.shared import (
    PROGRAMS,
    DeviceProgram,
    default_programs,
)

__all__ = [
    "DeviceProgram",
    "PROGRAMS",
    "ProgramArguments",
    "default_programs",
]
