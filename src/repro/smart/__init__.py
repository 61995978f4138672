"""The Smart SSD: session protocol, in-device runtime, and device programs.

Implements the paper's §3 API — a session-based protocol of three commands
(OPEN, GET, CLOSE) layered on a SATA/SAS-compatible model where the device
is passive and the host initiates every exchange — plus the runtime that
grants threads and memory to user programs, and the uploaded operator code
(scan/filter, aggregation, simple hash join) that §4 evaluates.
"""

from repro.smart.protocol import (
    CommandKind,
    GetResponse,
    OpenParams,
    SessionStatus,
)
from repro.smart.runtime import SmartRuntime
from repro.smart.device import SmartSsd, SmartSsdSpec

__all__ = [
    "CommandKind",
    "GetResponse",
    "OpenParams",
    "SessionStatus",
    "SmartRuntime",
    "SmartSsd",
    "SmartSsdSpec",
]
