"""Exception hierarchy for the repro library.

Every exception the library raises deliberately derives from
:class:`ReproError`, so callers can catch the whole family with one clause
while still being able to distinguish storage, device, protocol, and query
failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel."""


class StorageError(ReproError):
    """Page/layout level failure (overflow, corrupt page, bad slot...)."""


class PageFullError(StorageError):
    """A tuple did not fit into the page being built."""


class DeviceError(ReproError):
    """SSD/HDD device-level failure (bad LBA, out of capacity...)."""


class FlashError(DeviceError):
    """NAND-level failure (program to non-erased page, bad address...)."""


class ProgramFailError(FlashError):
    """A NAND page program failed; firmware must retry on another slot."""


class UncorrectableMediaError(FlashError):
    """A NAND read stayed corrupt after exhausting the ECC retry budget."""


class DeviceTimeoutError(DeviceError):
    """A device command (OPEN/GET/CLOSE/read) produced no reply in time."""


class ProgramCrashError(DeviceError):
    """An in-device query program crashed mid-session."""


class FaultConfigError(ReproError):
    """A fault-injection plan or retry policy is misconfigured."""


class ProtocolError(ReproError):
    """Smart SSD session protocol violation (bad session id, bad state)."""


class DeviceResourceError(ProtocolError):
    """The Smart SSD runtime could not grant the resources a session needs."""


class ServingError(ReproError):
    """Failure inside the multi-tenant serving layer (:mod:`repro.serve`).

    The serving front door raises typed subclasses instead of bare
    ``RuntimeError``: :class:`AdmissionRejected` when per-tenant admission
    control turns a query away, :class:`ShardUnavailable` when a shard's
    device cannot serve its partition.
    """


class AdmissionRejected(ServingError):
    """Per-tenant admission control refused the query.

    Raised by :meth:`repro.serve.Frontend.submit` when the tenant's
    backlog exceeds ``ServeConfig.max_queue_per_tenant`` — the token
    bucket is so far oversubscribed that queueing the query would only
    grow an unbounded queue. The caller should back off and resubmit.
    """


class ShardUnavailable(ServingError):
    """A shard's device cannot serve its table partition.

    Raised when a sharded table references a device that is not attached
    to the world (or no longer answers block reads), so the scatter plan
    cannot cover the full table.
    """


class CatalogError(ReproError):
    """Unknown table/column or conflicting definition."""


class PlanError(ReproError):
    """The planner could not build a plan for the requested query."""


class ExpressionError(ReproError):
    """Expression tree evaluation/validation failure."""
