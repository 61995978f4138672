"""Per-tenant quality of service: deterministic token-bucket rate limits.

The serving layer (:mod:`repro.serve`) tags every query with a tenant and
meters each tenant through a :class:`TokenBucket` refilled in *virtual*
time. A query arriving at ``a`` is released to the device scheduler at
``admit_at(a)`` — its arrival if the bucket holds enough tokens, else the
deterministic instant the bucket refills to the query's cost. Layered
over the scheduler's FIFO/SEF device admission, this gives fair sharing:
a tenant flooding the front door only pushes *its own* grants into the
future, so a light tenant's queries keep their arrival-time slots.

Everything is computed sequentially in arrival order from the bucket's
``(tokens, time)`` state, so replays under a fixed seed are bit-identical
— no wall clocks, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanError


@dataclass(frozen=True)
class TenantSpec:
    """Service contract of one tenant.

    ``rate`` is the sustained admission rate in queries per virtual
    second (scaled by per-query ``cost``); ``burst`` is the bucket
    capacity — how many queries may be admitted back-to-back after an
    idle period before the rate limit bites.
    """

    name: str
    rate: float = 8.0
    burst: float = 4.0

    def __post_init__(self):
        if not self.name:
            raise PlanError("tenant needs a non-empty name")
        if self.rate <= 0:
            raise PlanError(f"tenant {self.name!r}: rate must be > 0, "
                            f"got {self.rate}")
        if self.burst < 1:
            raise PlanError(f"tenant {self.name!r}: burst must be >= 1, "
                            f"got {self.burst}")


class TokenBucket:
    """Virtual-time token bucket for one tenant.

    Feed it requests in nondecreasing ``(arrival, submission index)``
    order; :meth:`admit_at` returns the grant instant and advances the
    bucket state. The bucket never rewinds: a request arriving while an
    earlier grant is still pending queues behind it.
    """

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.tokens = float(spec.burst)
        self.time = 0.0  # instant the token count was last valued at
        self.granted = 0

    def admit_at(self, arrival: float, cost: float = 1.0) -> float:
        """Grant time for a request of ``cost`` tokens arriving now."""
        if cost <= 0:
            raise PlanError(f"token cost must be > 0, got {cost}")
        if arrival > self.time:
            # Refill over the idle gap, capped at the burst size.
            self.tokens = min(self.spec.burst,
                              self.tokens + (arrival - self.time)
                              * self.spec.rate)
            self.time = arrival
        start = max(arrival, self.time)
        if self.tokens >= cost:
            grant = start
            self.tokens -= cost
        else:
            grant = start + (cost - self.tokens) / self.spec.rate
            self.tokens = 0.0
        self.time = grant
        self.granted += 1
        return grant

    def rebase(self, elapsed: float) -> None:
        """Re-express the bucket's clock against a window origin that lies
        ``elapsed`` virtual seconds after the previous one (arrival
        offsets restart at zero in every gather window)."""
        self.time -= elapsed

    @property
    def backlog_seconds(self) -> float:
        """How far the bucket's next grant lags a request arriving now."""
        return max(0.0, self.time)
