"""AIMD adaptive concurrency: additive raise, multiplicative cut.

One :class:`AIMDLimiter` per function tracks the admission concurrency
limit.  Requests finishing inside their deadline accumulate as
successes; deadline misses and shed bursts accumulate as congestion.
The limit only moves on :meth:`tick` (driven from the platform's
existing control-loop tick), so adjustment is deterministic and
independent of request interleaving inside an interval:

* congestion observed this interval → ``limit *= DECREASE`` (cut once
  per interval, floored at ``MIN_LIMIT``);
* otherwise, any success this interval → ``limit += INCREASE`` (capped
  at ``MAX_LIMIT``).

The limit is a float internally so repeated cuts/raises compose
smoothly; the *effective* limit used for admission is ``floor(limit)``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AIMDConfig", "AIMDLimiter"]

#: The band every limit stays in.
MIN_LIMIT = 1.0
MAX_LIMIT = 1_024.0
#: Additive raise per congestion-free interval with traffic.
INCREASE = 1.0
#: Multiplicative cut factor on congestion (deadline miss / shed burst).
DECREASE = 0.5
#: Sheds in one interval at or above this count are a congestion
#: signal; below it they are absorbed (a lone queue-cap rejection must
#: not halve the limit).
SHED_BURST = 4


@dataclass(frozen=True)
class AIMDConfig:
    """Tunables of one AIMD controller."""

    #: Starting concurrency limit for a fresh function.
    initial_limit: float = 32.0

    def __post_init__(self) -> None:
        if not MIN_LIMIT <= self.initial_limit <= MAX_LIMIT:
            raise ValueError("initial_limit must be in [MIN_LIMIT, MAX_LIMIT]")


class AIMDLimiter:
    """Per-function adaptive concurrency limit."""

    __slots__ = ("config", "limit", "successes", "misses", "sheds")

    def __init__(self, config: AIMDConfig) -> None:
        self.config = config
        self.limit = float(config.initial_limit)
        #: Interval accumulators, reset by :meth:`tick`.
        self.successes = 0
        self.misses = 0
        self.sheds = 0

    @property
    def effective(self) -> int:
        """The integer limit admission enforces (floor, >= 1)."""
        return max(1, int(self.limit))

    # -- feedback ---------------------------------------------------------
    def record_success(self) -> None:
        """A request finished within its deadline."""
        self.successes += 1

    def record_miss(self) -> None:
        """A request blew its deadline (queued or executing)."""
        self.misses += 1

    def record_shed(self) -> None:
        """A request was shed (queue full / brownout)."""
        self.sheds += 1

    # -- control ----------------------------------------------------------
    @property
    def congested(self) -> bool:
        """Whether this interval's feedback signals congestion."""
        return self.misses > 0 or self.sheds >= SHED_BURST

    def tick(self) -> float:
        """Apply one interval's feedback; returns the new limit."""
        if self.congested:
            self.limit = max(MIN_LIMIT, self.limit * DECREASE)
        elif self.successes > 0:
            self.limit = min(MAX_LIMIT, self.limit + INCREASE)
        self.successes = 0
        self.misses = 0
        self.sheds = 0
        return self.limit

    def restore(self, limit: float) -> None:
        """Set the limit to a checkpointed value, clamped to the band."""
        self.limit = min(MAX_LIMIT, max(MIN_LIMIT, float(limit)))
