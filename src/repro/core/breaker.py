"""Per-runtime-key circuit breaker for the boot path.

When boots of one runtime type keep failing (bad image push, poisoned
base layer), retrying every request just burns backoff time and engine
capacity.  The breaker fails such requests fast instead:

* **closed** — normal operation; consecutive boot failures are counted.
* **open** — after ``threshold`` consecutive failures; every boot
  attempt is refused until ``cooldown_ms`` has elapsed.
* **half-open** — after the cooldown, exactly one probe boot is let
  through; success closes the breaker, failure re-opens it (and
  restarts the cooldown).

HotC builds one per key, and only when its breakers are on
(``HotCConfig.breaker_threshold > 0``), so ``threshold`` must be >= 1.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with a timed half-open probe.

    ``on_transition(old, new)`` (settable after construction) fires on
    every state change — the observability layer wires breaker events
    through it without the breaker knowing about registries.
    """

    __slots__ = ("threshold", "cooldown_ms", "state", "on_transition",
                 "_consecutive_failures", "_opened_at", "_probing")

    def __init__(self, threshold: int = 3, cooldown_ms: float = 5_000.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_ms <= 0:
            raise ValueError("cooldown_ms must be > 0")
        self.threshold = int(threshold)
        self.cooldown_ms = float(cooldown_ms)
        self.state = CLOSED
        self.on_transition: Optional[Callable[[str, str], None]] = None
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    def _set_state(self, new: str) -> None:
        old = self.state
        if old == new:
            return
        self.state = new
        if self.on_transition is not None:
            self.on_transition(old, new)

    def is_open(self, now: float) -> bool:
        """Non-mutating check: would an attempt at ``now`` be refused?

        Used by the prewarm path, which must not consume the half-open
        probe slot that a real request could use.
        """
        if self.state == CLOSED:
            return False
        if self.state == OPEN and now - self._opened_at >= self.cooldown_ms:
            return False  # would transition to half-open
        return self.state == OPEN or self._probing

    def allow(self, now: float) -> bool:
        """Whether a boot attempt may proceed at time ``now``.

        Transitions open → half-open once the cooldown has elapsed and
        claims the single half-open probe slot for the caller.
        """
        if self.state == OPEN:
            if now - self._opened_at < self.cooldown_ms:
                return False
            self._set_state(HALF_OPEN)
            self._probing = False
        if self.state == HALF_OPEN:
            if self._probing:
                return False
            self._probing = True
            return True
        return True

    def record_success(self) -> None:
        """A boot succeeded: close the breaker and reset counters."""
        self._set_state(CLOSED)
        self._consecutive_failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self, now: float) -> bool:
        """A boot failed; returns ``True`` if this transition *opened*
        the breaker (callers use it to count ``breaker_opens``)."""
        if self.state == HALF_OPEN:
            # The probe failed: straight back to open, fresh cooldown.
            self._set_state(OPEN)
            self._opened_at = now
            self._probing = False
            return True
        self._consecutive_failures += 1
        if self.state == CLOSED and self._consecutive_failures >= self.threshold:
            self._set_state(OPEN)
            self._opened_at = now
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CircuitBreaker {self.state} "
            f"failures={self._consecutive_failures}/{self.threshold}>"
        )
