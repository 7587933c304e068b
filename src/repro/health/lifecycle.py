"""Host lifecycle states and per-host health bookkeeping.

The state machine (DESIGN.md §12)::

            phi >= suspect            phi >= quarantine
    HEALTHY ---------------> SUSPECT ------------------> QUARANTINED
       ^                        |  ^                        |     |
       |   clean evals          |  |  relapse               |     | confirmed dead /
       +------------------------+  +----------+             |     | phi >= drain
       |                                      |   heartbeats|     v
       |        probation heartbeats          |   resume    |  DRAINING
       +----------------------- PROBATION <---+-------------+     |
                                     ^        heartbeats resume   |
                                     +----------------------------+

* **SUSPECT** and **QUARANTINED** hosts stop receiving new work but
  keep their in-flight requests (gray failures are often transient;
  killing work on a slow host converts a latency problem into errors).
* **DRAINING** additionally drops the host's pool metadata and absorbs
  its in-flight prewarm boots — the host is being treated as lost.
* **PROBATION** reintroduces a recovered host gradually: its routing
  weight ramps from near zero to 1.0 over ``PROBATION_HEARTBEATS``
  on-time heartbeats instead of rejoining abruptly at full weight.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.health.detector import PhiAccrualDetector

__all__ = ["HealthConfig", "HostHealth", "HostState"]

#: Heartbeat period each host's pump simulates.
HEARTBEAT_INTERVAL_MS = 500.0
#: phi threshold that turns HEALTHY into SUSPECT.
SUSPECT_PHI = 1.5
#: phi threshold that turns SUSPECT into QUARANTINED.
QUARANTINE_PHI = 5.0
#: phi threshold past which a QUARANTINED host is presumed lost and
#: drained (its pool metadata dropped, pending prewarms absorbed).
DRAIN_PHI = 12.0
#: Consecutive clean evaluations a SUSPECT host needs to rejoin HEALTHY
#: directly (it never stopped heartbeating hard enough to be
#: quarantined, so no probation ramp is needed).
RECOVER_EVALS = 3
#: Deviation floor (ms) of each host's detector (see PhiAccrualDetector).
MIN_STD_MS = 200.0
#: A host whose learned mean heartbeat interval exceeds
#: ``SLOW_FACTOR * HEARTBEAT_INTERVAL_MS`` is treated as gray-slow
#: (suspect) even when individual heartbeats keep arriving.
SLOW_FACTOR = 2.0
#: On-time heartbeats a PROBATION host needs before full weight.
PROBATION_HEARTBEATS = 8


class HostState(enum.Enum):
    """Lifecycle states; ``code`` feeds the per-host gauge."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    DRAINING = "draining"
    PROBATION = "probation"

    @property
    def code(self) -> int:
        """Stable numeric encoding for the lifecycle gauge."""
        return _STATE_CODES[self]

    @property
    def routable(self) -> bool:
        """Whether new work may be sent to a host in this state."""
        return self in (HostState.HEALTHY, HostState.PROBATION)


_STATE_CODES = {
    HostState.HEALTHY: 0,
    HostState.SUSPECT: 1,
    HostState.QUARANTINED: 2,
    HostState.DRAINING: 3,
    HostState.PROBATION: 4,
}


@dataclass(frozen=True)
class HealthConfig:
    """Tunables of the monitor and its per-host detectors."""

    #: Detector window (see PhiAccrualDetector).
    window: int = 64


class HostHealth:
    """One host's detector, lifecycle state, and transition history."""

    def __init__(self, name: str, engine, config: HealthConfig) -> None:
        self.name = name
        self.engine = engine
        self.config = config
        self.state = HostState.HEALTHY
        self.detector = PhiAccrualDetector(
            window=config.window,
            min_std_ms=MIN_STD_MS,
            bootstrap_interval_ms=HEARTBEAT_INTERVAL_MS,
        )
        #: Consecutive clean evaluations while SUSPECT.
        self.clean_evals = 0
        #: On-time heartbeats received while in PROBATION.
        self.probation_progress = 0
        #: ``(sim_time, from_state, to_state)`` transition log.
        self.transitions: List[Tuple[float, HostState, HostState]] = []

    @property
    def is_slow(self) -> bool:
        """Gray-slowdown signal: heartbeats arrive but far too slowly."""
        return (
            self.detector.n_intervals >= 2
            and self.detector.mean_interval_ms
            > SLOW_FACTOR * HEARTBEAT_INTERVAL_MS
        )

    def routing_weight(self) -> float:
        """Probabilistic routing weight in [0, 1] (1.0 = full share).

        HEALTHY hosts weigh 1.0; PROBATION hosts ramp linearly with
        their on-time heartbeat count so reintroduction is gradual; all
        other states are unroutable and weigh 0.
        """
        if self.state is HostState.HEALTHY:
            return 1.0
        if self.state is HostState.PROBATION:
            return (self.probation_progress + 1) / (PROBATION_HEARTBEATS + 1)
        return 0.0

    @property
    def probation_done(self) -> bool:
        """Whether enough on-time heartbeats ended the probation ramp."""
        return self.probation_progress >= PROBATION_HEARTBEATS

    def transition_to(self, state: HostState, now: float) -> HostState:
        """Move to ``state``, logging the edge; returns the old state."""
        old = self.state
        if state is not old:
            self.state = state
            self.transitions.append((now, old, state))
            if state is HostState.PROBATION:
                self.probation_progress = 0
            if state is not HostState.SUSPECT:
                self.clean_evals = 0
        return old

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HostHealth {self.name} {self.state.value}>"
