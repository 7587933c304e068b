"""Per-container health: aging, contamination, and recycle verdicts.

The host health plane (``repro.health.lifecycle``) decides whether a
*machine* should receive work; this module makes the same decision one
level down, for each pooled container runtime.  Long-lived reuse — the
paper's whole mechanism — is exactly where containers rot: leaked RSS
per reuse, dirty interpreter state after an exec, compounding slowdown,
crash loops.  Each container therefore carries a lifecycle FSM::

    FRESH -> WARM -> SUSPECT -> QUARANTINED -> RECYCLING

* **FRESH** — just booted, not yet proven (first execs).
* **WARM** — serving normally; the steady state.
* **SUSPECT** — the EWMA latency residual against the key's baseline
  drifted past the threshold: the container stops serving and stops
  donating (``Container.tainted``) but stays pooled until the recycle
  loop drains it.
* **QUARANTINED** — hard evidence (exec failure tripping the
  per-container breaker, or leaked RSS past the hard limit): the
  container is pulled from every availability index
  (``ContainerRuntimePool.quarantine``) and never serves again
  (``Container.condemned``).
* **RECYCLING** — being destroyed; a paired prewarm replaces it.

The per-container crash-loop breaker is a
:class:`~repro.core.breaker.CircuitBreaker` *distinct from* HotC's
per-key breakers: the per-key breaker protects the boot path of a
runtime type, this one condemns an individual contaminated container.

Everything here is pure bookkeeping — no RNG, no simulator events (the
plane reads the simulator only for its clock and observatory) — so an
attached-but-unused plane cannot perturb a run.  The plane also queues
condemned containers and paces their recycling with a token bucket;
HotC destroys what the plane hands out.  The plane is only
constructed when ``HotCConfig.container_health`` is set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.containers.container import Container
from repro.core.breaker import CircuitBreaker
from repro.obs.events import EventKind

__all__ = [
    "ContainerCondition",
    "ContainerHealth",
    "ContainerHealthConfig",
    "ContainerHealthPlane",
]


#: Cooldown of the per-container crash-loop breaker (quarantine is
#: terminal, so this only shapes the breaker's internal bookkeeping).
CONTAINER_BREAKER_COOLDOWN_MS = 60_000.0

#: The counter every container lifecycle transition bumps.
_TRANSITIONS_TOTAL = "container_lifecycle_transitions_total"
_TRANSITIONS_HELP = "Container health-plane lifecycle transitions"

_CONDITION_CODES = {
    "FRESH": 0,
    "WARM": 1,
    "SUSPECT": 2,
    "QUARANTINED": 3,
    "RECYCLING": 4,
}


class ContainerCondition(enum.Enum):
    """Lifecycle states of one pooled container runtime."""

    FRESH = "fresh"
    WARM = "warm"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    RECYCLING = "recycling"

    @property
    def code(self) -> int:
        """Stable numeric code (gauge value; FSM order)."""
        return _CONDITION_CODES[self.name]

    @property
    def serving(self) -> bool:
        """Whether the container may serve requests in this state."""
        return self in (ContainerCondition.FRESH, ContainerCondition.WARM)


@dataclass(frozen=True)
class ContainerHealthConfig:
    """Tunables of the container health plane (HotC opt-in).

    The defaults are deliberately conservative: bounded-reuse caps that
    a day-scale run rarely hits, a residual threshold well above normal
    jitter, and a single exec failure condemning a container (after a
    failure the watchdog has already discarded it, so a second chance
    would mean serving another request on known-bad state).
    """

    #: Recycle a container after this many execs (``None`` disables).
    max_reuses: Optional[int] = 200
    #: Recycle a container older than this (``None`` disables).
    max_age_ms: Optional[float] = 3_600_000.0
    #: Successful execs before FRESH graduates to WARM.
    warm_after: int = 1
    #: EWMA weight of the newest latency residual sample.
    ewma_alpha: float = 0.3
    #: EWMA residual (observed / key baseline) above which a container
    #: turns SUSPECT.
    residual_threshold: float = 2.0
    #: Execs a container must have served before residual verdicts
    #: engage (lets the key baseline stabilise).
    suspect_after: int = 3
    #: Detected per-reuse RSS growth (MB/exec) that marks a leak.
    leak_slope_mb: float = 4.0
    #: Absolute leaked RSS (MB) that quarantines immediately.
    rss_limit_mb: float = 256.0
    #: Exec failures before the per-container crash-loop breaker opens
    #: and the container is quarantined.
    breaker_threshold: int = 1
    #: Token-bucket recycle rate limit: sustained recycles per second...
    recycle_rate_per_s: float = 2.0
    #: ...and the burst the bucket can accumulate.
    recycle_burst: int = 4
    #: Cost (ms) of sanitizing a poisoned donor during a repurpose
    #: re-spec (paid instead of carrying the poison to the new key).
    sanitize_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.max_reuses is not None and self.max_reuses < 1:
            raise ValueError("max_reuses must be >= 1 (or None)")
        if self.max_age_ms is not None and self.max_age_ms <= 0:
            raise ValueError("max_age_ms must be > 0 (or None)")
        if self.warm_after < 1:
            raise ValueError("warm_after must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.residual_threshold <= 1.0:
            raise ValueError("residual_threshold must be > 1")
        if self.suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        if self.leak_slope_mb <= 0:
            raise ValueError("leak_slope_mb must be > 0")
        if self.rss_limit_mb <= 0:
            raise ValueError("rss_limit_mb must be > 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.recycle_rate_per_s <= 0:
            raise ValueError("recycle_rate_per_s must be > 0")
        if self.recycle_burst < 1:
            raise ValueError("recycle_burst must be >= 1")
        if self.sanitize_ms < 0:
            raise ValueError("sanitize_ms must be >= 0")


class ContainerHealth:
    """Health record of one container: FSM state plus evidence."""

    def __init__(
        self, container: Container, key, config: ContainerHealthConfig
    ) -> None:
        self.container = container
        self.key = key
        self.state = ContainerCondition.FRESH
        #: EWMA of (observed exec latency / key baseline); 1.0 = on
        #: baseline.
        self.residual_ewma = 1.0
        #: Per-container crash-loop breaker (distinct from the per-key
        #: boot breakers).
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown_ms=CONTAINER_BREAKER_COOLDOWN_MS,
        )
        #: ``(now, old, new)`` transition log.
        self.transitions: List[Tuple[float, ContainerCondition, ContainerCondition]] = []

    def transition_to(
        self, state: ContainerCondition, now: float
    ) -> ContainerCondition:
        """Move to ``state``; returns the state left."""
        old = self.state
        if state is old:
            return old
        self.state = state
        self.transitions.append((now, old, state))
        return old


class ContainerHealthPlane:
    """Per-host manager of container health records.

    Fed by HotC at release (success evidence) and discard (failure
    evidence) time; hands back recycle verdicts, queues the condemned
    and paces their recycling with a token bucket.  The plane mutates
    only its own records and queue and the containers'
    ``tainted``/``condemned`` flags — pool index surgery, the destroy,
    its paired prewarm and the pool close-out stay in HotC, which owns
    those structures.
    """

    def __init__(
        self, config: ContainerHealthConfig, sim, host: str = ""
    ) -> None:
        self.config = config
        self.sim = sim
        self.host = host
        #: Quarantined ``(container, key, reason)`` triples awaiting
        #: their token-bucket-limited recycle.
        self.queue: List[tuple] = []
        #: Recycle token bucket: starts full so the first verdicts act
        #: immediately; refilled lazily from sim-time deltas.
        self.tokens = float(config.recycle_burst)
        self._refill_at = 0.0
        self.reset()

    def reset(self) -> None:
        """Lose the records, key baselines, counters and recycle queue (a
        control-plane crash).  The token bucket keeps pacing across it."""
        self._records: Dict[str, ContainerHealth] = {}
        #: Per-key EWMA baseline of successful exec latency (ms).
        self._baselines: Dict[object, float] = {}
        self.suspects = 0
        self.quarantines = 0
        self.recycles = 0
        self.queue.clear()

    # -- record management ---------------------------------------------------
    def track(self, container: Container, key) -> ContainerHealth:
        """The container's record, created lazily on first evidence."""
        record = self._records.get(container.container_id)
        if record is None or record.key != key:
            record = ContainerHealth(container, key, self.config)
            self._records[container.container_id] = record
        return record

    def record_of(self, container: Container) -> Optional[ContainerHealth]:
        """The container's record, if any evidence was ever recorded."""
        return self._records.get(container.container_id)

    def forget(self, container: Container) -> None:
        """Drop the record of a destroyed container."""
        self._records.pop(container.container_id, None)

    def baseline(self, key) -> Optional[float]:
        """The key's current exec-latency baseline (ms), if known."""
        return self._baselines.get(key)

    # -- evidence ------------------------------------------------------------
    def observe_success(
        self, container: Container, key, now: float
    ) -> ContainerHealth:
        """Fold a successful exec into the container's score.

        Reads ``container.last_exec_ms`` (stamped by the engine) and
        ``container.rss_mb``; updates the key baseline, the residual
        EWMA, and the FSM.
        """
        config = self.config
        record = self.track(container, key)
        record.breaker.record_success()
        observed = container.last_exec_ms
        baseline = self._baselines.get(key)
        if baseline is None:
            self._baselines[key] = observed
        else:
            if baseline > 0.0:
                # Residual against the *prior* expectation, then fold
                # the new sample into the baseline.
                residual = observed / baseline
                record.residual_ewma = (
                    config.ewma_alpha * residual
                    + (1.0 - config.ewma_alpha) * record.residual_ewma
                )
            self._baselines[key] = (
                config.ewma_alpha * observed
                + (1.0 - config.ewma_alpha) * baseline
            )
        if (
            record.state is ContainerCondition.FRESH
            and container.exec_count >= config.warm_after
        ):
            record.transition_to(ContainerCondition.WARM, now)
        if container.rss_mb >= config.rss_limit_mb:
            self.condemn(container, record, now, reason="rss_limit")
        elif (
            record.state.serving
            and container.exec_count >= config.suspect_after
            and record.residual_ewma > config.residual_threshold
        ):
            self._demote(container, record, now, reason="residual")
        return record

    def observe_failure(
        self, container: Container, key, now: float
    ) -> ContainerHealth:
        """Fold an exec failure in; opens the per-container breaker."""
        record = self.track(container, key)
        record.breaker.record_failure(now)
        if record.breaker.is_open(now) or not record.state.serving:
            self.condemn(container, record, now, reason="breaker")
        return record

    # -- verdicts ------------------------------------------------------------
    def recycle_reason(
        self, container: Container, now: float
    ) -> Optional[str]:
        """Why the container should be recycled now, or ``None``.

        Checked by HotC at release time and each control tick:
        quarantine and suspicion verdicts first, then the proactive
        bounded-reuse caps and the leak-slope detector.
        """
        config = self.config
        record = self._records.get(container.container_id)
        if container.condemned or (
            record is not None
            and record.state is ContainerCondition.QUARANTINED
        ):
            # ``condemned`` is carried on the container itself, so the
            # verdict survives a control-plane crash that wiped records.
            return "quarantined"
        if container.tainted or (
            record is not None and record.state is ContainerCondition.SUSPECT
        ):
            return "suspect"
        if (
            config.max_reuses is not None
            and container.exec_count >= config.max_reuses
        ):
            return "max_reuses"
        if (
            config.max_age_ms is not None
            and now - container.created_at >= config.max_age_ms
        ):
            return "max_age"
        if container.exec_count > 0:
            # RSS trajectory: observed growth per completed exec.
            slope = container.rss_mb / container.exec_count
            if slope >= config.leak_slope_mb:
                return "leak"
        return None

    def note_respec(self, container: Container, key, now: float) -> float:
        """Post-repurpose hygiene: returns the sanitize cost (ms) to pay.

        A re-specialised donor starts a fresh record under its new key;
        a poisoned donor has its dirty state scrubbed for
        ``sanitize_ms`` instead of carrying the contamination to the
        new key.
        """
        self._records.pop(container.container_id, None)
        self.track(container, key)
        if container.poisoned:
            container.poisoned = False
            return self.config.sanitize_ms
        return 0.0

    # -- recycle pacing ------------------------------------------------------
    def queue_recycle(self, container: Container, key, reason: str, now: float) -> None:
        """Condemn the container (if not already) and queue its recycle."""
        self.condemn(container, self.record_of(container), now, reason=reason)
        self.queue.append((container, key, reason))

    def drain(self, paced: bool = True) -> Generator:
        """Hand out queued ``(container, key, reason)`` recycles in order.

        Paced, the bucket is refilled once, when the drain starts, and a
        token is spent before each item is handed out; items the bucket
        cannot cover stay queued for the next drain.  Unpaced (a
        shutdown), the whole queue is handed out.  Overlapping drains
        are safe: each item is popped exactly once.
        """
        if paced:
            config = self.config
            elapsed = self.sim.now - self._refill_at
            if elapsed > 0.0:
                self.tokens = min(
                    float(config.recycle_burst),
                    self.tokens + config.recycle_rate_per_s * elapsed / 1000.0,
                )
                self._refill_at = self.sim.now
        while self.queue:
            if paced:
                if self.tokens < 1.0:
                    return
                self.tokens -= 1.0
            yield self.queue.pop(0)

    # -- transitions ---------------------------------------------------------
    def _demote(
        self,
        container: Container,
        record: ContainerHealth,
        now: float,
        reason: str,
    ) -> None:
        if record.state is ContainerCondition.SUSPECT:
            return
        record.transition_to(ContainerCondition.SUSPECT, now)
        container.tainted = True
        self.suspects += 1
        obs = self.sim.obs
        if obs is not None:
            to = record.state.value
            obs.record(
                EventKind.CONTAINER_SUSPECT, now, _TRANSITIONS_TOTAL, _TRANSITIONS_HELP,
                {"host": self.host, "to": to}, host=self.host,
                key=str(record.key), container=container.container_id,
                state=to, reason=reason,
            )

    def condemn(
        self,
        container: Container,
        record: Optional[ContainerHealth],
        now: float,
        reason: str,
    ) -> None:
        """Mark the container QUARANTINED: it never serves again."""
        if record is None:
            record = self.track(container, container.config.image)
        if record.state is ContainerCondition.QUARANTINED:
            return
        record.transition_to(ContainerCondition.QUARANTINED, now)
        container.tainted = True
        container.condemned = True
        self.quarantines += 1
        obs = self.sim.obs
        if obs is not None:
            to = record.state.value
            obs.record(
                EventKind.CONTAINER_QUARANTINED, now, _TRANSITIONS_TOTAL, _TRANSITIONS_HELP,
                {"host": self.host, "to": to}, host=self.host,
                key=str(record.key), container=container.container_id,
                state=to, reason=reason,
            )

    def note_recycling(
        self, container: Container, now: float, reason: str
    ) -> None:
        """Record the start of the container's recycle (terminal)."""
        record = self._records.get(container.container_id)
        if record is not None:
            record.transition_to(ContainerCondition.RECYCLING, now)
        self.recycles += 1
        obs = self.sim.obs
        if obs is not None:
            to = ContainerCondition.RECYCLING.value
            obs.record(
                EventKind.CONTAINER_RECYCLED, now, _TRANSITIONS_TOTAL,
                _TRANSITIONS_HELP, {"host": self.host, "to": to},
                host=self.host,
                key=str(record.key) if record is not None else "",
                container=container.container_id, state=to, reason=reason,
            )
