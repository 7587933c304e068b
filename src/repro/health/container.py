"""Per-container health: aging, contamination, and recycle verdicts.

The host health plane (``repro.health.lifecycle``) decides whether a
*machine* should receive work; this module makes the same decision one
level down, for each pooled container runtime.  Long-lived reuse — the
paper's whole mechanism — is exactly where containers rot: leaked RSS
per reuse, dirty interpreter state after an exec, compounding slowdown,
crash loops.  A container's condition is two flags on the container
itself, so it survives a control-plane crash that wipes the plane's
records:

* serving — neither flag set.
* ``tainted`` (SUSPECT) — the EWMA latency residual against the key's
  baseline drifted past ``RESIDUAL_THRESHOLD``: the container stops
  serving and stops donating but stays pooled until the recycle loop
  drains it.
* ``condemned`` (QUARANTINED, implies ``tainted``) — hard evidence (an
  exec failure, leaked RSS past ``RSS_LIMIT_MB``, or a recycle verdict):
  the container is pulled from every availability index
  (``ContainerRuntimePool.quarantine``) and never serves again; its
  recycle destroys it and a paired prewarm replaces it.

Everything here is pure bookkeeping — no RNG, no simulator events (the
plane reads the simulator only for its clock and observatory) — so an
attached-but-unused plane cannot perturb a run.  The plane also queues
condemned containers and paces their recycling with a token bucket;
HotC destroys what the plane hands out.  The plane is only
constructed when ``HotCConfig.container_health`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.containers.container import Container
from repro.obs.events import EventKind

__all__ = [
    "ContainerHealth",
    "ContainerHealthConfig",
    "ContainerHealthPlane",
]


#: EWMA weight of the newest latency residual sample.
EWMA_ALPHA = 0.3
#: EWMA residual (observed / key baseline) above which a container is
#: tainted.
RESIDUAL_THRESHOLD = 2.0
#: Execs a container must have served before residual verdicts engage
#: (lets the key baseline stabilise).
SUSPECT_AFTER = 3
#: Absolute leaked RSS (MB) that condemns immediately.
RSS_LIMIT_MB = 256.0
#: Cost (ms) of sanitizing a poisoned donor during a repurpose re-spec
#: (paid instead of carrying the poison to the new key).
SANITIZE_MS = 25.0
#: Recycle a container older than this (ms).
MAX_AGE_MS = 3_600_000.0
#: Token-bucket recycle rate limit: sustained recycles per second...
RECYCLE_RATE_PER_S = 2.0
#: ...and the burst the bucket can accumulate.
RECYCLE_BURST = 4

#: The counter every container lifecycle transition bumps.
_TRANSITIONS_TOTAL = "container_lifecycle_transitions_total"
_TRANSITIONS_HELP = "Container health-plane lifecycle transitions"


@dataclass(frozen=True)
class ContainerHealthConfig:
    """Tunables of the container health plane (HotC opt-in).

    The defaults are deliberately conservative: a reuse cap that a
    day-scale run rarely hits (as is ``MAX_AGE_MS``) and a leak slope
    well above a healthy container's RSS drift.  A single exec failure always condemns a
    container: the watchdog has already discarded it, so a second
    chance would mean serving another request on known-bad state.
    """

    #: Recycle a container after this many execs (``None`` disables).
    max_reuses: Optional[int] = 200
    #: Detected per-reuse RSS growth (MB/exec) that marks a leak.
    leak_slope_mb: float = 4.0

    def __post_init__(self) -> None:
        if self.max_reuses is not None and self.max_reuses < 1:
            raise ValueError("max_reuses must be >= 1 (or None)")
        if self.leak_slope_mb <= 0:
            raise ValueError("leak_slope_mb must be > 0")


class ContainerHealth:
    """Evidence about one container under one key; the verdicts live on
    the container's flags."""

    __slots__ = ("key", "residual_ewma")

    def __init__(self, key) -> None:
        self.key = key
        #: EWMA of (observed exec latency / key baseline); 1.0 = on
        #: baseline.
        self.residual_ewma = 1.0


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
        self.tokens = float(RECYCLE_BURST)
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
            record = ContainerHealth(key)
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
        ``container.rss_mb``; updates the key baseline and the residual
        EWMA, and may taint or condemn the container.
        """
        record = self.track(container, key)
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
                    EWMA_ALPHA * residual
                    + (1.0 - EWMA_ALPHA) * record.residual_ewma
                )
            self._baselines[key] = (
                EWMA_ALPHA * observed + (1.0 - EWMA_ALPHA) * baseline
            )
        if container.rss_mb >= RSS_LIMIT_MB:
            self.condemn(container, record, now, reason="rss_limit")
        elif (
            not container.tainted
            and container.exec_count >= SUSPECT_AFTER
            and record.residual_ewma > RESIDUAL_THRESHOLD
        ):
            self._demote(container, record, now, reason="residual")
        return record

    def observe_failure(
        self, container: Container, key, now: float
    ) -> ContainerHealth:
        """Fold an exec failure in: one failure condemns."""
        record = self.track(container, key)
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
        # The flags are carried on the container itself, so the verdict
        # survives a control-plane crash that wiped the records.
        if container.condemned:
            return "quarantined"
        if container.tainted:
            return "suspect"
        if (
            config.max_reuses is not None
            and container.exec_count >= config.max_reuses
        ):
            return "max_reuses"
        if now - container.created_at >= MAX_AGE_MS:
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
        ``SANITIZE_MS`` instead of carrying the contamination to the
        new key.
        """
        self._records.pop(container.container_id, None)
        self.track(container, key)
        if container.poisoned:
            container.poisoned = False
            return SANITIZE_MS
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
            elapsed = self.sim.now - self._refill_at
            if elapsed > 0.0:
                self.tokens = min(
                    float(RECYCLE_BURST),
                    self.tokens + RECYCLE_RATE_PER_S * elapsed / 1000.0,
                )
                self._refill_at = self.sim.now
        while self.queue:
            if paced:
                if self.tokens < 1.0:
                    return
                self.tokens -= 1.0
            yield self.queue.pop(0)

    # -- flag setters --------------------------------------------------------
    def _demote(
        self,
        container: Container,
        record: ContainerHealth,
        now: float,
        reason: str,
    ) -> None:
        """Taint the container: it stops serving until recycled."""
        container.tainted = True
        self.suspects += 1
        obs = self.sim.obs
        if obs is not None:
            to = "suspect"
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
        """Condemn the container: it never serves again.  A container
        with no evidence yet gets a record under its image."""
        if record is None:
            record = self.track(container, container.config.image)
        if container.condemned:
            return
        container.tainted = True
        container.condemned = True
        self.quarantines += 1
        obs = self.sim.obs
        if obs is not None:
            to = "quarantined"
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
        self.recycles += 1
        obs = self.sim.obs
        if obs is not None:
            record = self._records.get(container.container_id)
            to = "recycling"
            obs.record(
                EventKind.CONTAINER_RECYCLED, now, _TRANSITIONS_TOTAL,
                _TRANSITIONS_HELP, {"host": self.host, "to": to},
                host=self.host,
                key=str(record.key) if record is not None else "",
                container=container.container_id, state=to, reason=reason,
            )
