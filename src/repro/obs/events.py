"""Typed, append-only event log + the Observatory facade.

Every interesting state transition along the request path is recorded
as an :class:`ObsEvent` at sim time: boot start/end, pool hit/miss/
evict, cleanup, prewarm, circuit-breaker transitions, host failover,
and the control-loop tick (with forecast-vs-realized demand).  The log
is a bounded ring buffer, so a long-running gateway cannot grow it
without limit — the ``dropped`` counter says how many early events were
displaced.

The :class:`Observatory` bundles the event log with a
:class:`~repro.obs.registry.MetricsRegistry`.  A run holds one, in its
simulator's ``obs`` slot (``None`` by default).  Hook sites follow one
idiom::

    obs = self.sim.obs
    if obs is not None:
        obs.record(EventKind.CLEANUP, now, "cleanups_total", help, labels, ...)

so an unobserved run takes exactly one pointer comparison per hook and
allocates nothing.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = ["EventKind", "EventLog", "ObsEvent", "Observatory"]

#: Events an :class:`EventLog` keeps before it displaces the oldest.
EVENT_CAPACITY = 65_536


class EventKind(enum.Enum):
    """The event taxonomy (DESIGN.md §7)."""

    #: Engine started booting a container (cold or prewarm).
    BOOT_START = "boot_start"
    #: Boot finished (``ok`` false on failure, with the error class).
    BOOT_END = "boot_end"
    #: Pool lookup served a warm container.
    POOL_HIT = "pool_hit"
    #: Pool lookup missed; a cold boot follows.
    POOL_MISS = "pool_miss"
    #: An exact-key miss was served by a relaxed-key match instead
    #: (config delta applied to a similar container).
    POOL_RELAXED_HIT = "pool_relaxed_hit"
    #: An idle donor container of a different key was re-specialized
    #: for the requested key (``donor``/``score``/``cost_ms``).
    REPURPOSE = "repurpose"
    #: An idle container was evicted (``reason``: capacity/pressure/scale_down).
    POOL_EVICT = "pool_evict"
    #: Algorithm 2 ran: volume wiped, container recycled into the pool.
    CLEANUP = "cleanup"
    #: The control loop requested a predictive pre-boot.
    PREWARM = "prewarm"
    #: A circuit breaker changed state (``from``/``to``).
    BREAKER = "breaker"
    #: The cluster scheduler re-routed a request off a failed host.
    FAILOVER = "failover"
    #: One control-loop tick: realized demand vs the previous forecast.
    CONTROL_TICK = "control_tick"
    #: A request reached a terminal outcome at the gateway.
    REQUEST_DONE = "request_done"
    #: Admission control accepted a request (``queued`` true when it
    #: waited in the admission queue first).
    ADMIT = "admit"
    #: Admission control rejected a request (``reason``:
    #: queue_full/brownout/shutdown).
    SHED = "shed"
    #: A request blew its deadline (while queued, or out of retry budget).
    DEADLINE_MISS = "deadline_miss"
    #: A host entered brownout (memory pressure / container-cap trip).
    BROWNOUT_ENTER = "brownout_enter"
    #: A host left brownout (pressure cleared past the hysteresis margin).
    BROWNOUT_EXIT = "brownout_exit"
    #: The failure detector marked a host suspect (phi over the suspect
    #: threshold, or persistent gray slowdown).
    HOST_SUSPECT = "host_suspect"
    #: A host was quarantined (``state`` distinguishes ``quarantined``
    #: from the subsequent ``draining``); it stops receiving new work.
    HOST_QUARANTINED = "host_quarantined"
    #: A host came back (``state``: ``probation`` for the gradual
    #: weighted reintroduction, ``healthy`` for full restoration).
    HOST_RECOVERED = "host_recovered"
    #: The recovery manager snapshotted the control-plane state
    #: (``version``/``entries``).
    CHECKPOINT = "checkpoint"
    #: A control-plane crash or recovery completed (``phase``:
    #: ``crash``/``recover``, with repair counts on recover).
    RECOVERY = "recovery"
    #: One anti-entropy repair action (``action``: adopted_busy/
    #: adopted_idle/retired_orphan/purged_phantom/...).
    REPAIR = "repair"
    #: The container health plane demoted a container to SUSPECT
    #: (``reason``: residual/..; it stops serving and donating).
    CONTAINER_SUSPECT = "container_suspect"
    #: A container was quarantined (``reason``: breaker/rss/...); it is
    #: out of every availability index and will never serve again.
    CONTAINER_QUARANTINED = "container_quarantined"
    #: A container's recycle completed: it was destroyed and (outside
    #: brownout) replaced by a paired prewarm (``reason`` carries the
    #: recycle trigger: max_reuses/max_age/leak/suspect/quarantined).
    CONTAINER_RECYCLED = "container_recycled"


@dataclass(frozen=True)
class ObsEvent:
    """One recorded occurrence, stamped with simulated time (ms)."""

    t: float
    kind: EventKind
    host: str = ""
    key: str = ""
    #: Sorted ``(field, value)`` pairs; values are JSON-serialisable.
    data: Tuple[Tuple[str, object], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """Flat dict form used by the JSONL exporter."""
        record: Dict[str, object] = {"t": self.t, "kind": self.kind.value}
        if self.host:
            record["host"] = self.host
        if self.key:
            record["key"] = self.key
        record.update(self.data)
        return record


class EventLog:
    """Bounded, append-only ring of :class:`ObsEvent`.

    Appending past ``EVENT_CAPACITY`` displaces the oldest event; ``dropped``
    counts the displaced so exporters can flag truncation explicitly
    instead of silently presenting a partial log as complete.
    """

    def __init__(self) -> None:
        self._events: Deque[ObsEvent] = deque(maxlen=EVENT_CAPACITY)
        self._appended = 0

    def append(self, event: ObsEvent) -> None:
        """Record one event (O(1), displacing the oldest when full)."""
        self._events.append(event)
        self._appended += 1

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self._events)

    @property
    def total_appended(self) -> int:
        """Events ever appended (including displaced ones)."""
        return self._appended

    @property
    def dropped(self) -> int:
        """Events displaced by the capacity bound."""
        return self._appended - len(self._events)

    def counts_by_kind(self) -> Dict[str, int]:
        """Retained events per kind value (diagnostics)."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
        return counts

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest first."""
        return "".join(
            json.dumps(event.as_dict(), sort_keys=True) + "\n"
            for event in self._events
        )


class Observatory:
    """Registry + event log, shared by every instrumented component.

    One Observatory serves a whole platform (single host or cluster);
    per-host series are distinguished by the ``host`` label/field the
    hook sites stamp.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.events = EventLog()

    def emit(
        self,
        kind: EventKind,
        t: float,
        host: str = "",
        key: str = "",
        **data,
    ) -> None:
        """Append one typed event at sim time ``t``."""
        self.events.append(
            ObsEvent(
                t=t,
                kind=kind,
                host=host,
                key=key,
                data=tuple(sorted(data.items())),
            )
        )

    def record(
        self,
        kind: EventKind,
        t: float,
        counter: str,
        help: str,
        labels: Dict[str, object],
        host: str = "",
        key: str = "",
        **data,
    ) -> None:
        """Append one event, then bump its counter ``counter{labels}``.

        The counter's labels are given in full: they need not repeat
        the event's ``host`` or ``key``.
        """
        self.emit(kind, t, host, key, **data)
        self.registry.counter(counter, help=help, **labels).inc()

    # -- registry shorthands (keep hook sites one-liners) --------------------
    def counter(self, name: str, **labels):
        """Shorthand for ``registry.counter``."""
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels):
        """Shorthand for ``registry.gauge``."""
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, bounds: Optional[Tuple[float, ...]] = None, **labels):
        """Shorthand for ``registry.histogram``."""
        if bounds is None:
            return self.registry.histogram(name, **labels)
        return self.registry.histogram(name, bounds=bounds, **labels)
