"""The health monitor: heartbeat pumps + lifecycle transitions.

One :class:`HealthMonitor` serves a whole cluster.  Each registered
host gets a simulated heartbeat pump process: every
``HEARTBEAT_INTERVAL_MS`` the pump delivers a heartbeat to the host's
phi-accrual detector — unless the host is unreachable (outage or
partition) or its injector says heartbeats are lost, in which case the
detector sees silence and phi accrues.  A gray-slowed host delivers
heartbeats late (scaled by the injector's latency multiplier), which
the detector learns as a grown mean interval and the lifecycle flags
via ``SLOW_FACTOR``.

After every delivery (or missed delivery) the monitor evaluates the
host's lifecycle state machine (see :mod:`repro.health.lifecycle`) and
emits ``HOST_SUSPECT`` / ``HOST_QUARANTINED`` / ``HOST_RECOVERED``
events plus a per-host lifecycle-state gauge through the observatory.

:meth:`attach` registers every host of a cluster with its
``drain_lost`` hook and takes the simulator's ``health`` slot.  The
cluster reads ``sim.health``: it consults :meth:`routable` when picking
hosts and :meth:`routing_weight` to reintroduce probation hosts
gradually; a host entering DRAINING fires its registered drain hook
(the host drops pool metadata and absorbs pending prewarm boots there).

Strictly opt-in: with the slot empty the cluster routes by its binary
down-set alone and no pump process exists.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from repro.health.lifecycle import (
    DRAIN_PHI,
    HEARTBEAT_INTERVAL_MS,
    QUARANTINE_PHI,
    RECOVER_EVALS,
    SUSPECT_PHI,
    HealthConfig,
    HostHealth,
    HostState,
)
from repro.obs.events import EventKind

__all__ = ["HealthMonitor"]

#: Which event kind announces entry into each state.
_TRANSITION_EVENTS = {
    HostState.SUSPECT: EventKind.HOST_SUSPECT,
    HostState.QUARANTINED: EventKind.HOST_QUARANTINED,
    HostState.DRAINING: EventKind.HOST_QUARANTINED,
    HostState.PROBATION: EventKind.HOST_RECOVERED,
    HostState.HEALTHY: EventKind.HOST_RECOVERED,
}


class HealthMonitor:
    """Phi-accrual health tracking for a set of hosts."""

    def __init__(self, sim, config: Optional[HealthConfig] = None) -> None:
        self.sim = sim
        self.config = config or HealthConfig()
        self.hosts: Dict[str, HostHealth] = {}
        self._on_drain: Dict[str, Callable[[], None]] = {}
        self._running = False
        #: Bumped on every start so stale pump processes exit.
        self._generation = 0

    # -- registration ------------------------------------------------------
    def attach(self, hosts) -> None:
        """Watch each per-host HotC in ``hosts`` and take the simulator's
        ``health`` slot.

        A host is tracked under its engine's name, and its
        ``drain_lost`` runs when the detector drains it.
        """
        for host in hosts:
            self.register_host(
                host.engine.name, host.engine, on_drain=host.drain_lost
            )
        self.sim.health = self

    def register_host(
        self,
        name: str,
        engine,
        on_drain: Optional[Callable[[], None]] = None,
    ) -> HostHealth:
        """Track ``engine`` under ``name``; idempotent per name.

        ``on_drain`` fires when the host enters DRAINING through the
        detector (the cluster drops its pool metadata there).
        """
        health = self.hosts.get(name)
        if health is None:
            health = HostHealth(name, engine, self.config)
            self.hosts[name] = health
        if on_drain is not None:
            self._on_drain[name] = on_drain
        return health

    # -- pump lifecycle ----------------------------------------------------
    def start(self) -> None:
        """Spawn one heartbeat pump per registered host; idempotent."""
        if self._running:
            return
        self._running = True
        self._generation += 1
        now = self.sim.now
        for name in sorted(self.hosts):
            health = self.hosts[name]
            # Seed the detector so the first evaluation has a baseline.
            health.detector.heartbeat(now)
            self.sim.process(
                self._pump(health, self._generation),
                name=f"heartbeat:{name}",
            )

    def stop(self) -> None:
        """Stop every pump after its in-flight interval."""
        self._running = False
        self._generation += 1

    def _pump(self, health: HostHealth, generation: int) -> Generator:
        interval = HEARTBEAT_INTERVAL_MS
        while self._running and generation == self._generation:
            yield interval
            if not self._running or generation != self._generation:
                break
            engine = health.engine
            injector = engine.fault_injector
            lost = engine.is_unreachable or (
                injector is not None and injector.heartbeats_lost
            )
            if not lost:
                multiplier = (
                    injector.latency_multiplier if injector is not None else 1.0
                )
                if multiplier > 1.0:
                    # Gray slowdown: the heartbeat arrives late, so the
                    # detector learns a stretched inter-arrival mean.
                    yield interval * (multiplier - 1.0)
                    if not self._running or generation != self._generation:
                        break
                health.detector.heartbeat(self.sim.now)
                self._note_heartbeat(health)
            self.evaluate(health, self.sim.now)

    # -- cluster-facing queries --------------------------------------------
    def state(self, name: str) -> HostState:
        """Lifecycle state of ``name`` (HEALTHY when unregistered)."""
        health = self.hosts.get(name)
        return health.state if health is not None else HostState.HEALTHY

    def routable(self, name: str) -> bool:
        """Whether the cluster may route new work at ``name``."""
        return self.state(name).routable

    def routing_weight(self, name: str) -> float:
        """Routing weight in [0, 1]; probation hosts ramp gradually."""
        health = self.hosts.get(name)
        return health.routing_weight() if health is not None else 1.0

    def states(self) -> Dict[str, HostState]:
        """Snapshot of every host's lifecycle state."""
        return {name: h.state for name, h in self.hosts.items()}

    # -- data-plane evidence ------------------------------------------------
    def on_host_down(self, name: str) -> None:
        """A request observed the host down: skip straight to DRAINING.

        Called by the cluster scheduler when an acquire raised
        :class:`~repro.faults.errors.HostDownError` — confirmed
        unreachability beats any phi estimate.  The cluster has already
        drained the host's pool metadata, so the drain hook is not
        re-fired.
        """
        health = self.hosts.get(name)
        if health is None or health.state is HostState.DRAINING:
            return
        self._transition(health, HostState.DRAINING, fire_drain=False)

    # -- the state machine --------------------------------------------------
    def _note_heartbeat(self, health: HostHealth) -> None:
        """A heartbeat arrived; advance a probation ramp if one is on."""
        if health.state is HostState.PROBATION:
            health.probation_progress += 1
            if health.probation_done:
                self._transition(health, HostState.HEALTHY)

    def evaluate(self, health: HostHealth, now: float) -> None:
        """One evaluation of the lifecycle machine against phi."""
        phi = health.detector.phi(now)
        slow = health.is_slow
        state = health.state
        if state is HostState.HEALTHY:
            if phi >= QUARANTINE_PHI:
                self._transition(health, HostState.QUARANTINED)
            elif phi >= SUSPECT_PHI or slow:
                self._transition(health, HostState.SUSPECT)
        elif state is HostState.SUSPECT:
            if phi >= QUARANTINE_PHI:
                self._transition(health, HostState.QUARANTINED)
            elif phi < SUSPECT_PHI and not slow:
                health.clean_evals += 1
                if health.clean_evals >= RECOVER_EVALS:
                    self._transition(health, HostState.HEALTHY)
            else:
                health.clean_evals = 0
        elif state is HostState.QUARANTINED:
            if phi >= DRAIN_PHI:
                self._transition(health, HostState.DRAINING)
            elif phi < SUSPECT_PHI and not slow:
                self._transition(health, HostState.PROBATION)
        elif state is HostState.DRAINING:
            if phi < SUSPECT_PHI and not slow:
                self._transition(health, HostState.PROBATION)
        else:  # PROBATION: relapse checks (the ramp runs on heartbeats)
            if phi >= QUARANTINE_PHI:
                self._transition(health, HostState.QUARANTINED)
            elif phi >= SUSPECT_PHI or slow:
                self._transition(health, HostState.SUSPECT)

    def _transition(
        self, health: HostHealth, state: HostState, fire_drain: bool = True
    ) -> None:
        now = self.sim.now
        old = health.transition_to(state, now)
        if old is state:
            return
        if state is HostState.DRAINING and fire_drain:
            hook = self._on_drain.get(health.name)
            if hook is not None:
                hook()
        obs = self.sim.obs
        if obs is not None:
            obs.record(
                _TRANSITION_EVENTS[state], now,
                "host_lifecycle_transitions_total",
                "Host lifecycle state changes by target state",
                {"host": health.name, "to": state.value}, host=health.name,
                state=state.value, phi=round(health.detector.phi(now), 3),
            )
            obs.gauge(
                "host_lifecycle_state",
                help=(
                    "Current lifecycle state (0 healthy, 1 suspect, "
                    "2 quarantined, 3 draining, 4 probation)"
                ),
                host=health.name,
            ).set(state.code)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = ", ".join(
            f"{name}={h.state.value}" for name, h in sorted(self.hosts.items())
        )
        return f"<HealthMonitor {states or 'no hosts'}>"
