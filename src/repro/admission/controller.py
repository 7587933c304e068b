"""The admission controller: bounded queues, deadlines, load shedding.

HotC's pool limits protect the *host*; this layer protects the
*request path*.  It sits in front of the gateway's proxy pipeline and
gives every function:

* a **concurrency limit** (AIMD-adaptive, see :mod:`repro.admission.aimd`)
  — requests beyond it wait in a **bounded FIFO queue**;
* a hard **queue-depth cap** — when the queue is full the request is
  *shed* with :class:`~repro.faas.tracing.RequestOutcome.SHED` (the
  429 of this platform) instead of parking forever;
* **deadline enforcement** — a queued request whose absolute deadline
  passes is woken, lazily removed from the queue, and terminated with
  ``DEADLINE`` so no client waits unboundedly;
* **brownout** — the controller owns one hysteresis state machine per
  host (:mod:`repro.admission.brownout`), advanced by each host's
  control tick through :meth:`AdmissionController.observe_pressure`;
  while any host is browned out, standard-QoS requests are shed up
  front so warm containers (and critical traffic) survive the pressure,
  and HotC provisions ``BROWNOUT_TARGET_FACTOR`` of each forecast.

Everything is plain simulation bookkeeping: grants are scheduled
through the simulator queue exactly like
:class:`repro.sim.engine.Resource` releases, so runs are deterministic,
and a platform with no controller attached takes zero extra simulation
events (the hook is one ``is None`` check on ``sim.admission``, the
same contract as the observatory's ``sim.obs``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, Optional

from repro.admission.aimd import AIMDConfig, AIMDLimiter
from repro.admission.brownout import BrownoutController
from repro.faas.function import FunctionSpec
from repro.faas.tracing import RequestOutcome, RequestTrace
from repro.obs.events import EventKind
from repro.sim.engine import AnyOf

__all__ = ["AdmissionConfig", "AdmissionController", "AdmissionStats"]

_INF = math.inf

#: Shed reasons stamped on traces and counted per reason.
REASON_QUEUE_FULL = "queue_full"
REASON_BROWNOUT = "brownout"
REASON_SHUTDOWN = "shutdown"

#: Factor HotC applies to predictor pool targets while browned out.
BROWNOUT_TARGET_FACTOR = 0.5
#: Brownout hysteresis: a host exits only below ``threshold - margin``.
BROWNOUT_EXIT_MARGIN = 0.05


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of the overload-protection layer."""

    #: Hard cap on queued (not yet admitted) requests per function.
    max_queue_depth: int = 64
    #: Per-function AIMD concurrency controller settings.
    aimd: AIMDConfig = field(default_factory=AIMDConfig)
    #: Relative deadline applied when the function spec does not set
    #: one; ``None`` leaves such requests deadline-free.
    default_deadline_ms: Optional[float] = 30_000.0

    def __post_init__(self) -> None:
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0 (or None)")


@dataclass
class AdmissionStats:
    """Global counters for one controller."""

    admitted: int = 0
    #: Subset of ``admitted`` that waited in the queue first.
    admitted_queued: int = 0
    #: Sheds by reason.
    shed: Dict[str, int] = field(default_factory=dict)
    #: Deadline misses while queued for admission.
    deadline_misses: int = 0
    #: Highest queue depth ever observed (across functions).
    queue_depth_peak: int = 0

    @property
    def shed_total(self) -> int:
        """All shed requests, every reason."""
        return sum(self.shed.values())

    def as_dict(self) -> Dict[str, object]:
        """Flat dict form for reports."""
        return {
            "admitted": self.admitted,
            "admitted_queued": self.admitted_queued,
            "shed": dict(sorted(self.shed.items())),
            "deadline_misses": self.deadline_misses,
            "queue_depth_peak": self.queue_depth_peak,
        }


class _Waiter:
    """One request parked in an admission queue."""

    __slots__ = ("event", "enqueued_at", "state", "reason")

    QUEUED = "queued"
    GRANTED = "granted"
    CANCELLED = "cancelled"
    SHED = "shed"

    def __init__(self, event, enqueued_at: float) -> None:
        self.event = event
        self.enqueued_at = enqueued_at
        self.state = _Waiter.QUEUED
        self.reason = ""


class _FunctionState:
    """Per-function limiter + bounded queue."""

    __slots__ = ("limiter", "inflight", "queue", "cancelled", "queue_depth_peak")

    def __init__(self, aimd: AIMDConfig) -> None:
        self.limiter = AIMDLimiter(aimd)
        self.inflight = 0
        self.queue: Deque[_Waiter] = deque()
        #: Lazily cancelled waiters still physically in ``queue``.
        self.cancelled = 0
        self.queue_depth_peak = 0

    @property
    def depth(self) -> int:
        """Live (non-cancelled) queued requests."""
        return len(self.queue) - self.cancelled


class AdmissionController:
    """Overload protection shared by every gateway of a platform.

    Attach with :meth:`attach` (``FaasPlatform.attach_admission`` and
    the scenario runner's trace arms both call it), which binds the
    simulator and sets its ``admission`` slot.  Every
    gateway and every HotC host reads the controller from that slot:
    gateways admit and release through it, and each host's control
    loop reports its memory pressure and drives the AIMD tick.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None) -> None:
        self.config = config or AdmissionConfig()
        self.sim = None
        self.stats = AdmissionStats()
        self._states: Dict[str, _FunctionState] = {}
        #: Per-host brownout state machines (by engine name), created on
        #: each host's first pressure reading.
        self._brownouts: Dict[str, BrownoutController] = {}
        #: Hosts currently browned out: the shed check's fast path.
        self._browned_out: set = set()
        self._shutdown = False
        self._last_tick = -_INF

    # -- wiring -----------------------------------------------------------
    def attach(self, sim) -> None:
        """Bind the simulator and take its ``admission`` slot."""
        self.sim = sim
        sim.admission = self

    # -- brownout -----------------------------------------------------------
    def observe_pressure(
        self, host: str, threshold: float, mem_fraction: float,
        cap_tripped: bool,
    ) -> bool:
        """Advance ``host``'s brownout state machine; True while degraded.

        Called by the host's control tick.  The machine is created on
        the host's first reading, entering at its memory ``threshold``
        and exiting only below ``threshold - BROWNOUT_EXIT_MARGIN`` so
        the mode cannot flap around the threshold.  A transition updates
        the shed set and records the BROWNOUT_ENTER/EXIT event.
        """
        brownout = self._brownouts.get(host)
        if brownout is None:
            brownout = self._brownouts[host] = BrownoutController(
                enter_threshold=threshold,
                exit_margin=BROWNOUT_EXIT_MARGIN,
            )
        transition = brownout.update(mem_fraction, cap_tripped)
        if not transition:
            return brownout.active
        active = brownout.active
        if active:
            self._browned_out.add(host)
        else:
            self._browned_out.discard(host)
        obs = self.sim.obs
        if obs is not None:
            obs.record(
                EventKind.BROWNOUT_ENTER if active else EventKind.BROWNOUT_EXIT,
                self.sim.now, "brownout_transitions_total",
                "Brownout state changes by direction",
                {"host": host, "to": "active" if active else "clear"},
                host=host, mem_fraction=round(mem_fraction, 4),
                cap_tripped=cap_tripped,
            )
        return active

    def browned_out(self, host: str) -> bool:
        """Whether ``host`` is browned out (pauses its prewarm)."""
        return host in self._browned_out

    @property
    def brownout_active(self) -> bool:
        """Whether any registered host is currently browned out."""
        return bool(self._browned_out)

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_shutdown` has run."""
        return self._shutdown

    # -- introspection ----------------------------------------------------
    def _state_for(self, name: str) -> _FunctionState:
        state = self._states.get(name)
        if state is None:
            state = self._states[name] = _FunctionState(self.config.aimd)
        return state

    def limit(self, name: str) -> int:
        """Current effective concurrency limit of ``name``."""
        state = self._states.get(name)
        if state is None:
            return max(1, int(self.config.aimd.initial_limit))
        return state.limiter.effective

    def inflight(self, name: str) -> int:
        """Admitted, not yet released requests of ``name``."""
        state = self._states.get(name)
        return 0 if state is None else state.inflight

    def queue_depth(self, name: str) -> int:
        """Live queued requests of ``name``."""
        state = self._states.get(name)
        return 0 if state is None else state.depth

    def queue_depth_total(self) -> int:
        """Live queued requests across all functions."""
        return sum(state.depth for state in self._states.values())

    # -- the admission decision -------------------------------------------
    def admit(self, spec: FunctionSpec, trace: RequestTrace) -> Generator:
        """Process: decide this request's fate before the proxy pipeline.

        Returns ``True`` when the request may proceed to the watchdog;
        ``False`` when it was shed or blew its deadline — the trace then
        already carries the terminal outcome and the caller only sends
        the error response back to the client.
        """
        sim = self.sim
        now = sim.now
        trace.qos = spec.qos
        if trace.deadline == _INF:
            relative = (
                spec.deadline_ms
                if spec.deadline_ms is not None
                else self.config.default_deadline_ms
            )
            if relative is not None:
                trace.deadline = trace.t0_client_send + relative
        if self._shutdown:
            return self._reject(spec, trace, REASON_SHUTDOWN)
        if now >= trace.deadline:
            return self._deadline_miss(spec, trace)
        if self._browned_out and spec.qos != "critical":
            return self._reject(spec, trace, REASON_BROWNOUT)
        state = self._state_for(spec.name)
        if state.inflight < state.limiter.effective and state.depth == 0:
            state.inflight += 1
            return self._admitted(spec, trace, queued=False)
        if state.depth >= self.config.max_queue_depth:
            state.limiter.record_shed()
            return self._reject(spec, trace, REASON_QUEUE_FULL)

        waiter = _Waiter(sim.event(name=("admit", spec.name)), now)
        state.queue.append(waiter)
        depth = state.depth
        if depth > state.queue_depth_peak:
            state.queue_depth_peak = depth
        if depth > self.stats.queue_depth_peak:
            self.stats.queue_depth_peak = depth

        if trace.deadline < _INF:
            deadline = sim.timeout(trace.deadline - now)
            index, _ = yield AnyOf([waiter.event, deadline])
            if index == 0:
                deadline.cancel()
        else:
            yield waiter.event
            index = 0
        trace.queue_ms += sim.now - waiter.enqueued_at

        if index == 1:  # the deadline fired while we waited
            if waiter.state == _Waiter.GRANTED:
                # The grant raced the deadline inside this instant: give
                # the slot straight back so accounting stays exact.
                state.inflight -= 1
                self._grant_next(state)
            elif waiter.state == _Waiter.QUEUED:
                # Lazy-cancel: the record stays in the deque and is
                # skipped (and dropped) by the next _grant_next sweep.
                waiter.state = _Waiter.CANCELLED
                state.cancelled += 1
            # A SHED waiter was already unlinked by begin_shutdown.
            state.limiter.record_miss()
            return self._deadline_miss(spec, trace)
        if waiter.state == _Waiter.SHED:
            return self._reject(spec, trace, waiter.reason)
        return self._admitted(spec, trace, queued=True)

    def release(self, spec: FunctionSpec, trace: RequestTrace, now: float) -> None:
        """An admitted request left the gateway: feed AIMD, grant next."""
        state = self._state_for(spec.name)
        state.inflight -= 1
        if now > trace.deadline or trace.outcome is RequestOutcome.DEADLINE:
            state.limiter.record_miss()
        elif trace.outcome in (RequestOutcome.SUCCESS, RequestOutcome.RETRIED):
            state.limiter.record_success()
        self._grant_next(state)

    def _grant_next(self, state: _FunctionState) -> None:
        """Hand freed slots to the oldest live waiters (lazy-cancel aware)."""
        queue = state.queue
        while queue:
            if queue[0].state == _Waiter.CANCELLED:
                queue.popleft()
                state.cancelled -= 1
                continue
            if state.inflight >= state.limiter.effective:
                return
            waiter = queue.popleft()
            waiter.state = _Waiter.GRANTED
            state.inflight += 1
            # Grant at the current instant *via the queue* so the
            # releasing process finishes its step first (the Resource
            # idiom); bit-reproducible by (time, priority, seq) order.
            self.sim._queue.push(self.sim._now, waiter.event.succeed, (), 0, False)

    # -- the control-loop tick ---------------------------------------------
    def tick(self, now: float) -> None:
        """Apply one interval of AIMD feedback (idempotent per instant).

        Every HotC host calls this from its control tick; co-scheduled
        ticks of a multi-host cluster collapse into one adjustment.
        """
        if now <= self._last_tick:
            return
        self._last_tick = now
        obs = self.sim.obs
        for name in sorted(self._states):
            state = self._states[name]
            state.limiter.tick()
            # A raised limit (or a cut that still leaves room) may free
            # slots without any release happening: wake waiters now.
            self._grant_next(state)
            if obs is not None:
                obs.gauge(
                    "admission_concurrency_limit",
                    help="Current AIMD concurrency limit",
                    function=name,
                ).set(state.limiter.effective)
                obs.gauge(
                    "admission_queue_depth",
                    help="Requests waiting for admission",
                    function=name,
                ).set(state.depth)

    # -- checkpoint / restore -------------------------------------------------
    def export_limits(self) -> Dict[str, float]:
        """Per-function AIMD limits, for control-plane checkpoints."""
        return {
            name: state.limiter.limit for name, state in self._states.items()
        }

    def reset_limits(self) -> None:
        """Forget every learned AIMD limit (control-plane crash).

        Each function falls back to its configured ``initial_limit``,
        exactly as if the controller had just been constructed.  A
        raised limit may free admission slots, so waiters are
        re-granted.
        """
        for name in sorted(self._states):
            state = self._states[name]
            state.limiter.limit = float(state.limiter.config.initial_limit)
            self._grant_next(state)

    def restore_limits(self, limits: Dict[str, float]) -> None:
        """Re-apply checkpointed AIMD limits after a recovery.

        Each restored limit is clamped to the AIMD band
        (:meth:`AIMDLimiter.restore`); functions first seen after the
        checkpoint keep their current limit.  A raised limit may free
        admission slots, so waiters are re-granted.
        """
        for name in sorted(limits):
            state = self._states.get(name)
            if state is None:
                continue
            state.limiter.restore(limits[name])
            self._grant_next(state)

    # -- shutdown -----------------------------------------------------------
    def begin_shutdown(self) -> None:
        """Reject new admissions and drain every queue deterministically.

        Queued waiters are shed (reason ``shutdown``) in FIFO order per
        function, functions in name order; their gateway processes wake
        through the simulator queue and answer the clients with SHED.
        Idempotent: the provider calls this once per host on shutdown.
        """
        if self._shutdown:
            return
        self._shutdown = True
        for name in sorted(self._states):
            state = self._states[name]
            while state.queue:
                waiter = state.queue.popleft()
                if waiter.state == _Waiter.CANCELLED:
                    state.cancelled -= 1
                    continue
                waiter.state = _Waiter.SHED
                waiter.reason = REASON_SHUTDOWN
                self.sim._queue.push(
                    self.sim._now, waiter.event.succeed, (), 0, False
                )

    # -- terminal stampers ----------------------------------------------------
    def _admitted(self, spec: FunctionSpec, trace: RequestTrace, queued: bool) -> bool:
        self.stats.admitted += 1
        if queued:
            self.stats.admitted_queued += 1
        obs = self.sim.obs
        if obs is not None:
            obs.emit(
                EventKind.ADMIT,
                t=self.sim.now,
                key=spec.name,
                queued=queued,
            )
        return True

    def _reject(self, spec: FunctionSpec, trace: RequestTrace, reason: str) -> bool:
        trace.outcome = RequestOutcome.SHED
        trace.shed_reason = reason
        self.stats.shed[reason] = self.stats.shed.get(reason, 0) + 1
        obs = self.sim.obs
        if obs is not None:
            obs.record(
                EventKind.SHED, self.sim.now, "requests_shed_total",
                "Requests rejected by admission control, by reason",
                {"function": spec.name, "reason": reason}, key=spec.name,
                reason=reason, qos=spec.qos,
            )
        return False

    def _deadline_miss(self, spec: FunctionSpec, trace: RequestTrace) -> bool:
        trace.outcome = RequestOutcome.DEADLINE
        self.stats.deadline_misses += 1
        obs = self.sim.obs
        if obs is not None:
            obs.record(
                EventKind.DEADLINE_MISS, self.sim.now, "deadline_misses_total",
                "Requests terminated against their deadline",
                {"function": spec.name, "where": "queued"}, key=spec.name,
                where="queued",
            )
        return False
