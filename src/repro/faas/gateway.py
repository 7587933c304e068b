"""The gateway: entry point and proxy of the platform (Fig 5).

"The clients send requests to the gateway, which acts as an entry to
the backends.  Gateway works as a proxy forwarding requests to the
corresponding functions and can be scaled to multiple instances."

The gateway stamps moments (1) and (6), applies its proxy forwarding
cost, and bounds in-flight requests with a concurrency limit.  With an
:class:`~repro.admission.AdmissionController` in the simulator's
``admission`` slot it also applies overload protection in front of the
proxy pipeline: per-function concurrency limits with bounded queues,
deadline enforcement, and load shedding — rejected requests travel the
error-response path back to the client instead of queueing forever.
"""

from __future__ import annotations

from typing import Generator

from repro.containers.engine import ContainerEngine
from repro.faas.function import FunctionSpec
from repro.faas.tracing import RequestTrace
from repro.faas.watchdog import Watchdog
from repro.obs.events import EventKind

__all__ = ["Gateway"]


class Gateway:
    """Proxies client requests to per-function watchdogs."""

    def __init__(
        self,
        sim,
        engine: ContainerEngine,
        provider,
        concurrency: int = 1024,
    ) -> None:
        if concurrency < 1:
            raise ValueError("gateway concurrency must be >= 1")
        self.sim = sim
        self.engine = engine
        self.watchdog = Watchdog(sim, engine, provider)
        self._slots = sim.resource(concurrency, name="gateway")
        self.inflight_peak = 0
        self.queue_depth_peak = 0

    @property
    def inflight(self) -> int:
        """Requests currently inside the gateway."""
        return self._slots.in_use

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a gateway concurrency slot."""
        return self._slots.queued

    def handle(self, spec: FunctionSpec, trace: RequestTrace) -> Generator:
        """Process: the full request pipeline, moments (1)..(6)."""
        latency = self.engine.latency

        # Client -> gateway network hop.
        yield latency.faas_stage("client_to_gateway")
        trace.t1_gateway_in = self.sim.now

        admission = self.sim.admission
        if admission is not None:
            admitted = yield from admission.admit(spec, trace)
            if not admitted:
                # Shed or past-deadline: the trace already carries the
                # terminal outcome; only the error response goes back.
                trace = yield from self._respond(spec, trace, latency)
                return trace

        slots = self._slots
        if not slots.try_request():
            # Every slot is held: queue for one.  A free slot builds no
            # grant event and no resume, so the proxy sleeps below can
            # still run ahead (DESIGN.md §9b).
            grant = slots.request()
            depth = slots.queued
            if depth > self.queue_depth_peak:
                self.queue_depth_peak = depth
            try:
                yield grant
            except BaseException:
                # Abandoned while waiting (interrupt, kill): a waiter left
                # parked would absorb a future release and leak that slot
                # forever; if the grant already raced in, hand it back.
                if not slots.cancel(grant):
                    slots.release()
                raise
        self.inflight_peak = max(self.inflight_peak, slots.in_use)
        try:
            # MakeQueuedProxy: route lookup + forwarding.
            yield latency.faas_stage("gateway_proxy")
            yield latency.faas_stage("gateway_to_watchdog")

            trace = yield from self.watchdog.handle(spec, trace)

            yield latency.faas_stage("watchdog_to_gateway")
        finally:
            slots.release()
            if admission is not None:
                admission.release(spec, trace, self.sim.now)

        trace = yield from self._respond(spec, trace, latency)
        return trace

    def _respond(self, spec: FunctionSpec, trace: RequestTrace, latency) -> Generator:
        """Process: moment (6) — the response (or rejection) reaches the
        client — plus the terminal observability records."""
        yield latency.faas_stage("gateway_to_client")
        trace.t6_client_recv = self.sim.now
        obs = self.sim.obs
        if obs is not None:
            outcome = trace.outcome.value
            host = self.engine.name
            obs.record(
                EventKind.REQUEST_DONE, trace.t6_client_recv, "requests_total",
                "Requests by terminal outcome",
                {"host": host, "function": spec.name, "outcome": outcome},
                host=host, key=spec.name, outcome=outcome,
                cold_start=trace.cold_start, retries=trace.retries,
            )
            obs.histogram(
                "request_latency_ms",
                help="End-to-end client latency (moments 0 to 6)",
                host=host,
                function=spec.name,
            ).observe(trace.t6_client_recv - trace.t0_client_send)
        return trace
