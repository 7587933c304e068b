"""The watchdog: OpenFaaS's per-function HTTP shell.

Section III: "The watchdog is a tiny Golang HTTP server ... puts a layer
of HTTP shell on the function, writes to the stdin of the function
process, and receives the response data from the function process
stdout."

In the simulation the watchdog owns moments (2)–(5) of a request: it
receives the forwarded request, obtains a runtime container from the
provider (this is where cold start lands, making segment 2→3 dominate),
runs the handler, and emits the response.  Cleanup is handed back to the
provider asynchronously so it never blocks the response.

Failure handling: a container-level failure (boot failure the provider
could not recover, host outage, mid-execution crash) is retried at the
request level up to ``REQUEST_RETRIES`` times — the dead container is
discarded through the provider so its bookkeeping rolls back, then the
whole acquire/execute attempt repeats.  When retries are exhausted the
request terminates with :class:`~repro.faas.tracing.RequestOutcome.FAILED`
and an error response travels back to the client like any other
response; the exception never escapes the watchdog.
"""

from __future__ import annotations

from typing import Generator

from repro.containers.container import ContainerError
from repro.containers.engine import ContainerEngine
from repro.faas.function import FunctionSpec
from repro.faas.tracing import RequestOutcome, RequestTrace

__all__ = ["Watchdog"]

#: Request-level retries after a container failure.
REQUEST_RETRIES = 1


class Watchdog:
    """Executes requests for functions against a container engine."""

    def __init__(self, sim, engine: ContainerEngine, provider) -> None:
        self.sim = sim
        self.engine = engine
        self.provider = provider

    def handle(self, spec: FunctionSpec, trace: RequestTrace) -> Generator:
        """Process: moments (2)..(5) of the request pipeline."""
        latency = self.engine.latency
        trace.t2_watchdog_in = self.sim.now

        # fork/exec of the handler process + stdin pipe setup.
        yield latency.faas_stage("watchdog_fork")

        attempts = 0
        while True:
            container = None
            try:
                container, cold_boot = yield from self.provider.acquire(
                    spec.container_config()
                )
                # Multi-host providers place containers on their own
                # engines; run the handler on the engine that owns it.
                engine = self.provider.engine_for(container)
                result = yield from engine.execute(container, spec.exec_spec())
            except ContainerError as error:
                if container is not None:
                    # The acquired container died under us: roll back the
                    # provider's bookkeeping before trying again.
                    self.provider.discard(container)
                if attempts >= REQUEST_RETRIES:
                    trace = yield from self._fail(trace, attempts, error, latency)
                    return trace
                if self.sim.now >= trace.deadline:
                    # No budget left: a retry would boot a container for
                    # a request that can no longer succeed in time.
                    trace = yield from self._fail(
                        trace,
                        attempts,
                        error,
                        latency,
                        outcome=RequestOutcome.DEADLINE,
                    )
                    return trace
                attempts += 1
                self.engine.stats.request_retries += 1
                obs = self.sim.obs
                if obs is not None:
                    obs.counter(
                        "request_retries_total",
                        help="Request-level retries after container failures",
                        host=self.engine.name,
                        function=spec.name,
                    ).inc()
                continue
            break

        trace.t4_function_stop = self.sim.now
        # Moment (3) is when business logic begins: everything before the
        # pure exec segment is initiation (queueing, runtime init, app init).
        trace.t3_function_start = trace.t4_function_stop - result.exec_ms
        trace.cold_start = cold_boot or result.cold_start
        trace.container_id = container.container_id
        trace.runtime_init_ms = result.runtime_init_ms
        trace.app_init_ms = result.app_init_ms
        trace.exec_ms = result.exec_ms
        trace.respec_ms = container.respec_ms
        trace.reuse = container.reuse
        # exec_count was already bumped for this exec, so depth is the
        # number of requests the container had served *before* this one.
        trace.reuse_count = max(0, container.exec_count - 1)
        trace.retries = attempts
        trace.outcome = (
            RequestOutcome.RETRIED if attempts else RequestOutcome.SUCCESS
        )

        # Read stdout + wrap the HTTP response.
        yield latency.faas_stage("watchdog_pipe")
        trace.t5_watchdog_out = self.sim.now

        # Hand the container back off the critical path.
        self.sim.process(
            self.provider.release(container),
            name=f"release:{container.container_id}",
        )
        return trace

    def _fail(
        self,
        trace,
        attempts,
        error,
        latency,
        outcome: RequestOutcome = RequestOutcome.FAILED,
    ) -> Generator:
        """Process: terminate the request with an error response.

        ``outcome`` distinguishes exhausted retries (FAILED) from a
        retry budget cut short by the deadline (DEADLINE); either way
        the terminal outcome and the error land on the trace so the
        collector's latency accessors can exclude it.
        """
        if outcome is RequestOutcome.DEADLINE:
            self.engine.stats.requests_deadline += 1
        else:
            self.engine.stats.requests_failed += 1
        obs = self.sim.obs
        if obs is not None:
            if outcome is RequestOutcome.DEADLINE:
                obs.counter(
                    "deadline_misses_total",
                    help="Requests terminated against their deadline",
                    function=trace.function,
                    where="retry",
                ).inc()
            else:
                obs.counter(
                    "requests_failed_total",
                    help="Requests that exhausted retries",
                    host=self.engine.name,
                    function=trace.function,
                ).inc()
        trace.t3_function_start = trace.t4_function_stop = self.sim.now
        trace.retries = attempts
        trace.outcome = outcome
        trace.error = f"{type(error).__name__}: {error}"
        # The error response still travels the watchdog->client path.
        yield latency.faas_stage("watchdog_pipe")
        trace.t5_watchdog_out = self.sim.now
        return trace
