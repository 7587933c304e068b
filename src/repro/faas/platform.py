"""The platform: runtime-provider protocol + deployment + invocation.

:class:`RuntimeProvider` is the seam between the serverless substrate
and the paper's contribution.  The platform asks a provider for a
container able to run a given :class:`~repro.containers.ContainerConfig`;
the provider decides whether that is a cold boot (default serverless
behaviour), a pool hit (HotC), or a keep-alive hit (AWS-style baseline).
"""

from __future__ import annotations

import abc
import itertools
from typing import Dict, Generator, Optional, Tuple


from repro.containers.container import Container, ContainerConfig
from repro.containers.engine import ContainerEngine
from repro.containers.registry import Registry
from repro.faas.function import FunctionSpec
from repro.faas.gateway import Gateway
from repro.faas.tracing import RequestTrace, TraceCollector
from repro.hardware.profiles import HostProfile, T430_SERVER
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["ColdBootProvider", "FaasPlatform", "RuntimeProvider"]


class RuntimeProvider(abc.ABC):
    """Strategy for acquiring/releasing container runtimes.

    Both methods are simulation processes (generators).  ``acquire``
    returns ``(container, cold_boot)`` where ``cold_boot`` says a new
    container had to be created for this request.  ``release`` is
    spawned asynchronously after the response leaves the watchdog, so
    cleanup never sits on the client's critical path.
    """

    @abc.abstractmethod
    def acquire(self, config: ContainerConfig) -> Generator:
        """Process: yield a RUNNING container for ``config``."""

    @abc.abstractmethod
    def release(self, container: Container) -> Generator:
        """Process: give the container back (clean, keep, or destroy)."""

    def discard(self, container: Container) -> None:
        """Drop a container that died mid-request (crash or host outage).

        Unlike :meth:`release` this is a plain call: the container is
        already gone, so there is no cleanup latency to model — only
        bookkeeping (demand accounting, pool metadata) to roll back.
        The default is a no-op for providers without such bookkeeping.
        """

    def engine_for(self, container: Container) -> ContainerEngine:
        """The engine that runs ``container``.

        The default is the single-host provider's own ``self.engine``;
        multi-host providers return the engine of the container's host.
        """
        return self.engine

    def shutdown(self) -> Generator:
        """Process: stop everything the provider still holds."""
        return
        yield  # pragma: no cover - makes this a generator


class ColdBootProvider(RuntimeProvider):
    """Default serverless behaviour: boot per request, destroy after.

    This is the "without HotC" arm of every evaluation figure.
    """

    def __init__(self, engine: ContainerEngine) -> None:
        self.engine = engine

    def acquire(self, config: ContainerConfig) -> Generator:
        container = yield from self.engine.boot_container(config)
        return container, True

    def release(self, container: Container) -> Generator:
        yield from self.engine.stop_container(container)
        yield from self.engine.remove_container(container)

    def shutdown(self) -> Generator:
        for container in self.engine.live_containers():
            if container.is_reusable:
                yield from self.engine.stop_container(container)
                yield from self.engine.remove_container(container)


class FaasPlatform:
    """An OpenFaaS-like deployment on one simulated host.

    Wires together the simulator, container engine, gateway and a
    runtime provider; owns the function catalog and the trace collector.

    Parameters
    ----------
    seed:
        Root seed for all jitter streams.
    profile:
        Host hardware profile.
    provider_factory:
        Called with the platform's engine to build the runtime
        provider; defaults to :class:`ColdBootProvider`.
    jitter_sigma:
        Latency noise level; 0 gives a fully deterministic platform.
    """

    def __init__(
        self,
        registry: Registry,
        seed: int = 0,
        profile: HostProfile = T430_SERVER,
        provider_factory=None,
        jitter_sigma: float = 0.06,
        gateway_concurrency: int = 1024,
        gateway_instances: int = 1,
        request_retries: int = 1,
    ) -> None:
        if gateway_instances < 1:
            raise ValueError("gateway_instances must be >= 1")
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        self.registry = registry
        self.profile = profile
        self.engine = ContainerEngine(
            self.sim,
            registry,
            profile=profile,
            rng=self.rngs.stream("engine-jitter"),
            jitter_sigma=jitter_sigma,
        )
        if provider_factory is None:
            provider_factory = ColdBootProvider
        self.provider: RuntimeProvider = provider_factory(self.engine)
        # Section III: the gateway "can be scaled to multiple instances";
        # clients are assigned round-robin across them.
        self.gateways = [
            Gateway(
                self.sim,
                self.engine,
                self.provider,
                concurrency=gateway_concurrency,
                request_retries=request_retries,
            )
            for _ in range(gateway_instances)
        ]
        self._gateway_rr = itertools.count()
        self.traces = TraceCollector()
        self._functions: Dict[str, FunctionSpec] = {}
        self._request_ids = itertools.count()
        #: Optional admission controller; ``None`` keeps the platform
        #: bit-identical to one built before overload protection existed.
        self.admission = None

    @property
    def gateway(self) -> Gateway:
        """The first gateway instance (compatibility accessor)."""
        return self.gateways[0]

    # -- observability -----------------------------------------------------
    def attach_observatory(self, observatory) -> None:
        """Wire one observatory through the whole platform.

        Attaches to the engine, every gateway (and its watchdog) and —
        when the provider supports it (HotC, ClusterHotC) — the provider
        and everything underneath.  Pass ``None`` to detach everywhere.
        """
        self.engine.attach_observatory(observatory)
        for gateway in self.gateways:
            gateway.attach_observatory(observatory)
        attach = getattr(self.provider, "attach_observatory", None)
        if attach is not None:
            attach(observatory)
        if self.admission is not None:
            self.admission.obs = observatory

    def attach_admission(self, controller) -> None:
        """Wire overload protection through the whole platform.

        Binds the simulator, puts the controller in front of every
        gateway's proxy pipeline, and — when the provider supports it
        (HotC, ClusterHotC) — hands it to the provider so the control
        loop drives the AIMD tick and brownout transitions.
        """
        controller.bind(self.sim)
        self.admission = controller
        for gateway in self.gateways:
            gateway.admission = controller
        attach = getattr(self.provider, "attach_admission", None)
        if attach is not None:
            attach(controller)
        if self.gateway.obs is not None:
            controller.obs = self.gateway.obs

    # -- deployment -------------------------------------------------------
    def deploy(self, spec: FunctionSpec) -> None:
        """Register a function; its image must exist in the registry."""
        if spec.name in self._functions:
            raise ValueError(f"function {spec.name!r} already deployed")
        image = self.registry.resolve(spec.image)  # fails fast on unknown images
        if image.language is not None and image.language != spec.language:
            raise ValueError(
                f"function {spec.name!r} wants {spec.language!r} but image "
                f"{image.reference} provides {image.language!r}"
            )
        self._functions[spec.name] = spec

    def function(self, name: str) -> FunctionSpec:
        """Look up a deployed function."""
        try:
            return self._functions[name]
        except KeyError:
            known = ", ".join(sorted(self._functions)) or "<none>"
            raise KeyError(
                f"function {name!r} not deployed; deployed: {known}"
            ) from None

    @property
    def functions(self) -> Tuple[str, ...]:
        """Names of deployed functions."""
        return tuple(sorted(self._functions))

    # -- invocation --------------------------------------------------------
    def invoke(self, name: str) -> Generator:
        """Process: one client request; returns its RequestTrace.

        With multiple gateway instances, requests are spread round-robin
        (the load-balancer in front of a scaled OpenFaaS gateway).
        """
        spec = self.function(name)
        trace = RequestTrace(
            request_id=next(self._request_ids),
            function=name,
            t0_client_send=self.sim.now,
        )
        gateway = self.gateways[next(self._gateway_rr) % len(self.gateways)]
        trace = yield from gateway.handle(spec, trace)
        self.traces.add(trace)
        return trace

    def submit(self, name: str, delay: float = 0.0):
        """Schedule an invocation ``delay`` ms from now; returns the process.

        Convenience wrapper used by workload generators.
        """
        def _delayed() -> Generator:
            if delay > 0:
                yield self.sim.timeout(delay)
            trace = yield from self.invoke(name)
            return trace

        return self.sim.process(_delayed(), name=f"request:{name}")

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (delegates to the kernel)."""
        return self.sim.run(until=until)

    def shutdown(self) -> None:
        """Stop all provider-held containers and drain the simulation."""
        self.sim.process(self.provider.shutdown())
        self.sim.run()
