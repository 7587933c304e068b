"""The per-host container engine: Docker's API surface as sim processes.

Every public operation is a generator to be wrapped in
``Simulator.process`` (or yielded from another process).  Latencies come
from :class:`repro.hardware.LatencyModel`; resources are committed
against the host's :class:`repro.sim.HostResources` ledger.

Cost composition of a cold start (what HotC avoids)::

    [pull + decompress]   only on first use of the image on this host
    create                namespaces, cgroups, rootfs
    network setup         mode-dependent (Fig 4c: overlay is 23x host)
    volume create+mount   per-container volume (HotC cleanup unit)
    start                 main process launch
    runtime init          language VM boot + code load (first exec)
    app init              business-logic init (first run of an app)

A warm (reused) exec pays only ``code inject + exec`` (+ app init when
the container last ran a *different* app).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.containers.container import (
    Container,
    ContainerConfig,
    ContainerError,
    ContainerState,
    ExecResult,
    ExecSpec,
)
from repro.containers.registry import Registry
from repro.containers.volume import VolumeStore
from repro.hardware.calibration import LatencyModel
from repro.hardware.profiles import HostProfile, T430_SERVER
from repro.obs.events import EventKind
from repro.sim.engine import Simulator
from repro.sim.events import Event

__all__ = ["ContainerEngine", "EngineStats"]


@dataclass
class EngineStats:
    """Operation counters for one engine (diagnostics and benches).

    The failure block counts *observed* errors and recovery actions:
    ``boot_failures``/``transient_errors``/``exec_crashes`` are faults
    the engine actually surfaced; ``boot_retries``,
    ``breaker_opens``/``breaker_fastfails`` and ``request_retries``/
    ``requests_failed`` are bumped by the middleware and watchdog as
    they recover (or give up).  All stay 0 in fault-free runs.
    """

    boots: int = 0
    image_pulls: int = 0
    cold_execs: int = 0
    warm_execs: int = 0
    stops: int = 0
    removes: int = 0
    volume_wipes: int = 0
    kills: int = 0
    boot_failures: int = 0
    transient_errors: int = 0
    exec_crashes: int = 0
    #: Execs refused because the container's runtime state was left
    #: dirty by an earlier run (STATE_POISON degradation).
    poison_failures: int = 0
    boot_retries: int = 0
    breaker_opens: int = 0
    breaker_fastfails: int = 0
    request_retries: int = 0
    requests_failed: int = 0
    #: Requests the watchdog terminated against their deadline instead
    #: of retrying (only non-zero with an admission controller's
    #: deadlines in play).
    requests_deadline: int = 0

    @property
    def total_execs(self) -> int:
        """All function executions."""
        return self.cold_execs + self.warm_execs

    @property
    def reuse_ratio(self) -> float:
        """Fraction of executions served by a warm container."""
        total = self.total_execs
        return self.warm_execs / total if total else 0.0


class ContainerEngine:
    """Docker-like engine bound to one simulated host.

    Parameters
    ----------
    sim:
        The simulation kernel.
    registry:
        Shared image registry.
    profile:
        Host hardware profile (defaults to the paper's T430 server).
    rng:
        Jitter stream; ``None`` gives deterministic latencies.
    """

    def __init__(
        self,
        sim: Simulator,
        registry: Registry,
        profile: HostProfile = T430_SERVER,
        rng: Optional[np.random.Generator] = None,
        jitter_sigma: float = 0.06,
        name: str = "host-0",
        pull_strategy=None,
    ) -> None:
        self.sim = sim
        self.registry = registry
        self.profile = profile
        self.name = name
        self.latency = LatencyModel(profile=profile, rng=rng, jitter_sigma=jitter_sigma)
        self.resources = profile.make_resources()
        self.volumes = VolumeStore()
        self.stats = EngineStats()
        if pull_strategy is None:
            from repro.containers.distribution import FullPullStrategy

            pull_strategy = FullPullStrategy()
        self.pull_strategy = pull_strategy
        #: Optional fault injector (``FaultPlan.install`` attaches one).
        self.fault_injector = None
        #: Optional observatory; ``None`` keeps every hook inert.
        self.obs = None
        self._containers: Dict[str, Container] = {}
        #: Live (RUNNING or EXECUTING) containers by id, kept at the
        #: FSM's edges: a container enters when its boot reaches
        #: RUNNING and leaves at its one ``-> STOPPING`` transition.
        self._live: Dict[str, Container] = {}
        self._local_images: set[str] = set()
        #: Lazy pulls defer bytes; the first exec per image pays them.
        self._pending_exec_penalty_ms: Dict[str, float] = {}
        self._ids = itertools.count()
        self._capacity_waiters: List[Event] = []

    # -- inventory ---------------------------------------------------------
    def get(self, container_id: str) -> Container:
        """Look up a container by id."""
        try:
            return self._containers[container_id]
        except KeyError:
            raise ContainerError(f"no such container {container_id!r}") from None

    def live_containers(self) -> Tuple[Container, ...]:
        """All live (running or executing) containers, by id."""
        return tuple(c for _, c in sorted(self._live.items()))

    @property
    def live_count(self) -> int:
        """Number of live containers on this host."""
        return len(self._live)

    def check_consistency(self) -> None:
        """Audit the live index against a scan of the lifecycle FSM.

        Containers compare by identity, so equality with the scan also
        proves every indexed container is still the one the engine holds.
        """
        scanned = {cid: c for cid, c in self._containers.items() if c.is_live}
        assert self._live == scanned, (
            f"{self.name}: live index {sorted(self._live)} != "
            f"FSM scan {sorted(scanned)}"
        )

    def has_image(self, reference: str) -> bool:
        """Whether the image is in the local cache."""
        image = self.registry.resolve(reference)
        return image.reference in self._local_images

    # -- fault injection ----------------------------------------------------
    def attach_fault_injector(self, injector) -> None:
        """Install a :class:`~repro.faults.injector.FaultInjector`.

        Boot and exec paths consult the injector from then on; pass
        ``None`` to detach it again.
        """
        self.fault_injector = injector

    # -- observability hooks -------------------------------------------------
    def attach_observatory(self, observatory) -> None:
        """Install a :class:`~repro.obs.Observatory` (``None`` detaches).

        Boot start/end events and boot-duration histograms are recorded
        from then on; detached, every hook costs one ``is None`` check.
        """
        self.obs = observatory

    @property
    def is_down(self) -> bool:
        """Whether a scheduled host outage currently holds this host."""
        return self.fault_injector is not None and self.fault_injector.host_is_down()

    @property
    def is_unreachable(self) -> bool:
        """Down *or* partitioned: the control plane cannot reach it.

        A partitioned host keeps its containers alive (the warm pool
        survives the heal) but cannot take new work; the cluster's
        health bookkeeping keys off this rather than :attr:`is_down`.
        """
        injector = self.fault_injector
        return injector is not None and (injector.down or injector.partitioned)

    def _fault_scale(self) -> float:
        """Gray-slowdown latency multiplier (1.0 with no injector)."""
        injector = self.fault_injector
        return 1.0 if injector is None else injector.latency_multiplier

    # -- capacity waiting ---------------------------------------------------
    def _acquire(self, owner: str, cpu: float, mem: float):
        """Process: block until the host can commit ``cpu``/``mem``."""
        while not self.resources.can_allocate(cpu, mem):
            waiter = self.sim.event(name=f"capacity({owner})")
            self._capacity_waiters.append(waiter)
            yield waiter
        return self.resources.allocate(owner, cpu, mem)

    def _release(self, allocation) -> None:
        self.resources.release(allocation)
        waiters, self._capacity_waiters = self._capacity_waiters, []
        for waiter in waiters:
            # Wake at the current instant; each waiter re-checks capacity.
            self.sim._queue.push(self.sim.now, waiter.succeed, (None,))

    # -- image handling -------------------------------------------------------
    def ensure_image(self, reference: str) -> Generator:
        """Process: materialise the image locally unless cached.

        The cost structure is delegated to the engine's pull strategy
        (full download, lazy/partial pull, or P2P — Section III-B's
        industry practices).  Lazy strategies may defer bytes whose
        fetch stalls the first execution instead.
        """
        image = self.registry.resolve(reference)
        if image.reference in self._local_images:
            return image
        yield from self.pull_strategy.pull(self, image)
        penalty = self.pull_strategy.first_exec_penalty_ms(self, image)
        if penalty > 0:
            self._pending_exec_penalty_ms[image.reference] = penalty
        self.registry.record_pull(image.reference)
        self.stats.image_pulls += 1
        self._local_images.add(image.reference)
        return image

    # -- lifecycle --------------------------------------------------------
    def boot_container(
        self, config: ContainerConfig, warm_runtime: bool = False
    ) -> Generator:
        """Process: full cold boot; returns a RUNNING container.

        Pays pull (if needed) + create + network + volume + start, then
        commits the idle live-container footprint (Fig 15a: ~0.7 MB).

        ``warm_runtime=True`` additionally boots the language runtime
        baked into the image (when it declares one) so the container is
        a genuinely *hot* runtime — this is what HotC's prewarm path
        uses: the init cost is paid here, off any request's critical
        path, instead of on the first exec.
        """
        obs = self.obs
        if obs is None:
            return (yield from self._boot_container(config, warm_runtime))
        started = self.sim.now
        obs.emit(
            EventKind.BOOT_START,
            t=started,
            host=self.name,
            key=config.image,
            warm_runtime=warm_runtime,
        )
        try:
            container = yield from self._boot_container(config, warm_runtime)
        except Exception as error:
            obs.emit(
                EventKind.BOOT_END,
                t=self.sim.now,
                host=self.name,
                key=config.image,
                ok=False,
                error=type(error).__name__,
            )
            obs.counter(
                "boot_failures_total",
                help="Boots that raised instead of returning a container",
                host=self.name,
            ).inc()
            raise
        obs.emit(
            EventKind.BOOT_END,
            t=self.sim.now,
            host=self.name,
            key=config.image,
            ok=True,
            container=container.container_id,
        )
        obs.counter(
            "boots_total", help="Completed container boots", host=self.name
        ).inc()
        obs.histogram(
            "boot_duration_ms",
            help="Wall time of a full cold boot",
            host=self.name,
        ).observe(self.sim.now - started)
        return container

    def _boot_container(
        self, config: ContainerConfig, warm_runtime: bool
    ) -> Generator:
        if config.network.peer is not None:
            peer = self.get(config.network.peer)
            if not peer.is_live:
                raise ContainerError(
                    f"network peer {config.network.peer} is not live"
                )
        if self.fault_injector is not None:
            # May raise (outage / transient / boot failure) or straggle.
            yield from self.fault_injector.boot_gate(self)
        yield from self.ensure_image(config.image)

        container = Container(
            container_id=f"{self.name}/c{next(self._ids):06d}",
            config=config,
            created_at=self.sim.now,
        )
        self._containers[container.container_id] = container

        # Gray slowdown: a degraded host pays every boot stage scaled by
        # the injector's multiplier (1.0x is bit-identical to no fault).
        scale = self._fault_scale()
        yield self.sim.timeout(
            scale
            * self.latency.container_create(
                shared_namespace=config.network.mode == "container"
            )
        )
        yield self.sim.timeout(
            scale * self.latency.network_setup(config.network.mode)
        )

        volume = self.volumes.create()
        self.volumes.mount(volume, container.container_id)
        container.volume = volume
        yield self.sim.timeout(scale * self.latency.volume_mount())

        container.transition(ContainerState.STARTING)
        yield self.sim.timeout(scale * self.latency.container_start())

        container.idle_allocation = yield from self._acquire(
            container.container_id,
            self.latency.ops.idle_container_cpu_millicores,
            self.latency.ops.idle_container_mem_mb,
        )
        container.transition(ContainerState.RUNNING)
        self._live[container.container_id] = container
        container.started_at = self.sim.now
        self.stats.boots += 1
        if self.fault_injector is not None:
            # Per-boot degradation lottery (leak / decay / crash loop);
            # zero-rate specs consume no RNG draw here.
            self.fault_injector.assign_degradation(container)

        image = self.registry.resolve(config.image)
        if warm_runtime and image.language is not None:
            yield self.sim.timeout(
                scale * self.latency.runtime_init(image.language)
            )
            container.runtime_initialized = True
        if self.is_down:
            # The host went down while this boot was in flight: the
            # container never becomes usable.
            self.kill_container(container)
            from repro.faults.errors import HostDownError

            raise HostDownError(f"host {self.name} went down during boot")
        return container

    def execute(self, container: Container, spec: ExecSpec) -> Generator:
        """Process: run ``spec`` in a RUNNING container; returns ExecResult.

        The first exec in a fresh container is the *cold* path (runtime
        init + app init); later execs are *warm* and pay only code
        injection, plus app init when the app changed.
        """
        if not container.is_reusable:
            raise ContainerError(
                f"container {container.container_id} is "
                f"{container.state.value}, not running/idle"
            )
        image = self.registry.resolve(container.config.image)
        if image.language is not None and image.language != spec.language:
            raise ContainerError(
                f"image {image.reference} provides {image.language!r}, "
                f"spec wants {spec.language!r}"
            )
        if container.poisoned:
            # Dirty interpreter state from an earlier run: fail before
            # touching the lifecycle so the watchdog can discard the
            # container and retry elsewhere.
            from repro.faults.errors import StatePoisonError

            self.stats.poison_failures += 1
            raise StatePoisonError(
                f"container {container.container_id} has poisoned "
                "runtime state"
            )

        container.transition(ContainerState.EXECUTING)
        started_at = self.sim.now
        cold = not container.runtime_initialized

        container.exec_allocation = yield from self._acquire(
            f"exec:{container.container_id}",
            container.config.cpu_millicores,
            container.config.mem_mb,
        )
        try:
            runtime_init_ms = 0.0
            app_init_ms = 0.0
            # Gray slowdown: exec stages on a degraded host run scaled.
            scale = self._fault_scale()

            # The pre-exec stages accumulate into a single timeout
            # charged together with the execution itself: an exec runs
            # once per request, so the event count matters at trace
            # scale.  Latency draws keep their stage order.
            pending_ms = 0.0
            if cold:
                # A lazily-pulled image stalls its first execution on
                # this host while the deferred layers stream in.
                penalty = self._pending_exec_penalty_ms.pop(
                    image.reference, 0.0
                )
                if penalty > 0:
                    pending_ms += scale * penalty
                runtime_init_ms = scale * self.latency.runtime_init(spec.language)
                pending_ms += runtime_init_ms
                container.runtime_initialized = True
                self.stats.cold_execs += 1
            else:
                pending_ms += scale * self.latency.code_inject()
                self.stats.warm_execs += 1

            if spec.app_init_ms > 0 and container.last_app_id != spec.app_id:
                app_init_ms = scale * self.latency.app_init(
                    spec.app_init_ms, spec.language
                )
                pending_ms += app_init_ms

            exec_ms = scale * self.latency.app_execution(spec.exec_ms, spec.language)
            if container.decay_factor != 1.0:
                # Compounding per-reuse slowdown (PERF_DECAY).
                exec_ms *= container.decay_factor ** container.exec_count
            if (
                container.crash_loop_after is not None
                and container.exec_count >= container.crash_loop_after
            ):
                from repro.faults.errors import ExecCrash

                yield self.sim.timeout(pending_ms + 0.5 * exec_ms)
                raise ExecCrash(
                    f"container {container.container_id} is crash-looping "
                    f"(exec #{container.exec_count})"
                )
            if self.fault_injector is not None:
                crash_at_ms = self.fault_injector.exec_crash_point(exec_ms)
                if crash_at_ms is not None:
                    from repro.faults.errors import ExecCrash

                    yield self.sim.timeout(pending_ms + min(crash_at_ms, exec_ms))
                    raise ExecCrash(
                        f"container {container.container_id} crashed mid-execution"
                    )
            yield self.sim.timeout(pending_ms + exec_ms)

            output = spec.payload() if spec.payload is not None else None

            if spec.write_mb > 0:
                if container.volume is None:
                    raise ContainerError(
                        f"container {container.container_id} has no volume"
                    )
                container.volume.write(
                    f"output/{spec.app_id}-{container.exec_count}.dat",
                    spec.write_mb,
                )
        except Exception as error:
            from repro.faults.errors import ExecCrash

            if isinstance(error, ExecCrash):
                self.stats.exec_crashes += 1
                self._destroy(container)
            raise
        finally:
            self._release(container.exec_allocation)
            container.exec_allocation = None

        if self.is_down:
            # The host died under this execution: the result is lost.
            from repro.faults.errors import HostDownError

            self.stats.exec_crashes += 1
            self._destroy(container)
            raise HostDownError(
                f"host {self.name} went down during execution of "
                f"{container.container_id}"
            )
        container.last_app_id = spec.app_id
        container.exec_count += 1
        container.last_exec_ms = exec_ms
        if container.leak_slope_mb:
            container.rss_mb += container.leak_slope_mb
        if (
            self.fault_injector is not None
            and self.fault_injector.exec_poison()
        ):
            container.poisoned = True
        container.transition(ContainerState.RUNNING)
        return ExecResult(
            container_id=container.container_id,
            app_id=spec.app_id,
            started_at=started_at,
            finished_at=self.sim.now,
            cold_start=cold,
            runtime_init_ms=runtime_init_ms,
            app_init_ms=app_init_ms,
            exec_ms=exec_ms,
            output=output,
        )

    def clean_container(self, container: Container) -> Generator:
        """Process: HotC Algorithm 2 — wipe the volume, mount a fresh one.

        The container must be idle.  Afterwards it is indistinguishable
        from a freshly booted container of the same runtime type, except
        that its runtime (and last app's business logic) stay hot.
        """
        if not container.is_reusable:
            raise ContainerError(
                f"cannot clean {container.state.value} container "
                f"{container.container_id}"
            )
        old_volume = container.volume
        if old_volume is None:
            raise ContainerError(
                f"container {container.container_id} has no volume"
            )
        # Wipe and remount share one timeout (cleans run once per
        # recycled request, so the event count matters at trace scale);
        # the latency draws keep their wipe-then-mount RNG order.
        wipe_ms = self.latency.volume_wipe()
        mount_ms = self.latency.volume_mount()
        yield self.sim.timeout(wipe_ms + mount_ms)
        old_volume.wipe()
        self.volumes.unmount(old_volume)
        self.volumes.delete(old_volume)

        fresh = self.volumes.create()
        self.volumes.mount(fresh, container.container_id)
        container.volume = fresh
        self.stats.volume_wipes += 1
        return fresh

    def stop_container(self, container: Container) -> Generator:
        """Process: stop a live container, releasing its footprint."""
        if not container.is_live:
            raise ContainerError(
                f"container {container.container_id} is not live"
            )
        container.transition(ContainerState.STOPPING)
        del self._live[container.container_id]
        yield self.sim.timeout(self.latency.container_stop())
        self._mark_stopped(container)
        self.stats.stops += 1
        return container

    def _mark_stopped(self, container: Container) -> None:
        """STOPPING -> STOPPED: release the idle allocation and the volume."""
        container.transition(ContainerState.STOPPED)
        if container.idle_allocation is not None:
            self._release(container.idle_allocation)
            container.idle_allocation = None
        if container.volume is not None:
            self.volumes.unmount(container.volume)
            self.volumes.delete(container.volume)
            container.volume = None

    def kill_container(self, container: Container) -> Container:
        """Instantly terminate an *idle* container (failure injection).

        Models a crash / OOM-kill of a pooled runtime: no graceful stop
        latency, resources and volume reclaimed immediately.  Busy
        containers cannot be killed through this API (their in-flight
        exec owns the lifecycle).
        """
        if not container.is_reusable:
            raise ContainerError(
                f"can only kill idle containers; "
                f"{container.container_id} is {container.state.value}"
            )
        self._destroy(container)
        self.stats.kills += 1
        return container

    def _destroy(self, container: Container) -> None:
        """Instant teardown of a live container, idle or executing.

        No stop or remove latency: resources and volume are reclaimed
        immediately.  A crashed exec's own allocation is its caller's
        to release.
        """
        container.transition(ContainerState.STOPPING)
        del self._live[container.container_id]
        self._mark_stopped(container)
        container.transition(ContainerState.REMOVED)
        del self._containers[container.container_id]

    def remove_container(self, container: Container) -> Generator:
        """Process: remove a stopped (or never-started) container."""
        if container.state not in (ContainerState.STOPPED, ContainerState.CREATED):
            raise ContainerError(
                f"cannot remove {container.state.value} container "
                f"{container.container_id}"
            )
        yield self.sim.timeout(self.latency.container_remove())
        container.transition(ContainerState.REMOVED)
        del self._containers[container.container_id]
        self.stats.removes += 1
        return container

    # -- observability ----------------------------------------------------
    def sample_resources(self) -> None:
        """Record a host resource snapshot at the current sim time."""
        self.resources.sample(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ContainerEngine {self.name} profile={self.profile.name} "
            f"live={self.live_count}>"
        )
