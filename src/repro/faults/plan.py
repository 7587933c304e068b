"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is the single source of truth for everything that
goes wrong in a run: *probabilistic* faults (a rate per decision point,
drawn from a named RNG stream per host) and *scheduled* faults (a fixed
``(time, kind, host)`` list executed by simulator callbacks).  Two plans
built from the same seed produce bit-identical injection schedules and
per-decision draws, so every chaos run is reproducible.

Usage::

    plan = FaultPlan.random(seed=7, duration_ms=60_000, hosts=("host-0",))
    injectors = plan.install(platform.sim, [platform.engine])
    platform.run(until=120_000)
    print(plan.stats)          # what was actually injected
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.sim.rng import derive_seed

__all__ = ["FaultKind", "FaultPlan", "FaultSpec", "FaultStats", "ScheduledFault"]


class FaultKind(enum.Enum):
    """Every failure mode the subsystem can inject."""

    BOOT_FAILURE = "boot_failure"
    BOOT_STRAGGLER = "boot_straggler"
    TRANSIENT_ERROR = "transient_error"
    EXEC_CRASH = "exec_crash"
    POOL_DEATH = "pool_death"
    HOST_OUTAGE = "host_outage"
    #: Gray failure: the host stays up but every boot/exec stage runs
    #: ``factor`` times slower for ``duration_ms``.
    GRAY_SLOWDOWN = "gray_slowdown"
    #: Network partition: the host is unreachable (new boots refused,
    #: heartbeats lost) but its containers stay alive, so the warm pool
    #: survives the heal.
    PARTITION = "partition"
    #: Heartbeat loss/flap: telemetry-only — the host keeps serving but
    #: the failure detector sees silence for ``duration_ms``.
    HEARTBEAT_LOSS = "heartbeat_loss"
    #: The control plane itself crashes, losing its in-memory pool
    #: metadata; a :class:`~repro.recovery.RecoveryManager` rebuilds it
    #: after ``duration_ms``.
    CONTROLLER_CRASH = "controller_crash"
    #: Container-degradation kinds (assigned probabilistically per boot
    #: or per exec; the container carries the affliction from then on).
    #: The container leaks ``memory_leak_mb`` of RSS per reuse.
    MEMORY_LEAK = "memory_leak"
    #: An exec (or a repurpose re-spec) leaves the runtime dirty;
    #: every subsequent exec on the container fails.
    STATE_POISON = "state_poison"
    #: Each reuse multiplies the container's exec time by
    #: ``perf_decay_factor`` (compounding slowdown).
    PERF_DECAY = "perf_decay"
    #: After ``crash_loop_after`` execs the container crashes on every
    #: further exec until it is destroyed.
    CRASH_LOOP = "crash_loop"


@dataclass(frozen=True)
class FaultSpec:
    """Probabilistic fault rates, applied per decision point.

    ``boot_*`` and ``transient_error_rate`` are evaluated once per boot
    attempt; ``exec_crash_rate`` once per execution.  A rate of 0
    removes that decision entirely (no RNG draw is consumed), so a
    zero-rate spec leaves the simulation bit-identical to one with no
    injector attached.
    """

    boot_failure_rate: float = 0.0
    boot_straggler_rate: float = 0.0
    #: Extra delay a straggling boot pays before proceeding.
    boot_straggler_ms: float = 10_000.0
    transient_error_rate: float = 0.0
    exec_crash_rate: float = 0.0
    #: Degradation rates: ``*_rate`` decides per boot (MEMORY_LEAK,
    #: PERF_DECAY, CRASH_LOOP) or per successful exec (STATE_POISON)
    #: whether the container picks up the affliction; the companion
    #: magnitude fields shape it.
    memory_leak_rate: float = 0.0
    #: RSS growth (MB) a leaky container accumulates per reuse.
    memory_leak_mb: float = 8.0
    state_poison_rate: float = 0.0
    perf_decay_rate: float = 0.0
    #: Compounding per-reuse exec-time multiplier of a decaying
    #: container (must be > 1 to be a decay).
    perf_decay_factor: float = 1.05
    crash_loop_rate: float = 0.0
    #: Execs a crash-looping container completes before every further
    #: exec crashes.
    crash_loop_after: int = 5

    _RATES = (
        "boot_failure_rate",
        "boot_straggler_rate",
        "transient_error_rate",
        "exec_crash_rate",
        "memory_leak_rate",
        "state_poison_rate",
        "perf_decay_rate",
        "crash_loop_rate",
    )

    def __post_init__(self) -> None:
        for name in self._RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.boot_straggler_ms < 0:
            raise ValueError("boot_straggler_ms must be >= 0")
        if self.memory_leak_mb <= 0:
            raise ValueError("memory_leak_mb must be > 0")
        if self.perf_decay_factor <= 1.0:
            raise ValueError("perf_decay_factor must be > 1")
        if self.crash_loop_after < 1:
            raise ValueError("crash_loop_after must be >= 1")

    @property
    def is_zero(self) -> bool:
        """Whether this spec injects nothing probabilistically."""
        return all(getattr(self, name) == 0.0 for name in self._RATES)


@dataclass(frozen=True)
class ScheduledFault:
    """One fault pinned to an absolute simulation time.

    ``POOL_DEATH`` kills ``count`` idle pooled containers on ``host``;
    ``HOST_OUTAGE`` takes ``host`` down for ``duration_ms`` (idle
    containers die instantly, in-flight boots and executions fail with
    :class:`~repro.faults.errors.HostDownError` when they complete).
    """

    at_ms: float
    kind: FaultKind
    host: str = ""
    duration_ms: float = 0.0
    count: int = 1
    #: Latency multiplier applied for GRAY_SLOWDOWN's duration.
    factor: float = 2.0

    #: Kinds that run for a duration and therefore require one.
    _TIMED = (
        FaultKind.HOST_OUTAGE,
        FaultKind.GRAY_SLOWDOWN,
        FaultKind.PARTITION,
        FaultKind.HEARTBEAT_LOSS,
        FaultKind.CONTROLLER_CRASH,
    )

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("at_ms must be >= 0")
        if self.kind in (
            FaultKind.BOOT_FAILURE,
            FaultKind.BOOT_STRAGGLER,
            FaultKind.TRANSIENT_ERROR,
            FaultKind.EXEC_CRASH,
            FaultKind.MEMORY_LEAK,
            FaultKind.STATE_POISON,
            FaultKind.PERF_DECAY,
            FaultKind.CRASH_LOOP,
        ):
            raise ValueError(
                f"{self.kind} is probabilistic (FaultSpec), not schedulable"
            )
        if self.kind in self._TIMED and self.duration_ms <= 0:
            raise ValueError(f"{self.kind.value} needs duration_ms > 0")
        if self.kind is FaultKind.GRAY_SLOWDOWN and self.factor <= 1.0:
            raise ValueError("GRAY_SLOWDOWN needs factor > 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class FaultStats:
    """Counts of faults actually injected (one instance per plan)."""

    boot_failures: int = 0
    boot_stragglers: int = 0
    transient_errors: int = 0
    exec_crashes: int = 0
    pool_deaths: int = 0
    host_outages: int = 0
    gray_slowdowns: int = 0
    partitions: int = 0
    heartbeat_losses: int = 0
    controller_crashes: int = 0
    memory_leaks: int = 0
    state_poisons: int = 0
    perf_decays: int = 0
    crash_loops: int = 0

    @property
    def total(self) -> int:
        """All injected faults."""
        return sum(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> Dict[str, int]:
        """Counter name → count (report input)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultPlan:
    """A seeded set of probabilistic rates plus scheduled faults.

    Parameters
    ----------
    seed:
        Root seed; every injector stream and every scheduled-fault
        target choice is derived from it.
    spec:
        Probabilistic rates (defaults to all-zero: no probabilistic
        faults).
    scheduled:
        :class:`ScheduledFault` entries, stored sorted by time so the
        schedule is order-independent of construction.
    """

    def __init__(
        self,
        seed: int = 0,
        spec: Optional[FaultSpec] = None,
        scheduled: Iterable[ScheduledFault] = (),
    ) -> None:
        self.seed = int(seed)
        self.spec = spec or FaultSpec()
        self.scheduled: Tuple[ScheduledFault, ...] = tuple(
            sorted(scheduled, key=lambda f: (f.at_ms, f.host, f.kind.value))
        )
        #: Injected-fault counters, shared by every injector of the plan.
        self.stats = FaultStats()

    # -- construction helpers -------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: attaches injectors that never fire."""
        return cls(seed=0)

    @classmethod
    def random(
        cls,
        seed: int,
        duration_ms: float,
        hosts: Sequence[str] = ("host-0",),
        spec: Optional[FaultSpec] = None,
        pool_deaths: int = 3,
        outages: int = 1,
        outage_ms: float = 5_000.0,
        gray_slowdowns: int = 0,
        gray_ms: float = 10_000.0,
        gray_factor: float = 3.0,
        partitions: int = 0,
        partition_ms: float = 5_000.0,
        heartbeat_losses: int = 0,
        heartbeat_loss_ms: float = 3_000.0,
        controller_crashes: int = 0,
        controller_crash_ms: float = 1_500.0,
        memory_leak_rate: float = 0.0,
        memory_leak_mb: float = 8.0,
        state_poison_rate: float = 0.0,
        perf_decay_rate: float = 0.0,
        perf_decay_factor: float = 1.05,
        crash_loop_rate: float = 0.0,
        crash_loop_after: int = 5,
    ) -> "FaultPlan":
        """A randomized-but-deterministic plan for chaos runs.

        Scheduled pool deaths and host outages are drawn uniformly over
        ``[0, duration_ms)`` (timed faults over the first 80% so
        recovery is observable); the same ``seed`` always yields the
        identical schedule.  ``spec`` defaults to a moderate
        probabilistic mix.  The gray-failure and controller-crash kinds
        default to zero occurrences, and the container-degradation
        rates (memory leak, state poison, perf decay, crash loop)
        default to zero, so existing plans are unchanged.
        Controller crashes are stratified over equal slices of the run
        so consecutive crash/recover windows never overlap.
        """
        if duration_ms <= 0:
            raise ValueError("duration_ms must be > 0")
        if not hosts:
            raise ValueError("need at least one host name")
        rng = np.random.default_rng(derive_seed(seed, "fault-plan"))
        scheduled = []
        for _ in range(pool_deaths):
            scheduled.append(
                ScheduledFault(
                    at_ms=float(rng.uniform(0.0, duration_ms)),
                    kind=FaultKind.POOL_DEATH,
                    host=str(hosts[int(rng.integers(len(hosts)))]),
                )
            )
        for _ in range(outages):
            scheduled.append(
                ScheduledFault(
                    at_ms=float(rng.uniform(0.0, duration_ms * 0.8)),
                    kind=FaultKind.HOST_OUTAGE,
                    host=str(hosts[int(rng.integers(len(hosts)))]),
                    duration_ms=float(outage_ms),
                )
            )
        timed = (
            (gray_slowdowns, FaultKind.GRAY_SLOWDOWN, gray_ms),
            (partitions, FaultKind.PARTITION, partition_ms),
            (heartbeat_losses, FaultKind.HEARTBEAT_LOSS, heartbeat_loss_ms),
        )
        for n, kind, fault_ms in timed:
            for _ in range(n):
                extra = (
                    {"factor": float(gray_factor)}
                    if kind is FaultKind.GRAY_SLOWDOWN
                    else {}
                )
                scheduled.append(
                    ScheduledFault(
                        at_ms=float(rng.uniform(0.0, duration_ms * 0.8)),
                        kind=kind,
                        host=str(hosts[int(rng.integers(len(hosts)))]),
                        duration_ms=float(fault_ms),
                        **extra,
                    )
                )
        if controller_crashes > 0:
            span = duration_ms * 0.8
            slice_ms = span / controller_crashes
            if controller_crash_ms >= slice_ms:
                raise ValueError(
                    "controller_crash_ms must be shorter than the per-crash "
                    f"slice ({slice_ms:.0f} ms) so crash windows never overlap"
                )
            for index in range(controller_crashes):
                # Uniform within the slice, leaving room for the recovery.
                lo = index * slice_ms
                hi = (index + 1) * slice_ms - controller_crash_ms
                scheduled.append(
                    ScheduledFault(
                        at_ms=float(rng.uniform(lo, hi)),
                        kind=FaultKind.CONTROLLER_CRASH,
                        duration_ms=float(controller_crash_ms),
                    )
                )
        if spec is None:
            spec = FaultSpec(
                boot_failure_rate=0.10,
                boot_straggler_rate=0.05,
                boot_straggler_ms=2_000.0,
                transient_error_rate=0.05,
                exec_crash_rate=0.05,
            )
        if (
            memory_leak_rate
            or state_poison_rate
            or perf_decay_rate
            or crash_loop_rate
        ):
            # Degradation rates layer onto the spec (default or caller
            # supplied); all-zero keeps the spec — and thus every
            # existing plan — untouched.
            spec = replace(
                spec,
                memory_leak_rate=memory_leak_rate,
                memory_leak_mb=memory_leak_mb,
                state_poison_rate=state_poison_rate,
                perf_decay_rate=perf_decay_rate,
                perf_decay_factor=perf_decay_factor,
                crash_loop_rate=crash_loop_rate,
                crash_loop_after=crash_loop_after,
            )
        return cls(seed=seed, spec=spec, scheduled=tuple(scheduled))

    # -- installation ---------------------------------------------------------
    def install(self, sim, engines) -> Dict[str, "FaultInjector"]:
        """Attach one injector per engine and arm the scheduled faults.

        Scheduled entries naming an unknown host target the first
        engine.  CONTROLLER_CRASH entries crash and recover the
        :class:`~repro.recovery.RecoveryManager` in ``sim.recovery``;
        scheduling one with no manager attached is a plan error.
        Returns the injectors by engine name.
        """
        from repro.faults.injector import FaultInjector

        engines = list(engines)
        if not engines:
            raise ValueError("install() needs at least one engine")
        by_name = {engine.name: engine for engine in engines}
        injectors: Dict[str, FaultInjector] = {}
        for engine in engines:
            injector = FaultInjector(
                spec=self.spec,
                rng=np.random.default_rng(
                    derive_seed(self.seed, f"faults:{engine.name}")
                ),
                stats=self.stats,
            )
            engine.attach_fault_injector(injector)
            injectors[engine.name] = injector
        victim_rng = np.random.default_rng(
            derive_seed(self.seed, "faults:scheduled")
        )
        for fault in self.scheduled:
            engine = by_name.get(fault.host, engines[0])
            injector = injectors[engine.name]
            delay = max(0.0, fault.at_ms - sim.now)
            after = delay + fault.duration_ms
            if fault.kind is FaultKind.POOL_DEATH:
                sim.schedule(delay, self._kill_idle, engine, fault.count, victim_rng)
            elif fault.kind is FaultKind.HOST_OUTAGE:
                sim.schedule(delay, self._begin_outage, engine, injector)
                sim.schedule(after, self._end_outage, injector)
            elif fault.kind is FaultKind.GRAY_SLOWDOWN:
                sim.schedule(delay, self._begin_gray, injector, fault.factor)
                sim.schedule(after, self._end_gray, injector)
            elif fault.kind is FaultKind.PARTITION:
                sim.schedule(delay, self._begin_partition, injector)
                sim.schedule(after, self._end_partition, injector)
            elif fault.kind is FaultKind.HEARTBEAT_LOSS:
                sim.schedule(delay, self._begin_heartbeat_loss, injector)
                sim.schedule(after, self._end_heartbeat_loss, injector)
            else:  # CONTROLLER_CRASH
                recovery = sim.recovery
                if recovery is None:
                    raise ValueError(
                        "the plan schedules a CONTROLLER_CRASH but no "
                        "recovery manager is attached to the simulator"
                    )
                sim.schedule(delay, self._crash_controller, recovery)
                sim.schedule(after, self._recover_controller, recovery)
        return injectors

    # -- scheduled-fault executors (simulator callbacks) ----------------------
    def _kill_idle(self, engine, count: int, rng: np.random.Generator) -> None:
        # live_containers() is already in id order.
        candidates = [c for c in engine.live_containers() if c.is_reusable]
        for _ in range(min(count, len(candidates))):
            victim = candidates.pop(int(rng.integers(len(candidates))))
            engine.kill_container(victim)
            self.stats.pool_deaths += 1

    def _begin_outage(self, engine, injector) -> None:
        injector.down = True
        self.stats.host_outages += 1
        # Idle containers die with the host; busy ones crash when their
        # in-flight execution (or boot) reaches its completion check.
        for container in engine.live_containers():
            if container.is_reusable:
                engine.kill_container(container)

    def _end_outage(self, injector) -> None:
        injector.down = False

    def _begin_gray(self, injector, factor: float) -> None:
        injector.latency_multiplier = factor
        self.stats.gray_slowdowns += 1

    def _end_gray(self, injector) -> None:
        injector.latency_multiplier = 1.0

    def _begin_partition(self, injector) -> None:
        # Unreachable but alive: new boots are refused and heartbeats
        # stop, yet no container is killed — the warm pool survives.
        injector.partitioned = True
        self.stats.partitions += 1

    def _end_partition(self, injector) -> None:
        injector.partitioned = False

    def _begin_heartbeat_loss(self, injector) -> None:
        injector.heartbeats_lost = True
        self.stats.heartbeat_losses += 1

    def _end_heartbeat_loss(self, injector) -> None:
        injector.heartbeats_lost = False

    def _crash_controller(self, recovery) -> None:
        if recovery.crash():
            self.stats.controller_crashes += 1

    def _recover_controller(self, recovery) -> None:
        recovery.recover()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultPlan seed={self.seed} scheduled={len(self.scheduled)} "
            f"spec_zero={self.spec.is_zero}>"
        )
