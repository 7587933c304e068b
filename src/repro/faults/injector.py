"""Per-host fault injector: the hook surface the engine consults.

One :class:`FaultInjector` is attached to each
:class:`~repro.containers.engine.ContainerEngine` (see
``FaultPlan.install``).  The engine consults it at two decision points:

* :meth:`boot_gate` at the start of every ``boot_container`` — may
  raise (host down / transient error / boot failure) or delay (boot
  straggler);
* :meth:`exec_crash_point` at the start of every execution — returns
  the time offset at which the exec should crash, or ``None``.

Probabilistic decisions draw from the injector's own RNG stream in a
fixed order, so runs are reproducible given the same seed and workload.
Unit tests can bypass probability entirely with the ``*_next_*``
scripting hooks, which inject exactly-N deterministic faults.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.faults.errors import (
    BootFailure,
    HostDownError,
    TransientEngineError,
)
from repro.faults.plan import FaultSpec, FaultStats

__all__ = ["FaultInjector"]


class FaultInjector:
    """Decides, per engine operation, whether and how to fail it."""

    def __init__(
        self,
        spec: Optional[FaultSpec] = None,
        rng: Optional[np.random.Generator] = None,
        stats: Optional[FaultStats] = None,
    ) -> None:
        #: Mutable on purpose: tests flip rates mid-run to steer phases.
        self.spec = spec or FaultSpec()
        self.rng = rng or np.random.default_rng(0)
        self.stats = stats or FaultStats()
        #: Host-outage flag, toggled by the plan's scheduled callbacks.
        self.down = False
        #: Network-partition flag: the host is unreachable (new boots
        #: refused, heartbeats lost) but its containers stay alive.
        self.partitioned = False
        #: Gray-slowdown multiplier applied to boot/exec stage latencies
        #: (1.0 = healthy; the engine multiplies stage sleeps by this).
        self.latency_multiplier = 1.0
        #: Telemetry-only fault: heartbeats stop while the data plane
        #: keeps serving (exercises the failure detector's false-alarm
        #: handling).
        self.heartbeats_lost = False
        self._forced_boot_failures = 0
        self._forced_transient_errors = 0
        self._forced_exec_crashes = 0
        self._forced_boot_delays: List[float] = []
        self._forced_leaks: List[float] = []
        self._forced_decays: List[float] = []
        self._forced_crash_loops: List[int] = []
        self._forced_poisons = 0

    # -- scripting hooks (deterministic unit-test control) --------------------
    def fail_next_boots(self, n: int = 1) -> None:
        """Force the next ``n`` boots to raise :class:`BootFailure`."""
        self._forced_boot_failures += n

    def glitch_next_boots(self, n: int = 1) -> None:
        """Force the next ``n`` boots to raise :class:`TransientEngineError`."""
        self._forced_transient_errors += n

    def delay_next_boots(self, ms: float, n: int = 1) -> None:
        """Make the next ``n`` boots straggle by ``ms`` milliseconds."""
        self._forced_boot_delays.extend([float(ms)] * n)

    def crash_next_execs(self, n: int = 1) -> None:
        """Force the next ``n`` executions to crash mid-run."""
        self._forced_exec_crashes += n

    def leak_next_boots(self, slope_mb: float, n: int = 1) -> None:
        """Give the next ``n`` booted containers a memory leak."""
        self._forced_leaks.extend([float(slope_mb)] * n)

    def decay_next_boots(self, factor: float, n: int = 1) -> None:
        """Give the next ``n`` booted containers compounding perf decay."""
        self._forced_decays.extend([float(factor)] * n)

    def crashloop_next_boots(self, after: int, n: int = 1) -> None:
        """Make the next ``n`` booted containers crash-loop after
        ``after`` completed execs."""
        self._forced_crash_loops.extend([int(after)] * n)

    def poison_next_execs(self, n: int = 1) -> None:
        """Leave the container dirty after each of the next ``n``
        successful executions."""
        self._forced_poisons += n

    # -- engine hook: boot path ------------------------------------------------
    def host_is_down(self) -> bool:
        """Whether a scheduled outage currently holds the host down."""
        return self.down

    def boot_gate(self, engine) -> Generator:
        """Process fragment run at the top of every ``boot_container``.

        Raises the selected fault (counting it both as injected on the
        plan's :class:`FaultStats` and as observed on the engine's
        stats) or delays the boot for a straggler.  Order of checks:
        outage, transient error, boot failure, straggler.
        """
        if self.down:
            raise HostDownError(f"host {engine.name} is down")
        if self.partitioned:
            raise HostDownError(
                f"host {engine.name} is unreachable (network partition)"
            )
        if self._forced_transient_errors > 0:
            self._forced_transient_errors -= 1
            yield from self._raise_transient(engine)
        if self._forced_boot_failures > 0:
            self._forced_boot_failures -= 1
            yield from self._raise_boot_failure(engine)
        if self._forced_boot_delays:
            yield from self._straggle(engine, self._forced_boot_delays.pop(0))
        spec = self.spec
        if spec.transient_error_rate and self.rng.random() < spec.transient_error_rate:
            yield from self._raise_transient(engine)
        if spec.boot_failure_rate and self.rng.random() < spec.boot_failure_rate:
            yield from self._raise_boot_failure(engine)
        if spec.boot_straggler_rate and self.rng.random() < spec.boot_straggler_rate:
            yield from self._straggle(engine, spec.boot_straggler_ms)

    def _raise_transient(self, engine) -> Generator:
        self.stats.transient_errors += 1
        engine.stats.transient_errors += 1
        raise TransientEngineError(f"injected transient error on {engine.name}")
        yield  # pragma: no cover - generator marker

    def _raise_boot_failure(self, engine) -> Generator:
        self.stats.boot_failures += 1
        engine.stats.boot_failures += 1
        raise BootFailure(f"injected boot failure on {engine.name}")
        yield  # pragma: no cover - generator marker

    def _straggle(self, engine, ms: float) -> Generator:
        self.stats.boot_stragglers += 1
        yield ms

    # -- engine hook: exec path ------------------------------------------------
    def exec_crash_point(self, exec_ms: float) -> Optional[float]:
        """When (ms into the exec) the execution should crash, else ``None``.

        The engine calls this once per execution with the already
        jittered exec duration; a crash lands somewhere inside it.
        """
        if self._forced_exec_crashes > 0:
            self._forced_exec_crashes -= 1
            self.stats.exec_crashes += 1
            return exec_ms * 0.5
        spec = self.spec
        if spec.exec_crash_rate and self.rng.random() < spec.exec_crash_rate:
            self.stats.exec_crashes += 1
            return exec_ms * float(self.rng.uniform(0.1, 0.9))
        return None

    # -- engine hook: container degradation ------------------------------------
    def assign_degradation(self, container) -> None:
        """Afflict a freshly booted container (called once per boot).

        Decision order is fixed — memory leak, perf decay, crash loop —
        and each zero-rate kind consumes no RNG draw, so an all-zero
        spec leaves the boot path bit-identical.  Scripted hooks take
        precedence over (and skip) the probabilistic draw of their kind.
        """
        spec = self.spec
        if self._forced_leaks:
            container.leak_slope_mb = self._forced_leaks.pop(0)
            self.stats.memory_leaks += 1
        elif spec.memory_leak_rate and self.rng.random() < spec.memory_leak_rate:
            container.leak_slope_mb = spec.memory_leak_mb
            self.stats.memory_leaks += 1
        if self._forced_decays:
            container.decay_factor = self._forced_decays.pop(0)
            self.stats.perf_decays += 1
        elif spec.perf_decay_rate and self.rng.random() < spec.perf_decay_rate:
            container.decay_factor = spec.perf_decay_factor
            self.stats.perf_decays += 1
        if self._forced_crash_loops:
            container.crash_loop_after = self._forced_crash_loops.pop(0)
            self.stats.crash_loops += 1
        elif spec.crash_loop_rate and self.rng.random() < spec.crash_loop_rate:
            container.crash_loop_after = spec.crash_loop_after
            self.stats.crash_loops += 1

    def exec_poison(self) -> bool:
        """Whether this (successful) exec leaves the container dirty.

        Called once per successful execution on a not-yet-poisoned
        container; a zero rate consumes no RNG draw.
        """
        if self._forced_poisons > 0:
            self._forced_poisons -= 1
            self.stats.state_poisons += 1
            return True
        spec = self.spec
        if spec.state_poison_rate and self.rng.random() < spec.state_poison_rate:
            self.stats.state_poisons += 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector down={self.down} spec_zero={self.spec.is_zero}>"
