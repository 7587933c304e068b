"""Deterministic fault injection (the reliability extension, Section VII).

The paper's middleware keeps *live* container runtimes, so real
deployments must survive runtimes that die: failed and straggling
boots, containers crashing mid-execution, pooled runtimes OOM-killed
out from under the pool, transient engine errors, and whole-host
outages.  This package injects all of those deterministically:

* :class:`~repro.faults.plan.FaultPlan` — a seeded plan of
  probabilistic rates plus scheduled faults; same seed, same schedule.
* :class:`~repro.faults.injector.FaultInjector` — the per-host hook
  surface :class:`~repro.containers.engine.ContainerEngine` consults on
  every boot and execution.
* :mod:`~repro.faults.errors` — the failure taxonomy consumers
  recover from (retry + backoff, circuit breaker, cluster failover,
  bounded request retries).
"""

from repro.faults.errors import (
    BootFailure,
    ExecCrash,
    HostDownError,
    InjectedFault,
    RuntimeUnavailableError,
    StatePoisonError,
    TransientEngineError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultStats,
    ScheduledFault,
)

__all__ = [
    "BootFailure",
    "ExecCrash",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FaultStats",
    "HostDownError",
    "InjectedFault",
    "RuntimeUnavailableError",
    "ScheduledFault",
    "StatePoisonError",
    "TransientEngineError",
]
