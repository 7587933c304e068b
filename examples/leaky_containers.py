#!/usr/bin/env python3
"""Container aging: reuse-at-depth rots runtimes — unless they recycle.

Runtime reuse is the paper's whole cold-start cure, but a container
serving its 50th request is not the container that served its 1st:
leaked RSS accumulates, interpreter state goes stale, and per-reuse
slowdown compounds.  This example runs the same Poisson workload twice
— once with plain HotC reuse, once with the container health plane
enabled — while every boot rolls the degradation lottery (40 % of
containers leak 24 MB per exec, 3 % of execs leave poisoned state
behind, half the containers slow down 8 % per reuse), and compares tail
latency and failures.

The health plane scores each container from exec outcomes, an EWMA
latency residual against its key's baseline, and its RSS trajectory,
and marks it on the container as tainted (suspect) or condemned;
verdicts pull the container out of every reuse index and a token-bucket recycle loop
destroys it and prewarms a fresh replacement.

Run:  python examples/leaky_containers.py
"""

from repro.core import HotC, HotCConfig
from repro.faas import FaasPlatform, FunctionSpec
from repro.faults import FaultPlan, FaultSpec
from repro.health import ContainerHealthConfig
from repro.workloads import default_catalog

N_REQUESTS = 1000
DURATION_MS = 300_000.0

DEGRADATION = FaultSpec(
    memory_leak_rate=0.4,
    memory_leak_mb=24.0,
    state_poison_rate=0.03,
    perf_decay_rate=0.5,
    perf_decay_factor=1.08,
)


def run(with_health: bool):
    catalog = default_catalog()
    config = HotCConfig(
        control_interval_ms=1_000.0,
        container_health=(
            ContainerHealthConfig(max_reuses=25, leak_slope_mb=8.0)
            if with_health
            else None
        ),
    )
    platform = FaasPlatform(
        catalog.make_registry(),
        seed=7,
        provider_factory=lambda e: HotC(e, config),
    )
    platform.deploy(FunctionSpec(name="api", image="python:3.6", exec_ms=40))

    plan = FaultPlan(seed=7, spec=DEGRADATION)
    plan.install(platform.sim, [platform.engine])
    platform.provider.start_control_loop()

    step = DURATION_MS / N_REQUESTS
    for index in range(N_REQUESTS):
        platform.submit("api", delay=index * step)
    platform.run(until=DURATION_MS + 60_000.0)
    platform.provider.stop_control_loop()
    platform.run()
    return platform


def percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def main() -> None:
    print(
        "Same seeded workload, same degradation lottery, health plane "
        "off vs on\n"
    )
    for with_health in (False, True):
        platform = run(with_health)
        lat = [
            t.total_latency
            for t in platform.traces
            if t.total_latency is not None
        ]
        depths = [t.reuse_count for t in platform.traces]
        label = (
            "container health plane" if with_health else "plain HotC reuse"
        )
        print(f"--- {label} ---")
        print(f"  requests served : {len(platform.traces)}")
        print(f"  failed          : {platform.traces.failed_count()}")
        print(f"  p50 latency     : {percentile(lat, 0.50):8.1f} ms")
        print(f"  p99 latency     : {percentile(lat, 0.99):8.1f} ms")
        print(f"  max reuse depth : {max(depths)}")
        plane = platform.provider.container_health
        if plane is not None:
            print(
                f"  verdicts        : {plane.suspects} suspect, "
                f"{plane.quarantines} quarantined, "
                f"{plane.recycles} recycled"
            )
        print()
    print(
        "Without the plane, decaying containers are reused forever — the\n"
        "compounding slowdown drags the tail, and every poisoned runtime\n"
        "costs a failed exec + retry before the watchdog discards it.\n"
        "With it, drifting containers turn SUSPECT (served by the EWMA\n"
        "residual), contaminated ones are quarantined on first failure,\n"
        "leaks are caught by their RSS slope, and the token-bucket\n"
        "recycle loop swaps each one for a prewarmed replacement."
    )


if __name__ == "__main__":
    main()
