#!/usr/bin/env python3
"""Gray failure: a slow host is worse than a dead one — unless detected.

A host that answers heartbeats 3x late never trips a binary up/down
check, yet every request routed to it pays the slowdown.  This example
runs the same workload against a 2-host cluster twice — once with the
binary down-set only, once with the phi-accrual health monitor attached
— while host-0 limps through a 20-second gray slowdown, and compares
tail latency.

The monitor moves the sick host through the lifecycle FSM on
accumulated evidence alone — here healthy -> suspect, which already
parks new work on the healthy host — and readmits it once its
heartbeats come back on time.  (Outright silence escalates further:
quarantined, draining, then a weighted probation ramp on return.)

Run:  python examples/gray_failure.py
"""

from repro.core import make_cluster_platform
from repro.faas import FunctionSpec
from repro.faults import FaultKind, FaultPlan, ScheduledFault
from repro.health import HealthConfig, HealthMonitor
from repro.workloads import default_catalog

GRAY_AT = 10_000.0
GRAY_MS = 20_000.0
FACTOR = 4.0


def run(with_monitor: bool):
    catalog = default_catalog()
    platform = make_cluster_platform(catalog.make_registry(), n_hosts=2, seed=7)
    platform.deploy(FunctionSpec(name="api", image="python:3.6", exec_ms=40))
    cluster = platform.provider

    monitor = None
    if with_monitor:
        # A small detector window lets the learned mean track the
        # stretched heartbeats quickly enough to call the limp early.
        monitor = HealthMonitor(platform.sim, HealthConfig(window=8))
        monitor.attach(cluster.hosts)
        monitor.start()

    plan = FaultPlan(
        seed=7,
        scheduled=(
            ScheduledFault(
                at_ms=GRAY_AT,
                kind=FaultKind.GRAY_SLOWDOWN,
                host="host-0",
                duration_ms=GRAY_MS,
                factor=FACTOR,
            ),
        ),
    )
    plan.install(platform.sim, [h.engine for h in cluster.hosts])

    # Warm both hosts, then a steady stream through the slowdown.
    for index in range(2):
        platform.submit("api", delay=index * 100.0)
    for index in range(60):
        platform.submit("api", delay=5_000.0 + index * 900.0)
    platform.run(until=120_000.0)
    if monitor is not None:
        monitor.stop()
    platform.run()
    return platform, monitor


def percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def main() -> None:
    print(
        f"2-host cluster; host-0 runs {FACTOR:.0f}x slow for "
        f"{GRAY_MS / 1000:.0f}s mid-run\n"
    )
    for with_monitor in (False, True):
        platform, monitor = run(with_monitor)
        gray = [
            t
            for t in platform.traces.traces
            if GRAY_AT <= t.t0_client_send < GRAY_AT + GRAY_MS
        ]
        lat = [t.total_latency for t in gray]
        on_slow = sum(t.container_id.startswith("host-0/") for t in gray)
        label = "phi-accrual monitor" if with_monitor else "binary down-set only"
        print(f"--- {label} (requests inside the gray window) ---")
        print(f"  served on the slow host : {on_slow}/{len(gray)}")
        print(f"  p50 latency             : {percentile(lat, 0.50):7.1f} ms")
        print(f"  p95 latency             : {percentile(lat, 0.95):7.1f} ms")
        print(f"  max latency             : {max(lat):7.1f} ms")
        if monitor is not None:
            transitions = monitor.hosts["host-0"].transitions
            walk = " -> ".join(
                new.name.lower() for (_, _, new) in transitions
            )
            print(f"  host-0 walk : healthy -> {walk}")
        print()
    print(
        "The binary check never notices the limp (the host still answers),\n"
        "so every gray-window request pays the 4x slowdown.  The detector\n"
        "reads the stretched heartbeat intervals as evidence, marks the\n"
        "host suspect — no new work — for the duration, and readmits it\n"
        "once its beats come back on time.  Outright silence would walk\n"
        "it further: quarantined, then draining."
    )


if __name__ == "__main__":
    main()
