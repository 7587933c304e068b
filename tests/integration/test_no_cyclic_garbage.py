"""The request path leaves no cyclic garbage.

A small cluster run that takes every path a request can take, cold
boots, capacity evictions, container-health recycling, injected faults,
an admission queue that fills and sheds, and the observatory, must leave
nothing for the cyclic collector: refcounting frees each finished
request's processes, pool entries and containers as soon as they go.
"""

import gc

from repro.admission.aimd import AIMDConfig
from repro.admission.controller import AdmissionConfig, AdmissionController
from repro.core.cluster import make_cluster_platform
from repro.core.hotc import HotCConfig
from repro.core.pool import PoolLimits
from repro.faas.function import FunctionSpec
from repro.faults.plan import FaultPlan, FaultSpec
from repro.health.container import ContainerHealthConfig
from repro.obs import Observatory
from repro.workloads.apps import default_catalog

IMAGES = (("python:3.6", "python"), ("node:10", "node"))
N_FUNCTIONS = 10
ROUNDS = 12
ROUND_MS = 4_000.0


def run_cluster():
    """Drive bursts over more keys than the pool holds; return the run's
    platform and its counters of the paths taken."""
    hotc_config = HotCConfig(
        limits=PoolLimits(max_containers=4),
        breaker_threshold=0,
        container_health=ContainerHealthConfig(),
    )
    platform = make_cluster_platform(
        default_catalog().make_registry(), n_hosts=2, seed=5,
        hotc_config=hotc_config,
    )
    sim = platform.sim
    sim.obs = Observatory()
    admission = AdmissionController(
        AdmissionConfig(max_queue_depth=2, default_deadline_ms=3_000.0,
                        aimd=AIMDConfig(initial_limit=2.0))
    )
    platform.attach_admission(admission)
    functions = [
        FunctionSpec(
            name=f"fn-{key}",
            image=IMAGES[key % len(IMAGES)][0],
            language=IMAGES[key % len(IMAGES)][1],
            exec_ms=15.0,
            env=(("KEY", str(key)),),
        )
        for key in range(N_FUNCTIONS)
    ]
    for spec in functions:
        platform.deploy(spec)
    engines = [host.engine for host in platform.provider.hosts]
    for image, _ in IMAGES:
        for engine in engines:
            sim.process(engine.ensure_image(image))
    sim.run()
    FaultPlan.random(
        seed=11,
        duration_ms=ROUNDS * ROUND_MS,
        hosts=tuple(engine.name for engine in engines),
        spec=FaultSpec(boot_failure_rate=0.1, transient_error_rate=0.05),
        pool_deaths=2,
        outages=1,
        outage_ms=3_000.0,
        memory_leak_rate=0.3,
        memory_leak_mb=64.0,
    ).install(sim, engines)
    for round_index in range(ROUNDS):
        for key in range(N_FUNCTIONS):
            # A burst on the round's hot key fills its admission queue.
            burst = 8 if key == round_index % N_FUNCTIONS else 1
            for _ in range(burst):
                platform.submit(functions[key].name,
                                delay=round_index * ROUND_MS + key * 10.0)
    sim.run()
    hosts = platform.provider.hosts
    stats = {
        "cold": sum(1 for trace in platform.traces if trace.cold_start),
        "evictions": sum(host.pool.stats.evictions_capacity for host in hosts),
        "shed": admission.stats.shed_total,
        "queued": admission.stats.admitted_queued,
        "faults": sum(engine.stats.boot_failures for engine in engines),
        "quarantined": sum(host.pool.stats.quarantined for host in hosts),
    }
    return platform, stats


def test_run_takes_every_path():
    _, stats = run_cluster()
    for path, count in stats.items():
        assert count > 0, f"the run took no {path} path: {stats}"


def test_request_path_leaves_no_cyclic_garbage():
    # A warm-up run first, so that caches libraries build lazily on
    # first use are not counted.
    run_cluster()
    gc.collect()
    gc.disable()
    try:
        # The platform is held while collecting: its own structure (the
        # hosts, the simulator and the services wired to each other) is
        # not request garbage.
        platform, _ = run_cluster()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    del platform
