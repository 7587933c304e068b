"""Scenario scripts whose event traces are pinned as golden files.

The simulation fast path (lazy event names, the ``ScheduledEvent``
free-list, lazy cancellation compaction, the batched drain loop) is only
allowed to change *how fast* events fire, never *in which order* or *at
which instants*.  These scenarios exercise every ordering-sensitive
feature of the engine — same-time ties, priorities, cancellations,
interrupts, resource hand-off, store hand-off, composite events — and
record a flat, JSON-serialisable trace.  The traces were captured from
the pre-optimisation engine and committed under ``tests/sim/golden/``;
``tests/sim/test_determinism_golden.py`` replays them against the
current engine byte-for-byte.

Regenerate (only when an ordering change is *intended*) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/sim/test_determinism_golden.py
"""

from __future__ import annotations

import pathlib
from typing import List

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Seeds pinned by the randomized seed-matrix scenario.
SEED_MATRIX = (0, 1, 2, 3, 4)


def scenario_mixed() -> List[list]:
    """Scripted workload touching every ordering-sensitive engine path."""
    from repro.sim import AllOf, AnyOf, Interrupt, Simulator

    sim = Simulator()
    trace: List[list] = []

    def mark(tag: str) -> None:
        trace.append([sim.now, tag])

    resource = sim.resource(capacity=2, name="cpu")
    store = sim.store(name="jobs")

    def resource_worker(sim, name: str, hold: float):
        yield resource.request()
        mark(f"{name}:granted")
        yield sim.timeout(hold)
        resource.release()
        mark(f"{name}:released")

    def producer(sim):
        for index in range(4):
            yield sim.timeout(2.5)
            store.put(f"job{index}")
            mark(f"put:job{index}")

    def consumer(sim, name: str):
        while True:
            item = yield store.get()
            mark(f"{name}:got:{item}")
            if item == "job3":
                return item
            yield sim.timeout(1.0)

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            mark("sleeper:overslept")
        except Interrupt as interrupt:
            mark(f"sleeper:interrupted:{interrupt.cause}")
            # Re-sleep after the interrupt to cover interrupt-then-wait.
            yield sim.timeout(3.0)
            mark("sleeper:done")

    def composite(sim):
        values = yield AllOf([sim.timeout(4.0, "a"), sim.timeout(1.5, "b")])
        mark(f"all_of:{values}")
        index, value = yield AnyOf([sim.timeout(9.0, "slow"), sim.timeout(0.5, "fast")])
        mark(f"any_of:{index}:{value}")

    # Same-time ties: five workers spawned at t=0 contend for 2 slots.
    for index in range(5):
        sim.process(resource_worker(sim, f"w{index}", hold=2.0 + index))
    sim.process(producer(sim))
    sim.process(consumer(sim, "c0"))
    sim.process(consumer(sim, "c1"))
    sleepy = sim.process(sleeper(sim))
    sim.process(composite(sim))

    # Plain callbacks with priorities at an identical instant.
    sim.schedule(6.0, mark, "callback:low")
    sim.schedule(6.0, mark, "callback:high", priority=-1)
    sim.schedule(6.0, mark, "callback:mid", priority=0)

    # A cancelled timeout and a cancelled schedule() entry must vanish.
    doomed = sim.timeout(7.0, value="never")
    doomed.add_callback(lambda e: mark("doomed:fired"))
    entry = sim.schedule(8.0, mark, "doomed-callback")
    sim.schedule(5.0, doomed.cancel)
    sim.schedule(5.0, entry.cancel)
    sim.schedule(10.0, sleepy.interrupt, "poke")

    sim.run()
    trace.append(["final", sim.now, sim.steps])
    return trace


def scenario_seeded(seed: int) -> List[list]:
    """Randomized timeout/interrupt churn driven by the named RNG streams."""
    from repro.sim import Interrupt, Simulator
    from repro.sim.rng import RngRegistry

    rngs = RngRegistry(seed=seed)
    delays = rngs.stream("delays")
    choices = rngs.stream("choices")

    sim = Simulator()
    trace: List[list] = []

    def worker(sim, name: str):
        for round_index in range(10):
            try:
                yield sim.timeout(float(delays.uniform(0.0, 5.0)))
                trace.append([sim.now, f"{name}:tick{round_index}"])
            except Interrupt:
                trace.append([sim.now, f"{name}:interrupted{round_index}"])

    workers = [sim.process(worker(sim, f"p{index}")) for index in range(8)]

    def chaos(sim):
        for _ in range(12):
            yield sim.timeout(float(delays.uniform(0.5, 3.0)))
            victim = workers[int(choices.integers(0, len(workers)))]
            if victim.is_alive:
                victim.interrupt("chaos")
            # Half the time also schedule-and-cancel a decoy timeout so the
            # heap carries dead entries through the run.
            if choices.random() < 0.5:
                sim.timeout(float(delays.uniform(0.0, 50.0))).cancel()

    sim.process(chaos(sim))
    sim.run()
    trace.append(["final", sim.now, sim.steps])
    return trace


def scenario_observatory(seed: int = 3, observatory=None) -> List[dict]:
    """A small instrumented platform run; golden is the full event log."""
    from repro.core.hotc import HotC, HotCConfig
    from repro.faas import FaasPlatform
    from repro.obs import Observatory
    from repro.workloads.apps import default_catalog, qr_encoder_app

    if observatory is None:
        observatory = Observatory()
    platform = FaasPlatform(
        default_catalog().make_registry(),
        seed=seed,
        provider_factory=lambda engine: HotC(
            engine, HotCConfig(control_interval_ms=10_000.0)
        ),
        jitter_sigma=0.05,
    )
    platform.sim.obs = observatory
    spec = qr_encoder_app(name="qr", language="python")
    platform.deploy(spec)
    platform.sim.process(platform.engine.ensure_image(spec.image))
    platform.run()
    platform.provider.start_control_loop()
    for index in range(12):
        platform.submit(spec.name, delay=index * 1_500.0)
    platform.run(until=platform.sim.now + 12 * 1_500.0 + 60_000.0)
    platform.provider.stop_control_loop()
    platform.run()
    platform.shutdown()
    return [event.as_dict() for event in observatory.events]


def scenario_gateway(seed: int = 0) -> List[list]:
    """The six-moment request path on a 3-host cluster, one row per request.

    Two gateway slots make requests queue for a grant, and an admission
    controller in front sheds some of them, so every branch of
    ``Gateway.handle`` runs.  Each row holds t0..t6, the cold flag, the
    serving container and the terminal outcome.
    """
    import math

    from repro.admission.controller import AdmissionConfig, AdmissionController
    from repro.core.cluster import make_cluster_platform
    from repro.faas.function import FunctionSpec
    from repro.sim.rng import RngRegistry
    from repro.workloads.apps import default_catalog

    platform = make_cluster_platform(
        default_catalog().make_registry(), n_hosts=3, seed=seed,
        gateway_concurrency=2,
    )
    platform.attach_admission(
        AdmissionController(
            AdmissionConfig(max_queue_depth=8, default_deadline_ms=5_000.0)
        )
    )
    images = (("python:3.6", "python"), ("node:10", "node"))
    names = []
    for key in range(20):
        image, language = images[key % len(images)]
        spec = FunctionSpec(
            name=f"fn-{key:02d}", image=image, language=language,
            exec_ms=4.0 + key % 5, env=(("KEY", str(key)),),
        )
        platform.deploy(spec)
        names.append(spec.name)
    for host in platform.provider.hosts:
        for image, _ in images:
            platform.sim.process(host.engine.ensure_image(image))
    platform.run()
    rng = RngRegistry(seed).stream("golden-gateway")
    delay = 0.0
    for _ in range(300):
        delay += float(rng.exponential(12.0))
        key = min(int(rng.zipf(1.3)) - 1, len(names) - 1)
        platform.submit(names[key], delay=delay)
    platform.run()

    def stamp(value: float):
        return None if math.isnan(value) else value

    return [
        [
            trace.request_id,
            trace.function,
            *(
                stamp(value)
                for value in (
                    trace.t0_client_send, trace.t1_gateway_in,
                    trace.t2_watchdog_in, trace.t3_function_start,
                    trace.t4_function_stop, trace.t5_watchdog_out,
                    trace.t6_client_recv,
                )
            ),
            trace.cold_start,
            trace.container_id,
            trace.outcome.value,
        ]
        for trace in sorted(platform.traces, key=lambda t: t.request_id)
    ]


def scenario_hotc_paths(seed: int = 0, observatory=None) -> dict:
    """HotC's rarely-taken paths on a 2-host cluster, one row per request.

    Relaxed fallback, repurposing, the container health plane and
    admission (with brownout) are all on.  Random and scripted boot
    failures open circuit breakers, a pool death and a host outage
    (whose failover drain absorbs in-flight prewarm reservations) hit
    the pools, and a recovery manager crashes and rebuilds the control
    plane once, with a burst of requests in flight.  Each row holds
    t0..t6, host, container, cold flag, reuse kind, re-spec time and
    outcome; the tail holds the pool, engine and cluster stats, the
    injected faults, the event counts and the recovery repairs.

    The run shortens the container age cap to 20 s, paces recycles at 1/s
    with a burst of 2, exits brownout 0.002 below the threshold and
    checkpoints every third tick (module constants patched for the run).
    """
    from unittest import mock

    from repro.admission import controller as admission_module
    from repro.health import container as health_module
    from repro.recovery import manager as recovery_module

    with mock.patch.multiple(
        health_module,
        MAX_AGE_MS=20_000.0, RECYCLE_RATE_PER_S=1.0, RECYCLE_BURST=2,
    ), mock.patch.object(
        admission_module, "BROWNOUT_EXIT_MARGIN", 0.002
    ), mock.patch.object(recovery_module, "CHECKPOINT_EVERY_TICKS", 3):
        return _run_hotc_paths(seed, observatory)


def _run_hotc_paths(seed: int, observatory) -> dict:
    """:func:`scenario_hotc_paths` with its constants patched."""
    import math
    from collections import Counter
    from dataclasses import asdict

    from repro.admission.controller import AdmissionConfig, AdmissionController
    from repro.containers import Registry, derive_image, make_base_image
    from repro.core import HotCConfig, KeyPolicy, PoolLimits, make_cluster_platform
    from repro.faas.function import FunctionSpec
    from repro.faults import FaultKind, FaultPlan, FaultSpec, ScheduledFault
    from repro.health import ContainerHealthConfig
    from repro.obs import Observatory
    from repro.recovery import RecoveryManager
    from repro.sim.rng import RngRegistry

    py_base = make_base_image("python", "3.6", size_mb=330, language="python")
    node_base = make_base_image("node", "10", size_mb=290, language="node")
    shared = derive_image(py_base, name="app/shared", tag="1", extra_mb=12.0)
    images = [py_base, node_base, shared]
    specs = [
        # Same image, different env: one relaxed key, distinct full keys.
        FunctionSpec(
            name=f"env-{index}", image=shared.reference, language="python",
            exec_ms=300.0, env=(("MODE", str(index)),), qos="critical",
        )
        for index in range(3)
    ]
    for index, base in enumerate((py_base, py_base, node_base, node_base)):
        # Own images on a shared base: reachable only by repurposing.
        image = derive_image(
            base, name=f"app/fn-{index}", tag="1", extra_mb=8.0 + 3.0 * index
        )
        images.append(image)
        specs.append(
            FunctionSpec(
                name=f"fn-{index}", image=image.reference,
                language=base.language, exec_ms=300.0,
            )
        )
    platform = make_cluster_platform(
        Registry(images), n_hosts=2, seed=seed,
        hotc_config=HotCConfig(
            control_interval_ms=1_000.0,
            limits=PoolLimits(max_containers=10, memory_threshold=0.004),
            fallback_key_policy=KeyPolicy.RELAXED,
            repurpose=True,
            container_health=ContainerHealthConfig(max_reuses=8),
        ),
    )
    cluster = platform.provider
    if observatory is None:
        observatory = Observatory()
    platform.sim.obs = observatory
    platform.attach_admission(
        AdmissionController(
            AdmissionConfig(max_queue_depth=16, default_deadline_ms=20_000.0)
        )
    )
    manager = RecoveryManager(cluster)
    names = []
    for spec in specs:
        platform.deploy(spec)
        names.append(spec.name)
    plan = FaultPlan(
        seed=seed,
        spec=FaultSpec(
            boot_failure_rate=0.15, transient_error_rate=0.03,
            exec_crash_rate=0.02,
            memory_leak_rate=0.2, memory_leak_mb=16.0, state_poison_rate=0.05,
        ),
        scheduled=(
            ScheduledFault(at_ms=14_000.0, kind=FaultKind.POOL_DEATH,
                           host="host-0", count=2),
            ScheduledFault(at_ms=26_000.0, kind=FaultKind.HOST_OUTAGE,
                           host="host-1", duration_ms=4_000.0),
            ScheduledFault(at_ms=38_000.0, kind=FaultKind.CONTROLLER_CRASH,
                           duration_ms=200.0),
        ),
    )
    injectors = plan.install(
        platform.sim, [host.engine for host in cluster.hosts]
    )
    # Six failed boots in a row open breakers on host-0; slow boots on
    # host-1 are still in flight when its outage hits.
    platform.sim.schedule(8_000.0, injectors["host-0"].fail_next_boots, 6)
    platform.sim.schedule(
        24_000.0, injectors["host-1"].delay_next_boots, 7_000.0, 4
    )
    cluster.start_control_loops()
    rng = RngRegistry(seed).stream("golden-hotc-paths")
    delay = 0.0
    for _ in range(400):
        delay += float(rng.exponential(120.0))
        if delay < 16_000.0:
            pool = names[:2] + names[3:4]
        elif delay < 32_000.0:
            pool = names[1:3] + names[4:]
        else:
            pool = names
        platform.submit(pool[int(rng.integers(len(pool)))], delay=delay)
    for index in range(8):
        # A burst in flight when the control plane crashes.
        platform.submit(names[index % 3], delay=37_900.0 + index)
    platform.run(until=delay + 20_000.0)
    cluster.stop_control_loops()
    platform.run()
    platform.shutdown()

    def stamp(value: float):
        return None if math.isnan(value) else value

    requests = [
        [
            trace.request_id,
            trace.function,
            *(
                stamp(value)
                for value in (
                    trace.t0_client_send, trace.t1_gateway_in,
                    trace.t2_watchdog_in, trace.t3_function_start,
                    trace.t4_function_stop, trace.t5_watchdog_out,
                    trace.t6_client_recv,
                )
            ),
            trace.container_id.split("/")[0],
            trace.container_id,
            trace.cold_start,
            trace.reuse,
            trace.respec_ms,
            trace.outcome.value,
        ]
        for trace in sorted(platform.traces, key=lambda t: t.request_id)
    ]
    return {
        "requests": requests,
        "pool": [asdict(host.pool.stats) for host in cluster.hosts],
        "engine": [asdict(host.engine.stats) for host in cluster.hosts],
        "cluster": {
            **asdict(cluster.stats),
            "relaxed_hits": cluster.stats.relaxed_hits,
            "repurposes": cluster.stats.repurposes,
        },
        "faults": plan.stats.as_dict(),
        "events": dict(
            sorted(Counter(e.kind.value for e in observatory.events).items())
        ),
        "repairs": [
            [r.kind.value, r.host, r.container_id, r.key, r.detail]
            for r in manager.repairs
        ],
    }


def scenario_metrics() -> dict:
    """The metric output of the two instrumented scenarios.

    Holds the Prometheus text of each run's registry, line by line, and
    a sha256 of the full ``hotc_paths`` event JSONL: that scenario's
    golden keeps only per-kind event counts, so the digest pins the
    order and content of every event it records.
    """
    import hashlib

    from repro.obs import Observatory, prometheus_text

    plain = Observatory()
    scenario_observatory(observatory=plain)
    paths = Observatory()
    scenario_hotc_paths(observatory=paths)
    return {
        "observatory_prometheus": prometheus_text(plain.registry).splitlines(),
        "hotc_paths_prometheus": prometheus_text(paths.registry).splitlines(),
        "hotc_paths_events_sha256": hashlib.sha256(
            paths.events.to_jsonl().encode()
        ).hexdigest(),
    }


def scenario_leaky_day() -> dict:
    """``python -m repro scenarios run leaky-day``'s ``report.json``.

    The one pinned run of the container health plane at its default
    thresholds (``scenario_hotc_paths`` overrides several), next to the
    same day without the plane.
    """
    import json

    from repro.scenarios import bundled_spec, run_scenario

    return json.loads(run_scenario(bundled_spec("leaky-day")).to_json())


#: The run-report files pinned by :func:`scenario_run_report`.
RUN_REPORT_FILES = ("summary.json", "accuracy.txt", "metrics.prom", "events.jsonl")


def scenario_run_report() -> dict:
    """``python -m repro report OUT --rounds 3``: four of its files.

    The one pinned run that drives the observatory, the snapshotter and
    HotC's control loop together.  Each file is kept as its lines.
    """
    import contextlib
    import io
    import pathlib
    import tempfile

    from repro.__main__ import main

    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            main(["report", out, "--rounds", "3"])
        return {
            name: (pathlib.Path(out) / name).read_text().splitlines()
            for name in RUN_REPORT_FILES
        }
