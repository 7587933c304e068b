"""Compile and run scenario specs.

:func:`run_scenario` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
into a :class:`~repro.scenarios.report.ScenarioReport`:

* **Pattern traffic** delegates each arm to
  :func:`repro.experiments._pattern_harness.run_pattern_arm` with the
  exact argument shape the figure modules use, so a figure re-expressed
  as a scenario reproduces its original outputs bit-for-bit.  The raw
  :class:`~repro.workloads.generator.WorkloadResult` rides along on the
  arm report for the figure code to consume.
* **Trace traffic** streams a :class:`~repro.workloads.tracegen.
  TraceWorkload` arrival schedule straight into a multi-host
  :class:`~repro.core.cluster.ClusterHotC` (or a per-host cold-boot
  baseline), bypassing the gateway stack.  Accounting is streaming and
  bounded: per-tenant fixed-bucket histograms plus a handful of
  counters, never a list of traces — which is what lets a
  million-request simulated day finish in seconds.

Arms are independent simulations, so ``jobs > 1`` fans them out over a
spawn-based process pool; results are reassembled in spec order and the
serialised report is byte-identical to a serial run.
"""

from __future__ import annotations

import contextlib
import gc
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.admission.controller import AdmissionConfig, AdmissionController
from repro.containers.container import ContainerError
from repro.containers.engine import ContainerEngine
from repro.core.cluster import ClusterHotC, make_cluster_engines
from repro.core.hotc import HotCConfig
from repro.health.container import ContainerHealthConfig
from repro.faas.function import FunctionSpec
from repro.faas.platform import ColdBootProvider
from repro.faas.tracing import RequestOutcome, RequestTrace
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.registry import Histogram, MetricsRegistry, WIDE_LATENCY_BUCKETS_MS
from repro.scenarios.report import ArmReport, ScenarioReport, TenantRow
from repro.scenarios.spec import ArmSpec, ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.workloads.apps import default_catalog
from repro.workloads.tracegen import TraceWorkload

__all__ = ["run_scenario"]

#: Image/language pairs cycled over the key space in trace mode.
_TRACE_IMAGES: Tuple[Tuple[str, str], ...] = (
    ("python:3.6", "python"),
    ("node:10", "node"),
    ("golang:1.11", "go"),
)


def run_scenario(
    spec: ScenarioSpec,
    jobs: int = 1,
    out_dir: Optional[str] = None,
) -> ScenarioReport:
    """Run every arm of ``spec``; optionally write report artifacts.

    ``jobs > 1`` runs arms in parallel worker processes; the report is
    byte-identical to the serial run (each arm is an independent,
    seed-determined simulation; parallel workers merely drop the
    in-memory ``workload_result`` payload, which is never serialised).
    ``out_dir`` receives ``report.json`` and ``report.txt``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(spec.arms) == 1:
        arm_reports = [_run_arm(spec, arm) for arm in spec.arms]
    else:
        import multiprocessing as mp

        context = mp.get_context("spawn")
        tasks = [(spec, arm) for arm in spec.arms]
        with context.Pool(processes=min(jobs, len(tasks))) as pool:
            arm_reports = pool.map(_arm_task, tasks)
    report = ScenarioReport(
        scenario=spec.name, seed=spec.seed, arms=tuple(arm_reports)
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fp:
            fp.write(report.to_json())
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fp:
            fp.write(report.render())
    return report


def _arm_task(payload: Tuple[ScenarioSpec, ArmSpec]) -> ArmReport:
    """Worker entry point: run one arm, strip the in-memory payload."""
    spec, arm = payload
    report = _run_arm(spec, arm)
    report.workload_result = None
    return report


def _run_arm(spec: ScenarioSpec, arm: ArmSpec) -> ArmReport:
    """Run one arm of ``spec`` (dispatch on traffic kind)."""
    if spec.traffic.kind == "pattern":
        return _run_pattern_arm_report(spec, arm)
    return _run_trace_arm_report(spec, arm)


# -- pattern arms ------------------------------------------------------------


def _run_pattern_arm_report(spec: ScenarioSpec, arm: ArmSpec) -> ArmReport:
    """One pattern arm via the figure harness (bit-identical to figs)."""
    from repro.experiments._pattern_harness import run_pattern_arm

    if spec.faults is not None or spec.admission is not None:
        raise ValueError(
            "pattern traffic runs through the figure harness, which has "
            "no fault/admission hooks; use trace traffic for those axes"
        )
    result, platform = run_pattern_arm(
        spec.traffic.pattern,
        use_hotc=arm.use_hotc,
        seed=spec.seed,
        n_functions=arm.n_functions,
        adaptive=arm.adaptive,
        control_interval_ms=arm.control_interval_ms,
        gateway_concurrency=arm.gateway_concurrency,
    )
    latencies = result.latencies()
    if latencies.size:
        p50, p99, p999 = (
            float(np.percentile(latencies, q)) for q in (50.0, 99.0, 99.9)
        )
        mean = float(latencies.mean())
    else:
        p50 = p99 = p999 = mean = float("nan")
    return ArmReport(
        name=arm.name,
        kind="pattern",
        requests=int(latencies.size),
        cold=result.total_cold(),
        failed=result.total_failed(),
        shed=0,
        mean_ms=mean,
        p50_ms=p50,
        p99_ms=p99,
        p999_ms=p999,
        overflow=0,
        sim_time_ms=float(platform.sim.now),
        counters={},
        workload_result=result,
    )


# -- trace arms --------------------------------------------------------------


@contextlib.contextmanager
def _gc_quiet():
    """Tame the cyclic GC for the duration of a trace-scale run.

    A million-request arm allocates tens of millions of short-lived
    objects.  Refcounting frees them all, since the request path leaves
    no cyclic garbage (DESIGN.md §9), but each allocation still counts
    towards the next collection, and at the default thresholds every
    pass walks the live heap for nothing.  Freezing the post-setup
    baseline and raising the thresholds keeps that work small: on
    ``day-1m`` (2-vCPU box, Python 3.11) the collector takes ~0.1 % of
    the wall clock with this setting and ~0.5 % without it.  Purely a
    wall-clock change: no effect on simulation behaviour or results.
    """
    gc.collect()
    gc.freeze()
    old_thresholds = gc.get_threshold()
    gc.set_threshold(50_000, 25, 25)
    try:
        yield
    finally:
        gc.set_threshold(*old_thresholds)
        gc.unfreeze()
        gc.collect()


class _RoundRobinCold:
    """Baseline provider for trace arms: per-host cold boots, no reuse."""

    def __init__(self, engines) -> None:
        self.providers = [ColdBootProvider(engine) for engine in engines]
        #: Provider by engine name: the prefix of its container ids.
        self._by_host = {
            provider.engine.name: provider for provider in self.providers
        }
        self._next = 0

    def acquire(self, config):
        """Process: boot a fresh container on the next host."""
        index = self._next
        self._next = (self._next + 1) % len(self.providers)
        return (yield from self.providers[index].acquire(config))

    def _provider_of(self, container) -> ColdBootProvider:
        return self._by_host[container.container_id.partition("/")[0]]

    def release(self, container):
        """Process: destroy the container on its owning host."""
        yield from self._provider_of(container).release(container)

    def discard(self, container) -> None:
        """Nothing to forget: the container id names its host."""

    def engine_for(self, container) -> ContainerEngine:
        """The engine executing on the container's host."""
        return self._provider_of(container).engine


def _trace_function_specs(spec: ScenarioSpec) -> List[FunctionSpec]:
    """One spec per runtime key: distinct env, images cycled."""
    traffic = spec.traffic
    images = _TRACE_IMAGES[: traffic.n_images]
    deadline = None
    if spec.admission is not None:
        deadline = spec.admission.default_deadline_ms
    specs = []
    for key in range(traffic.trace.n_keys):
        image, language = images[key % len(images)]
        specs.append(
            FunctionSpec(
                name=f"fn-{key:04d}",
                image=image,
                language=language,
                exec_ms=traffic.exec_ms,
                app_init_ms=traffic.app_init_ms,
                env=(("KEY", str(key)),),
                deadline_ms=deadline,
            )
        )
    return specs


def _run_trace_arm_report(spec: ScenarioSpec, arm: ArmSpec) -> ArmReport:
    """One trace arm: direct-drive the provider, streaming accounting."""
    config = spec.traffic.trace.with_seed(derive_seed(spec.seed, "trace-arrivals"))
    workload = TraceWorkload(config)
    sim = Simulator()
    registry = default_catalog().make_registry()
    engines = make_cluster_engines(
        sim,
        registry,
        n_hosts=spec.cluster.n_hosts,
        seed=derive_seed(spec.seed, f"arm:{arm.name}"),
        jitter_sigma=spec.cluster.jitter_sigma,
    )
    if arm.use_hotc:
        provider = ClusterHotC(
            engines,
            config=HotCConfig(
                control_interval_ms=arm.control_interval_ms if arm.adaptive else 0.0,
                container_health=(
                    ContainerHealthConfig() if arm.container_health else None
                ),
            ),
            placement=spec.cluster.placement,
        )
    else:
        provider = _RoundRobinCold(engines)

    admission = None
    if spec.admission is not None:
        admission = AdmissionController(
            AdmissionConfig(
                max_queue_depth=spec.admission.max_queue_depth,
                default_deadline_ms=spec.admission.default_deadline_ms,
            )
        )
        admission.attach(sim)

    for image, _ in _TRACE_IMAGES[: spec.traffic.n_images]:
        for engine in engines:
            sim.process(engine.ensure_image(image))
    sim.run()

    if spec.faults is not None:
        # Installed after the image-pull drain: ``sim.run()`` runs until
        # the queue is empty, so it would fire every scheduled fault
        # before the first arrival.
        plan = FaultPlan.random(
            seed=derive_seed(spec.seed, "faults"),
            duration_ms=config.duration_ms,
            hosts=tuple(engine.name for engine in engines),
            spec=FaultSpec(),
            pool_deaths=spec.faults.pool_deaths,
            outages=spec.faults.outages,
            outage_ms=spec.faults.outage_ms,
            gray_slowdowns=spec.faults.gray_slowdowns,
            gray_ms=spec.faults.gray_ms,
            gray_factor=spec.faults.gray_factor,
            memory_leak_rate=spec.faults.memory_leak_rate,
            memory_leak_mb=spec.faults.memory_leak_mb,
            state_poison_rate=spec.faults.state_poison_rate,
            perf_decay_rate=spec.faults.perf_decay_rate,
            perf_decay_factor=spec.faults.perf_decay_factor,
            crash_loop_rate=spec.faults.crash_loop_rate,
            crash_loop_after=spec.faults.crash_loop_after,
        )
        plan.install(sim, engines)

    function_specs = _trace_function_specs(spec)
    configs = [fn.container_config() for fn in function_specs]
    exec_specs = [fn.exec_spec() for fn in function_specs]
    tenant_by_key = workload.tenant_ids().tolist()
    n_tenants = config.n_tenants

    metrics = MetricsRegistry()
    hists = [
        metrics.histogram(
            "scenario_latency_ms",
            bounds=WIDE_LATENCY_BUCKETS_MS,
            help="End-to-end request latency per tenant",
            tenant=f"t{tenant:03d}",
        )
        for tenant in range(n_tenants)
    ]
    cold_counts = [0] * n_tenants
    failed_counts = [0] * n_tenants
    shed_counts = [0] * n_tenants
    inflight = [0]
    request_seq = [0]

    def request(key: int):
        tenant = tenant_by_key[key]
        t0 = sim.now
        trace = None
        if admission is not None:
            request_seq[0] += 1
            trace = RequestTrace(
                request_id=request_seq[0],
                function=function_specs[key].name,
                t0_client_send=t0,
            )
            admitted = yield from admission.admit(function_specs[key], trace)
            if not admitted:
                shed_counts[tenant] += 1
                inflight[0] -= 1
                return
        container = None
        try:
            container, cold = yield from provider.acquire(configs[key])
            yield from provider.engine_for(container).execute(
                container, exec_specs[key]
            )
        except ContainerError:
            failed_counts[tenant] += 1
            if container is not None:
                provider.discard(container)
            if admission is not None:
                trace.outcome = RequestOutcome.FAILED
                admission.release(function_specs[key], trace, sim.now)
            inflight[0] -= 1
            return
        hists[tenant].observe(sim.now - t0)
        if cold:
            cold_counts[tenant] += 1
        if admission is not None:
            trace.outcome = RequestOutcome.SUCCESS
            admission.release(function_specs[key], trace, sim.now)
        inflight[0] -= 1
        yield from provider.release(container)

    def spawn(key: int) -> None:
        inflight[0] += 1
        sim.process(request(key))

    def driver():
        # One sleep per slot, then direct heap callbacks per arrival:
        # cheaper than resuming a generator for every request, and the
        # heap never holds more than a couple of slots' worth of events.
        schedule = sim.schedule
        for batch in workload.batches():
            if not batch.size:
                continue
            if batch.start_ms > sim.now:
                yield batch.start_ms - sim.now
            base = sim.now
            # Guard against the resume instant overshooting the slot
            # start by an ulp, which would make the first delay negative.
            offsets = np.maximum(
                batch.start_ms - base + batch.offsets_ms, 0.0
            ).tolist()
            for delay, key in zip(offsets, batch.key_ids.tolist()):
                schedule(delay, spawn, key)

    sim.process(driver(), name="trace-driver")
    with _gc_quiet():
        if arm.use_hotc and arm.adaptive:
            provider.start_control_loops()
            sim.run(until=config.duration_ms)
            provider.stop_control_loops()
        else:
            sim.run(until=config.duration_ms)
        sim.run()
    if inflight[0] != 0:
        raise AssertionError(
            f"trace arm {arm.name!r} drained with {inflight[0]} requests "
            "still in flight"
        )

    overall = Histogram("scenario_latency_ms", bounds=WIDE_LATENCY_BUCKETS_MS)
    for hist in hists:
        overall.merge_from(hist)
    tenants = []
    for tenant in range(n_tenants):
        hist = hists[tenant]
        tenants.append(
            TenantRow(
                tenant=f"t{tenant:03d}",
                n=hist.count,
                cold=cold_counts[tenant],
                failed=failed_counts[tenant],
                shed=shed_counts[tenant],
                mean_ms=hist.sum / hist.count if hist.count else float("nan"),
                p50_ms=hist.quantile(0.5),
                p99_ms=hist.quantile(0.99),
                p999_ms=hist.quantile(0.999),
                overflow=hist.overflow_count,
            )
        )
    counters: Dict[str, int] = {}
    stats = getattr(provider, "stats", None)
    if stats is not None:
        counters = {
            "reuse_routed": stats.reuse_routed,
            "cold_routed": stats.cold_routed,
            "relaxed_hits": stats.relaxed_hits,
            "repurposes": stats.repurposes,
            "failovers": stats.failovers,
            "hosts_lost": stats.hosts_lost,
        }
    if arm.use_hotc and arm.container_health:
        counters["quarantined"] = sum(
            host.pool.stats.quarantined for host in provider.hosts
        )
        counters["recycled"] = sum(
            host.pool.stats.recycled for host in provider.hosts
        )
    return ArmReport(
        name=arm.name,
        kind="trace",
        requests=overall.count,
        cold=sum(cold_counts),
        failed=sum(failed_counts),
        shed=sum(shed_counts),
        mean_ms=overall.sum / overall.count if overall.count else float("nan"),
        p50_ms=overall.quantile(0.5),
        p99_ms=overall.quantile(0.99),
        p999_ms=overall.quantile(0.999),
        overflow=overall.overflow_count,
        sim_time_ms=float(sim.now),
        counters=counters,
        tenants=tuple(tenants),
    )
