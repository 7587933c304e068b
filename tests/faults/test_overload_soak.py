"""Overload chaos soak: a 10x burst with a host dying mid-burst.

Marked ``chaos`` (opt in with ``--chaos`` / ``REPRO_CHAOS=1``).  Each
seeded run drives three phases through a two-host cluster with
admission control attached:

1. **warmup** — steady in-limit load lets AIMD climb to its ceiling;
2. **storm** — a burst of 10x the concurrency limit while one host is
   taken down mid-burst;
3. **recovery** — steady load again after the outage clears.

Invariants asserted across every seed:

* the admission queue depth never exceeds the configured cap (sampled
  continuously and via the peak counter);
* every request reaches a terminal outcome, and no *answered* request
  was granted admission after its deadline (a request past its deadline
  can only terminate as SHED/DEADLINE/FAILED);
* the AIMD limit is actually cut by the storm and recovers to within
  20% of its pre-fault value once the fault clears.
"""

import pytest

from repro.admission import AdmissionConfig, AdmissionController, AIMDConfig
from repro.admission import aimd
from repro.core import HotCConfig, PoolLimits, make_cluster_platform
from repro.faas.tracing import RequestOutcome
from repro.faults import FaultKind, FaultPlan, ScheduledFault

SEEDS = [1, 2, 3, 4, 5]
TICK_MS = 500.0
QUEUE_CAP = 16
DEADLINE_MS = 10_000.0

WARMUP_END = 10_000.0
OUTAGE_AT = 10_500.0
OUTAGE_MS = 4_000.0
STORM_END = 30_000.0
RECOVERY_END = 55_000.0

ANSWERED = (RequestOutcome.SUCCESS, RequestOutcome.RETRIED)


def hotc_config():
    return HotCConfig(
        control_interval_ms=TICK_MS,
        limits=PoolLimits(max_containers=24),
    )


@pytest.fixture(autouse=True)
def aimd_ceiling(monkeypatch):
    """Cap every AIMD limit at 16 (the default ceiling is 1,024)."""
    monkeypatch.setattr(aimd, "MAX_LIMIT", 16.0)


def admission_config():
    return AdmissionConfig(
        max_queue_depth=QUEUE_CAP,
        aimd=AIMDConfig(initial_limit=8.0),
        default_deadline_ms=DEADLINE_MS,
    )


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_overload_soak(registry, fn_python, seed, chaos_report):
    platform = make_cluster_platform(
        registry, n_hosts=2, seed=seed, hotc_config=hotc_config()
    )
    platform.deploy(fn_python.with_overrides(exec_ms=60.0))
    name = fn_python.name
    ctrl = AdmissionController(admission_config())
    platform.attach_admission(ctrl)
    cluster = platform.provider

    plan = FaultPlan(
        seed=seed,
        scheduled=(
            ScheduledFault(
                at_ms=OUTAGE_AT,
                kind=FaultKind.HOST_OUTAGE,
                host="host-1",
                duration_ms=OUTAGE_MS,
            ),
        ),
    )
    plan.install(platform.sim, [h.engine for h in cluster.hosts])
    cluster.start_control_loops()

    limit_trace = []

    def monitor():
        while True:
            yield platform.sim.timeout(50.0)
            cluster.check_consistency()
            depth = ctrl.queue_depth(name)
            assert depth <= QUEUE_CAP, (
                f"queue depth {depth} exceeds cap {QUEUE_CAP} "
                f"at t={platform.sim.now}"
            )
            limit_trace.append(ctrl.limit(name))

    platform.sim.process(monitor(), name="overload-monitor")

    # Phase 1: steady in-limit load; AIMD climbs to its ceiling.
    for i in range(200):
        platform.submit(name, delay=i * 50.0)
    platform.run(until=WARMUP_END)
    pre_fault = ctrl.limit(name)
    assert pre_fault >= 8  # the warmup never cut the limit

    # Phase 2: 10x burst; host-1 dies mid-burst (t=10.5s, 4s outage).
    burst = 10 * pre_fault
    for i in range(burst):
        platform.submit(name, delay=i * 10.0)
    platform.run(until=STORM_END)
    assert plan.stats.host_outages == 1
    min_limit = min(limit_trace)
    assert min_limit < pre_fault, "the storm never cut the AIMD limit"

    # Phase 3: the fault cleared; steady load drives additive recovery.
    for i in range(200):
        platform.submit(name, delay=i * 50.0)
    platform.run(until=RECOVERY_END)
    post_fault = ctrl.limit(name)
    assert post_fault >= 0.8 * pre_fault, (
        f"AIMD limit stuck at {post_fault} (pre-fault {pre_fault})"
    )

    cluster.stop_control_loops()
    platform.run(until=platform.sim.now + 60_000.0)
    platform.sim.process(cluster.shutdown(), name="shutdown")
    platform.run(until=platform.sim.now + 60_000.0)

    traces = platform.traces
    assert len(traces) == 400 + burst
    assert traces.all_terminal()
    assert ctrl.stats.queue_depth_peak <= QUEUE_CAP
    assert traces.shed_count() > 0, "the 10x burst shed nothing"
    # No request waited past its deadline and still got service: every
    # answered request was granted admission within its deadline.
    for trace in traces:
        if trace.outcome in ANSWERED:
            granted_at = trace.t1_gateway_in + trace.queue_ms
            assert granted_at <= trace.deadline + 1e-9, (
                f"request {trace.request_id} granted at {granted_at} "
                f"past deadline {trace.deadline}"
            )
        else:
            assert trace.outcome in (
                RequestOutcome.SHED,
                RequestOutcome.DEADLINE,
                RequestOutcome.FAILED,
            )
    # Admission bookkeeping fully unwound.
    assert ctrl.inflight(name) == 0
    assert ctrl.queue_depth_total() == 0
    cluster.check_consistency()

    chaos_report(
        seed=seed,
        plan=plan,
        platform=platform,
        admission=ctrl.stats.as_dict(),
        pre_fault_limit=pre_fault,
        min_limit=min_limit,
        post_fault_limit=post_fault,
        hosts_lost=cluster.stats.hosts_lost,
        failovers=cluster.stats.failovers,
    )


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_overload_soak_reproducible(registry, fn_python, seed):
    """Same seed, same storm: outcomes and shed counts match exactly."""

    def run_once():
        platform = make_cluster_platform(
            registry, n_hosts=2, seed=seed, hotc_config=hotc_config()
        )
        platform.deploy(fn_python.with_overrides(exec_ms=60.0))
        name = fn_python.name
        ctrl = AdmissionController(admission_config())
        platform.attach_admission(ctrl)
        cluster = platform.provider
        plan = FaultPlan(
            seed=seed,
            scheduled=(
                ScheduledFault(
                    at_ms=OUTAGE_AT,
                    kind=FaultKind.HOST_OUTAGE,
                    host="host-1",
                    duration_ms=OUTAGE_MS,
                ),
            ),
        )
        plan.install(platform.sim, [h.engine for h in cluster.hosts])
        cluster.start_control_loops()
        for i in range(200):
            platform.submit(name, delay=i * 50.0)
        platform.run(until=WARMUP_END)
        for i in range(10 * ctrl.limit(name)):
            platform.submit(name, delay=i * 10.0)
        platform.run(until=STORM_END)
        cluster.stop_control_loops()
        platform.run(until=platform.sim.now + 60_000.0)
        platform.sim.process(cluster.shutdown(), name="shutdown")
        platform.run(until=platform.sim.now + 60_000.0)
        return (
            platform.traces.outcome_counts(),
            platform.traces.shed_reasons(),
            ctrl.stats.as_dict(),
        )

    assert run_once() == run_once()
