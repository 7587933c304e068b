"""Chaos soak: randomized fault storms must never corrupt bookkeeping.

Marked ``chaos`` (opt in with ``--chaos`` / ``REPRO_CHAOS=1``): each run
drives a seeded Poisson workload through a platform while a randomized
:class:`~repro.faults.FaultPlan` kills boots, executions, pooled
containers and whole hosts, then asserts the global invariants:

* no demand-accounting (per-key busy count) or pending-boot leak,
* ``total_live`` never exceeds ``max_containers`` (+ in-flight boots),
* pool counters always match ground truth (``check_consistency``),
* no dead container is ever handed to a request,
* every request trace reaches a terminal outcome.
"""

import numpy as np
import pytest

from repro.core import HotC, HotCConfig, PoolLimits, make_cluster_platform
from repro.faas import FaasPlatform
from repro.faults import FaultPlan
from repro.sim.rng import derive_seed
from tests.cluster_checks import assert_no_requests_held

SEEDS = [1, 2, 3, 4, 5]
DURATION_MS = 60_000.0


def hotc_config():
    return HotCConfig(
        control_interval_ms=1_000.0,
        limits=PoolLimits(max_containers=12),
    )


def submit_workload(platform, seed, functions, n_requests=250):
    rng = np.random.default_rng(derive_seed(seed, "chaos-workload"))
    t = 0.0
    for _ in range(n_requests):
        t += float(rng.exponential(DURATION_MS / n_requests))
        name = functions[int(rng.integers(len(functions)))]
        platform.submit(name, delay=t)
    return t


def wrap_acquire_with_liveness_check(provider):
    """Fail loudly if acquire ever returns a non-reusable container."""
    original = provider.acquire

    def checked(config):
        container, cold = yield from original(config)
        assert container.is_reusable, (
            f"dead container handed out: {container.container_id} "
            f"in state {container.state}"
        )
        return container, cold

    provider.acquire = checked


def spawn_invariant_monitor(platform, hosts, interval_ms=500.0, provider=None):
    """Sample pool invariants on every host throughout the run."""

    def monitor():
        while True:
            yield platform.sim.timeout(interval_ms)
            if provider is not None:
                provider.check_consistency()
            for host in hosts:
                host.pool.check_consistency()
                cap = host.config.limits.max_containers
                live = host.pool.total_live
                pending = host._pending_total()
                assert live + pending <= cap, (
                    f"{host.engine.name}: {live} live + {pending} pending "
                    f"boots exceeds cap {cap} at t={platform.sim.now}"
                )

    platform.sim.process(monitor(), name="invariant-monitor")


def assert_quiescent(platform, hosts, provider=None):
    """End-of-run invariants once every request has settled."""
    if provider is not None:
        provider.check_consistency()
    for host in hosts:
        host.pool.check_consistency()
        assert all(s.busy == 0 for s in host._keys.values()), (
            f"{host.engine.name}: busy leak"
        )
        assert host._pending_boots == {}, (
            f"{host.engine.name}: pending-boot leak {host._pending_boots}"
        )
    assert platform.traces.all_terminal()


def drain_and_shutdown(platform, provider, stop_loops):
    stop_loops()
    # Let in-flight requests, retries and absorbed boots settle.
    platform.run(until=platform.sim.now + 120_000.0)
    platform.sim.process(provider.shutdown())
    platform.run(until=platform.sim.now + 60_000.0)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
class TestSingleHostChaos:
    def test_soak(self, registry, fn_python, fn_go, seed, chaos_report):
        platform = FaasPlatform(
            registry,
            seed=seed,
            provider_factory=lambda e: HotC(e, hotc_config()),
        )
        for fn in (fn_python, fn_go):
            platform.deploy(fn.with_overrides(exec_ms=80.0))
        provider = platform.provider
        wrap_acquire_with_liveness_check(provider)
        spawn_invariant_monitor(platform, [provider], provider=provider)

        plan = FaultPlan.random(
            seed=seed, duration_ms=DURATION_MS, hosts=("host-0",)
        )
        plan.install(platform.sim, [platform.engine])
        provider.start_control_loop()

        last = submit_workload(platform, seed, [fn_python.name, fn_go.name])
        platform.run(until=last + 30_000.0)
        drain_and_shutdown(
            platform, provider, provider.stop_control_loop
        )

        assert len(platform.traces) == 250
        assert_quiescent(platform, [provider], provider=provider)
        assert platform.engine.live_count == 0
        assert plan.stats.total > 0, "the storm injected nothing"
        # Recovery machinery actually engaged.
        stats = platform.engine.stats
        assert stats.boot_retries + stats.request_retries > 0
        chaos_report(
            seed=seed,
            plan=plan,
            platform=platform,
            boots=stats.boots,
            kills=stats.kills,
        )

    def test_soak_reproducible(self, registry, fn_python, fn_go, seed):
        """Same seed, same storm: outcome counters must match exactly."""

        def run_once():
            platform = FaasPlatform(
                registry,
                seed=seed,
                provider_factory=lambda e: HotC(e, hotc_config()),
            )
            for fn in (fn_python, fn_go):
                platform.deploy(fn.with_overrides(exec_ms=80.0))
            plan = FaultPlan.random(
                seed=seed, duration_ms=DURATION_MS, hosts=("host-0",)
            )
            plan.install(platform.sim, [platform.engine])
            platform.provider.start_control_loop()
            last = submit_workload(
                platform, seed, [fn_python.name, fn_go.name]
            )
            platform.run(until=last + 30_000.0)
            drain_and_shutdown(
                platform,
                platform.provider,
                platform.provider.stop_control_loop,
            )
            return (
                plan.stats.as_dict(),
                platform.traces.outcome_counts(),
                platform.engine.stats.boots,
                platform.engine.stats.kills,
            )

        assert run_once() == run_once()


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
class TestClusterChaos:
    def test_soak(self, registry, fn_python, fn_go, seed, chaos_report):
        platform = make_cluster_platform(
            registry,
            n_hosts=3,
            seed=seed,
            hotc_config=hotc_config(),
        )
        for fn in (fn_python, fn_go):
            platform.deploy(fn.with_overrides(exec_ms=80.0))
        cluster = platform.provider
        wrap_acquire_with_liveness_check(cluster)
        spawn_invariant_monitor(platform, cluster.hosts, provider=cluster)

        plan = FaultPlan.random(
            seed=seed,
            duration_ms=DURATION_MS,
            hosts=tuple(h.engine.name for h in cluster.hosts),
            pool_deaths=4,
            outages=2,
        )
        plan.install(platform.sim, [h.engine for h in cluster.hosts])
        cluster.start_control_loops()

        last = submit_workload(platform, seed, [fn_python.name, fn_go.name])
        platform.run(until=last + 30_000.0)
        drain_and_shutdown(
            platform, cluster, cluster.stop_control_loops
        )

        assert len(platform.traces) == 250
        assert_quiescent(platform, cluster.hosts, provider=cluster)
        assert_no_requests_held(cluster)
        for host in cluster.hosts:
            assert host.engine.live_count == 0
        if cluster.stats.hosts_lost:
            assert cluster.stats.failovers >= 1
        chaos_report(
            seed=seed,
            plan=plan,
            platform=platform,
            hosts_lost=cluster.stats.hosts_lost,
            failovers=cluster.stats.failovers,
        )
