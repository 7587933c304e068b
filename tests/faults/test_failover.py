"""Cluster failover: host outages re-route requests and drain metadata."""

import pytest

from repro.core import HotCConfig, make_cluster_platform
from repro.faults import (
    FaultKind,
    FaultPlan,
    RuntimeUnavailableError,
    ScheduledFault,
)
from tests.cluster_checks import assert_no_requests_held


def make_cluster(registry, n_hosts=3, **kwargs):
    platform = make_cluster_platform(
        registry,
        n_hosts=n_hosts,
        seed=0,
        jitter_sigma=0.0,
        hotc_config=HotCConfig(control_interval_ms=0),
        **kwargs,
    )
    return platform, platform.provider


def engines_of(provider):
    return [host.engine for host in provider.hosts]


class TestFailover:
    def test_outage_fails_over_to_healthy_host(self, registry, fn_python):
        platform, cluster = make_cluster(registry)
        platform.deploy(fn_python)
        # Warm up host-0 so the scheduler prefers it.
        platform.submit(fn_python.name)
        platform.run()
        assert cluster.hosts[0].pool.total_live == 1

        plan = FaultPlan(
            seed=0,
            scheduled=(
                ScheduledFault(
                    at_ms=platform.sim.now + 100.0,
                    kind=FaultKind.HOST_OUTAGE,
                    host="host-0",
                    duration_ms=10_000.0,
                ),
            ),
        )
        plan.install(platform.sim, engines_of(cluster))
        platform.run(until=platform.sim.now + 200.0)  # outage begins

        platform.submit(fn_python.name)
        platform.run(until=platform.sim.now + 8_000.0)
        assert cluster.stats.failovers >= 1
        assert cluster.stats.hosts_lost == 1
        assert cluster.down_hosts() == (0,)
        # The dead host's pool metadata was drained.
        assert cluster.hosts[0].pool.total_live == 0
        # The request succeeded on another host.
        assert platform.traces.failed_count() == 0
        assert len(platform.traces) == 2
        served_on = platform.traces.traces[-1].container_id
        assert not served_on.startswith("host-0/")

    def test_host_recovers_after_outage(self, registry, fn_python):
        platform, cluster = make_cluster(registry)
        platform.deploy(fn_python)
        plan = FaultPlan(
            seed=0,
            scheduled=(
                ScheduledFault(
                    at_ms=100.0,
                    kind=FaultKind.HOST_OUTAGE,
                    host="host-0",
                    duration_ms=2_000.0,
                ),
            ),
        )
        plan.install(platform.sim, engines_of(cluster))
        platform.submit(fn_python.name, delay=500.0)  # during the outage
        platform.run(until=1_500.0)
        assert cluster.down_hosts() == (0,)
        platform.run(until=10_000.0)
        # The next acquire's health refresh readmits the host.
        platform.submit(fn_python.name)
        platform.run(until=60_000.0)
        assert cluster.down_hosts() == ()
        assert platform.traces.failed_count() == 0

    def test_all_hosts_down_fails_the_request(self, registry, fn_python):
        platform, cluster = make_cluster(registry, n_hosts=2)
        platform.deploy(fn_python)
        plan = FaultPlan(
            seed=0,
            scheduled=tuple(
                ScheduledFault(
                    at_ms=100.0,
                    kind=FaultKind.HOST_OUTAGE,
                    host=f"host-{i}",
                    duration_ms=30_000.0,
                )
                for i in range(2)
            ),
        )
        plan.install(platform.sim, engines_of(cluster))
        platform.submit(fn_python.name, delay=1_000.0)
        platform.run(until=20_000.0)
        trace = platform.traces.traces[0]
        assert trace.outcome.value == "failed"
        assert "RuntimeUnavailableError" in trace.error or "HostDownError" in trace.error
        assert cluster.stats.hosts_lost == 2

    def test_discard_keeps_inflight_consistent(self, registry, fn_python):
        platform, cluster = make_cluster(registry)
        platform.deploy(fn_python)
        injectors = FaultPlan.none().install(
            platform.sim, engines_of(cluster)
        )
        # Crash the first execution on whichever host serves it.
        for injector in injectors.values():
            injector.crash_next_execs(1)
        platform.submit(fn_python.name)
        platform.run()
        trace = platform.traces.traces[0]
        assert trace.outcome.value in ("retried", "success")
        assert_no_requests_held(cluster)
        for host in cluster.hosts:
            host.pool.check_consistency()


class TestPrewarmAbsorption:
    def test_dead_host_prewarm_reservations_absorbed(self, registry, fn_python):
        """Regression: a dead host's in-flight prewarm boots used to keep
        counting against max_containers forever; the failover drain now
        absorbs those reservations."""
        from repro.core import PoolLimits, make_cluster_platform

        platform = make_cluster_platform(
            registry,
            n_hosts=2,
            seed=0,
            jitter_sigma=0.0,
            hotc_config=HotCConfig(
                control_interval_ms=0,
                limits=PoolLimits(max_containers=2),
            ),
        )
        cluster = platform.provider
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()  # host-0 warm; the runtime key's config is learned
        host = cluster.hosts[0]
        key = host.key_of(fn_python.container_config())
        host._spawn_prewarm(key)
        assert host._pending_total() == 1

        plan = FaultPlan(
            seed=0,
            scheduled=(
                ScheduledFault(
                    at_ms=platform.sim.now + 1.0,
                    kind=FaultKind.HOST_OUTAGE,
                    host="host-0",
                    duration_ms=5_000.0,
                ),
            ),
        )
        plan.install(platform.sim, engines_of(cluster))
        # A request during the outage makes the scheduler notice the
        # dead host, drain its metadata and absorb the prewarm boot.
        platform.submit(fn_python.name, delay=1_000.0)
        platform.run(until=platform.sim.now + 3_000.0)
        assert cluster.down_hosts() == (0,)
        assert host._pending_boots == {}
        assert host._pending_prewarms == {}

        # After the host rejoins it can boot back to its full cap —
        # with the leak, one phantom reservation would block a slot.
        platform.run(until=platform.sim.now + 10_000.0)
        platform.submit(fn_python.name)  # refresh readmits the host
        platform.run()
        assert cluster.down_hosts() == ()
        host._spawn_prewarm(key)
        host._spawn_prewarm(key)
        platform.run()
        assert host.pool.total_live == 2
        assert host._pending_total() == 0
        host.pool.check_consistency()


class TestPickHost:
    def test_round_robin_skips_down_hosts(self, registry, fn_python):
        platform, cluster = make_cluster(
            registry, n_hosts=3, placement="round-robin"
        )
        platform.deploy(fn_python)
        cluster._down.add(1)
        config = fn_python.container_config()
        picks = [cluster._pick_host(config)[0] for _ in range(4)]
        assert 1 not in picks
        assert picks == [0, 2, 0, 2]

    def test_no_routable_host_raises(self, registry, fn_python):
        platform, cluster = make_cluster(registry, n_hosts=2)
        platform.deploy(fn_python)
        cluster._down.update({0, 1})
        with pytest.raises(RuntimeUnavailableError):
            cluster._pick_host(fn_python.container_config())
