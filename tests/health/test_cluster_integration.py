"""Health-aware routing: the cluster steers around sick hosts."""

from repro.core import HotCConfig, make_cluster_platform
from repro.faults import FaultKind, FaultPlan, ScheduledFault
from repro.health import HealthMonitor, HostState
from repro.health.lifecycle import PROBATION_HEARTBEATS


def make_cluster(registry, n_hosts=2, **kwargs):
    platform = make_cluster_platform(
        registry,
        n_hosts=n_hosts,
        seed=0,
        jitter_sigma=0.0,
        hotc_config=HotCConfig(control_interval_ms=0),
        **kwargs,
    )
    cluster = platform.provider
    monitor = HealthMonitor(platform.sim)
    monitor.attach(cluster.hosts)
    monitor.start()
    injectors = FaultPlan.none().install(
        platform.sim, [host.engine for host in cluster.hosts]
    )
    return platform, cluster, monitor, injectors


class TestAttach:
    def test_attach_registers_hosts_and_takes_the_slot(self, registry):
        platform, cluster, monitor, injectors = make_cluster(registry)
        assert platform.sim.health is monitor
        assert sorted(monitor.hosts) == ["host-0", "host-1"]
        for host in cluster.hosts:
            assert monitor.hosts[host.engine.name].engine is host.engine
            assert monitor._on_drain[host.engine.name] == host.drain_lost


class TestRouting:
    def test_quarantined_host_gets_no_new_work(self, registry, fn_python):
        platform, cluster, monitor, injectors = make_cluster(registry)
        platform.deploy(fn_python)
        platform.run(until=5_000.0)
        platform.sim.schedule(
            0.0, lambda: setattr(injectors["host-0"], "heartbeats_lost", True)
        )
        platform.run(until=6_600.0)
        assert monitor.state("host-0") is HostState.QUARANTINED
        assert not cluster._routable(0)

        for _ in range(3):
            platform.submit(fn_python.name)
        platform.run(until=20_000.0)
        assert platform.traces.failed_count() == 0
        for trace in platform.traces.traces:
            assert trace.container_id.startswith("host-1/")
        # Quarantine is routing-only: the host was never declared down.
        assert cluster.down_hosts() == ()

    def test_probation_weight_inflates_load_key(self, registry, fn_python):
        platform, cluster, monitor, injectors = make_cluster(registry)
        platform.deploy(fn_python)
        platform.run(until=5_000.0)
        baseline = cluster._load_key(0)[0]
        health = monitor.hosts["host-0"]
        health.transition_to(HostState.PROBATION, now=platform.sim.now)
        assert cluster._routable(0)
        inflated = cluster._load_key(0)[0]
        assert inflated > baseline
        # The penalty relaxes as the on-time streak grows.
        health.probation_progress = PROBATION_HEARTBEATS - 1
        assert cluster._load_key(0)[0] < inflated

    def test_draining_host_rejoins_and_serves_again(self, registry, fn_python):
        platform, cluster, monitor, injectors = make_cluster(registry)
        platform.deploy(fn_python)
        platform.run(until=5_000.0)
        platform.sim.schedule(
            0.0, lambda: setattr(injectors["host-0"], "heartbeats_lost", True)
        )
        platform.run(until=8_000.0)
        assert monitor.state("host-0") is HostState.DRAINING
        platform.sim.schedule(
            0.0, lambda: setattr(injectors["host-0"], "heartbeats_lost", False)
        )
        platform.run(until=20_000.0)
        assert monitor.state("host-0") is HostState.HEALTHY
        platform.submit(fn_python.name)
        platform.run(until=40_000.0)
        assert platform.traces.failed_count() == 0


class TestPartition:
    def test_warm_pool_survives_a_partition(self, registry, fn_python):
        platform, cluster, monitor, injectors = make_cluster(registry)
        platform.deploy(fn_python)
        # Warm host-0 with one execution.
        platform.submit(fn_python.name)
        platform.run(until=5_000.0)
        assert cluster.hosts[0].pool.total_live == 1

        plan = FaultPlan(
            seed=0,
            scheduled=(
                ScheduledFault(
                    at_ms=platform.sim.now + 100.0,
                    kind=FaultKind.PARTITION,
                    host="host-0",
                    duration_ms=5_000.0,
                ),
            ),
        )
        plan.install(platform.sim, [host.engine for host in cluster.hosts])
        platform.run(until=platform.sim.now + 3_000.0)
        # Detector sees pure silence; the drain hook runs but the
        # containers are alive behind the partition, so nothing drops.
        assert monitor.state("host-0") is HostState.DRAINING
        assert cluster.hosts[0].pool.total_live == 1

        # During the partition, work lands on the other host (routing
        # is decided at submit time, mid-partition).
        platform.submit(fn_python.name)
        platform.run(until=platform.sim.now + 10_000.0)
        assert platform.traces.traces[-1].container_id.startswith("host-1/")

        # After the heal host-0's warm container is still pooled and the
        # next request is a warm hit (on either host — both are warm now).
        platform.run(until=platform.sim.now + 30_000.0)
        assert monitor.state("host-0") is HostState.HEALTHY
        assert cluster.hosts[0].pool.total_live == 1
        platform.submit(fn_python.name)
        platform.run(until=platform.sim.now + 30_000.0)
        last = platform.traces.traces[-1]
        assert not last.cold_start
        assert last.reuse == "hit"
