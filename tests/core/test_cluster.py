"""Tests for multi-host HotC (the Section VII load-balancing extension)."""

import pytest

from repro.core import ClusterHotC, make_cluster_platform
from repro.containers import Container, ContainerConfig, ContainerEngine
from repro.faas import FunctionSpec
from repro.sim import Simulator


def make_platform(registry, n_hosts=3, placement="reuse-aware", **kwargs):
    platform = make_cluster_platform(
        registry, n_hosts=n_hosts, seed=0, placement=placement,
        jitter_sigma=0.0, **kwargs
    )
    platform.deploy(FunctionSpec(name="fn", image="python:3.6", exec_ms=20))
    return platform


class TestConstruction:
    def test_needs_engines(self):
        with pytest.raises(ValueError):
            ClusterHotC([])

    def test_unknown_placement(self, registry):
        sim = Simulator()
        engine = ContainerEngine(sim, registry, rng=None)
        with pytest.raises(ValueError):
            ClusterHotC([engine], placement="random")

    def test_engines_need_distinct_names(self, registry):
        sim = Simulator()
        engines = [ContainerEngine(sim, registry, rng=None) for _ in range(2)]
        with pytest.raises(ValueError):
            ClusterHotC(engines)

    def test_platform_builds_n_hosts(self, registry):
        platform = make_platform(registry, n_hosts=3)
        assert platform.provider.n_hosts == 3
        with pytest.raises(ValueError):
            make_cluster_platform(registry, n_hosts=0)


class TestReuseAwareRouting:
    def test_sequential_requests_stick_to_one_host(self, registry):
        """A lone request stream should reuse one host's hot container,
        not spray cold boots across the cluster."""
        platform = make_platform(registry, n_hosts=3)
        # 5s spacing: the first request (which also pulls the image)
        # finishes before the next arrives.
        for index in range(6):
            platform.submit("fn", delay=index * 5_000.0)
        platform.run()
        assert platform.traces.cold_count() == 1
        sizes = platform.provider.pool_sizes()
        assert sorted(sizes) == [0, 0, 1]
        assert platform.provider.stats.reuse_routed == 5
        assert platform.provider.stats.cold_routed == 1

    def test_concurrent_cold_boots_spread(self, registry):
        """Simultaneous cold requests balance across hosts."""
        platform = make_platform(registry, n_hosts=3)
        for _ in range(6):
            platform.submit("fn")
        platform.run()
        sizes = platform.provider.pool_sizes()
        assert sizes == (2, 2, 2)

    def test_round_robin_sprays_cold_boots(self, registry):
        """The strawman placement ignores warm containers."""
        platform = make_platform(registry, n_hosts=3, placement="round-robin")
        for index in range(6):
            platform.submit("fn", delay=index * 2_000.0)
        platform.run()
        # Requests rotate hosts: the first visit to each host is cold.
        assert platform.traces.cold_count() == 3

    def test_reuse_aware_beats_round_robin_latency(self, registry):
        def mean_latency(placement):
            platform = make_platform(registry, n_hosts=3, placement=placement)
            for index in range(9):
                platform.submit("fn", delay=index * 2_000.0)
            platform.run()
            return platform.traces.mean_latency()

        assert mean_latency("reuse-aware") < mean_latency("round-robin")


class TestBookkeeping:
    def test_engine_for_resolves_owner(self, registry):
        platform = make_platform(registry, n_hosts=2)
        platform.submit("fn")
        platform.run()
        # The container id names the host, released or not.
        trace = platform.traces.traces[0]
        provider = platform.provider
        (index,) = [i for i, size in enumerate(provider.pool_sizes()) if size]
        (entry,) = provider.hosts[index].pool.entries()
        assert entry.container.container_id == trace.container_id
        assert provider.host_of(entry.container) is provider.hosts[index]
        assert provider.engine_for(entry.container) is provider.hosts[index].engine

    def test_untracked_container_raises(self, registry):
        platform = make_platform(registry, n_hosts=2)
        ghost = Container("ghost", ContainerConfig(image="python:3.6"), 0.0)
        with pytest.raises(KeyError):
            platform.provider.host_of(ghost)

    def test_inflight_returns_to_zero(self, registry):
        platform = make_platform(registry, n_hosts=2)
        for _ in range(4):
            platform.submit("fn")
        platform.run()
        for index in range(2):
            assert platform.provider.inflight(index) == 0

    def test_shutdown_drains_all_hosts(self, registry):
        platform = make_platform(registry, n_hosts=3)
        for _ in range(6):
            platform.submit("fn")
        platform.run()
        platform.shutdown()
        assert platform.provider.pool_sizes() == (0, 0, 0)

    def test_control_loops_start_stop(self, registry):
        platform = make_platform(registry, n_hosts=2)
        provider = platform.provider
        provider.start_control_loops()
        platform.submit("fn")
        platform.run(until=5_000)
        provider.stop_control_loops()
        platform.run(until=10_000)
        for host in provider.hosts:
            assert host._control is None


class TestReuseCounters:
    def test_donor_reuse_counts_match_host_pools(self):
        """The cluster's relaxed/repurpose counts are the hosts' pool
        counts: one source, read at the cluster level."""
        from repro.containers import Registry, derive_image, make_base_image
        from repro.core import HotCConfig, KeyPolicy

        base = make_base_image("python", "3.6", size_mb=330, language="python")
        app_a = derive_image(base, "app/a", tag="1", extra_mb=12.0)
        app_b = derive_image(base, "app/b", tag="1", extra_mb=14.0)
        config = HotCConfig(
            control_interval_ms=0.0,
            fallback_key_policy=KeyPolicy.RELAXED,
            repurpose=True,
        )
        platform = make_cluster_platform(
            Registry([base, app_a, app_b]), n_hosts=2, seed=0,
            jitter_sigma=0.0, hotc_config=config,
        )
        # a0/a1 differ only in env (same relaxed key); b shares a0's
        # base layers (a repurpose donor).
        for name, image, env in (
            ("a0", app_a, (("MODE", "0"),)),
            ("a1", app_a, (("MODE", "1"),)),
            ("b", app_b, ()),
        ):
            platform.deploy(
                FunctionSpec(name=name, image=image.reference, exec_ms=20.0, env=env)
            )
        for phase in (("a0", "a0"), ("a1", "a1"), ("b", "b"), ("a0", "b")):
            for name in phase:
                platform.submit(name)
            platform.run()
        cluster = platform.provider
        relaxed = [host.pool.stats.relaxed_hits for host in cluster.hosts]
        repurposed = [host.pool.stats.repurposed for host in cluster.hosts]
        assert all(relaxed) and all(repurposed), "a donor stage never engaged"
        assert cluster.stats.relaxed_hits == sum(relaxed)
        assert cluster.stats.repurposes == sum(repurposed)


#: Ids that name no host of a 3-host cluster.
GHOST_IDS = ["ghost", "ghost/c000001", "host-0", "host-3/c000001"]


class TestRoutingByContainerId:
    """The container id's host prefix is the cluster's only routing map."""

    def busy_cluster(self, registry):
        """Three 30 s requests in flight, one per host, at t = 15 s."""
        platform = make_cluster_platform(
            registry, n_hosts=3, seed=0, jitter_sigma=0.0
        )
        platform.deploy(FunctionSpec(name="slow", image="python:3.6", exec_ms=30_000))
        for _ in range(3):
            platform.submit("slow")
        platform.run(until=15_000.0)
        cluster = platform.provider
        assert [cluster.inflight(i) for i in range(3)] == [1, 1, 1]
        return platform, cluster

    def test_busy_container_releases_to_its_host_after_recovery(self, registry):
        platform, cluster = self.busy_cluster(registry)
        cluster.crash_control_plane()
        assert [cluster.inflight(i) for i in range(3)] == [0, 0, 0]
        cluster.recover_from()
        assert [cluster.inflight(i) for i in range(3)] == [1, 1, 1]
        platform.run()
        assert platform.traces.failed_count() == 0
        for index, host in enumerate(cluster.hosts):
            assert cluster.inflight(index) == 0
            (entry,) = host.pool.entries()
            assert entry.available
            assert entry.container.container_id.startswith(f"host-{index}/")
        cluster.check_consistency()

    @pytest.mark.parametrize("container_id", GHOST_IDS)
    def test_release_of_unknown_host_raises(self, registry, container_id):
        platform, cluster = self.busy_cluster(registry)
        ghost = Container(container_id, ContainerConfig(image="python:3.6"), 0.0)
        with pytest.raises(KeyError):
            cluster.release(ghost).send(None)
        assert [cluster.inflight(i) for i in range(3)] == [1, 1, 1]

    @pytest.mark.parametrize("container_id", GHOST_IDS)
    def test_discard_of_unknown_host_keeps_inflight(self, registry, container_id):
        platform, cluster = self.busy_cluster(registry)
        ghost = Container(container_id, ContainerConfig(image="python:3.6"), 0.0)
        cluster.discard(ghost)
        assert [cluster.inflight(i) for i in range(3)] == [1, 1, 1]

    def test_consistency_catches_inflight_below_leased(self, registry):
        platform, cluster = self.busy_cluster(registry)
        cluster.check_consistency()
        cluster._inflight[1] = 0
        with pytest.raises(AssertionError, match="host 1 leases more"):
            cluster.check_consistency()
