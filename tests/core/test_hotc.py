"""Tests for the HotC middleware: reuse, cleanup, limits, prediction loop."""

import pytest

from repro.core import HotC, HotCConfig, PoolLimits
from repro.core import hotc as hotc_module
from repro.faas import FaasPlatform
from repro.obs import EventKind, Observatory


def make_platform(registry, config=None, seed=0, **kwargs):
    platform = FaasPlatform(
        registry,
        seed=seed,
        jitter_sigma=0.0,
        provider_factory=lambda engine: HotC(engine, config),
        **kwargs,
    )
    return platform


def control_ticks(platform, key):
    """The ``CONTROL_TICK`` events ``key`` has had so far."""
    return [
        event
        for event in platform.sim.obs.events
        if event.kind is EventKind.CONTROL_TICK and event.key == str(key)
    ]


class TestReuse:
    def test_first_request_cold_second_warm(self, registry, fn_python):
        platform = make_platform(registry)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        platform.submit(fn_python.name)
        platform.run()
        flags = list(platform.traces.cold_flags())
        assert flags == [True, False]

    def test_warm_request_much_faster(self, registry, fn_python):
        platform = make_platform(registry)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        platform.submit(fn_python.name)
        platform.run()
        latencies = platform.traces.latencies()
        assert latencies[1] < 0.4 * latencies[0]

    def test_different_functions_same_runtime_share_containers(
        self, registry, fn_python
    ):
        """Two functions with identical runtime parameters reuse the same
        container type (the homogeneity insight of Section I)."""
        platform = make_platform(registry)
        other = fn_python.with_overrides(name="other-py")
        platform.deploy(fn_python)
        platform.deploy(other)
        platform.submit(fn_python.name)
        platform.run()
        platform.submit(other.name)
        platform.run()
        assert platform.traces.cold_count() == 1
        assert platform.engine.stats.boots == 1

    def test_different_runtime_configs_do_not_share(self, registry, fn_python):
        platform = make_platform(registry)
        heavier = fn_python.with_overrides(name="big-py", mem_mb=512.0)
        platform.deploy(fn_python)
        platform.deploy(heavier)
        platform.submit(fn_python.name)
        platform.run()
        platform.submit(heavier.name)
        platform.run()
        assert platform.traces.cold_count() == 2

    def test_concurrent_requests_get_distinct_containers(self, registry, fn_python):
        platform = make_platform(registry)
        platform.deploy(fn_python)
        for _ in range(3):
            platform.submit(fn_python.name)
        platform.run()
        provider = platform.provider
        # All three arrived before any container existed: three boots.
        assert platform.engine.stats.boots == 3
        assert provider.pool.total_live == 3

    def test_containers_cleaned_between_uses(self, registry):
        from repro.faas import FunctionSpec

        platform = make_platform(registry)
        writer = FunctionSpec(
            name="writer", image="python:3.6", exec_ms=5.0, write_mb=4.0
        )
        platform.deploy(writer)
        platform.submit(writer.name)
        platform.run()
        platform.submit(writer.name)
        platform.run()
        pool = platform.provider.pool
        entry = next(iter(pool.available_entries(next(iter(pool.keys())))))
        # Cleanup wiped the volume after the last run too.
        assert entry.container.volume.bytes_mb == 0
        assert platform.engine.stats.volume_wipes == 2

    def test_pool_hit_stats(self, registry, fn_python):
        platform = make_platform(registry)
        platform.deploy(fn_python)
        for _ in range(4):
            platform.submit(fn_python.name)
            platform.run()
        stats = platform.provider.pool.stats
        assert stats.hits == 3
        assert stats.misses == 1


class TestLimits:
    def test_capacity_eviction_oldest(self, registry, fn_python, fn_go):
        config = HotCConfig(limits=PoolLimits(max_containers=1))
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        platform.deploy(fn_go)
        platform.submit(fn_python.name)
        platform.run()
        platform.submit(fn_go.name)
        platform.run()
        provider = platform.provider
        # Only one container may live: the python one was evicted.
        assert provider.pool.total_live == 1
        assert provider.pool.stats.evictions_capacity >= 1
        assert platform.engine.live_count == 1

    def test_memory_pressure_eviction(self, registry, fn_python):
        # Absurdly low threshold: every release triggers pressure eviction.
        config = HotCConfig(limits=PoolLimits(memory_threshold=1e-6))
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        provider = platform.provider
        assert provider.pool.stats.evictions_pressure >= 1
        assert provider.pool.total_live == 0

    def test_shutdown_drains_pool(self, registry, fn_python):
        platform = make_platform(registry)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        platform.shutdown()
        assert platform.provider.pool.total_live == 0
        assert platform.engine.live_count == 0


class TestAdaptiveControl:
    def test_control_tick_records_demand(self, registry, fn_python):
        platform = make_platform(registry)
        platform.deploy(fn_python)
        provider = platform.provider
        for _ in range(2):
            platform.submit(fn_python.name)
        platform.run()
        provider.control_tick()
        key = provider.key_of(fn_python.container_config())
        # The first observation is the first forecast.
        assert provider.controller.forecast(key) == 2.0

    def test_prewarm_boots_toward_forecast(self, registry, fn_python):
        config = HotCConfig(control_interval_ms=0)  # manual ticks
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        provider = platform.provider
        # Sustained demand of 3 concurrent requests.
        for _ in range(3):
            platform.submit(fn_python.name)
        platform.run()
        provider.control_tick()
        platform.run()
        key = provider.key_of(fn_python.container_config())
        assert provider.pool.num_total(key) >= 3

    def test_scale_down_retires_idle(self, registry, fn_python):
        config = HotCConfig(control_interval_ms=0)
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        provider = platform.provider
        for _ in range(4):
            platform.submit(fn_python.name)
        platform.run()
        key = provider.key_of(fn_python.container_config())
        assert provider.pool.num_total(key) == 4
        # Demand collapses to zero: repeated ticks shrink the forecast.
        for _ in range(30):
            provider.control_tick()
            platform.run()
        assert provider.pool.num_total(key) < 4

    def test_control_loop_runs_periodically(self, registry, fn_python):
        config = HotCConfig(control_interval_ms=100.0)
        platform = make_platform(registry, config)
        platform.sim.obs = Observatory()
        platform.deploy(fn_python)
        provider = platform.provider
        provider.start_control_loop()
        platform.submit(fn_python.name)
        platform.run(until=550.0)
        provider.stop_control_loop()
        platform.run()
        key = provider.key_of(fn_python.container_config())
        assert len(control_ticks(platform, key)) >= 4

    def test_prewarmed_container_serves_warm_request(self, registry, fn_python):
        config = HotCConfig(control_interval_ms=0)
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        provider = platform.provider
        platform.submit(fn_python.name)
        platform.run()
        provider.control_tick()  # forecast ~1 -> keep one warm
        platform.run()
        platform.submit(fn_python.name)
        platform.run()
        assert platform.traces.cold_count() == 1

    def test_prewarm_disabled_never_boots_extra(
        self, registry, fn_python, monkeypatch
    ):
        monkeypatch.setattr(hotc_module, "PREWARM", False)
        config = HotCConfig(control_interval_ms=0)
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        provider = platform.provider
        platform.submit(fn_python.name)
        platform.run()
        boots_before = platform.engine.stats.boots
        for _ in range(5):
            provider.control_tick()
        platform.run()
        assert platform.engine.stats.boots == boots_before


class TestScaleDownRace:
    def test_scale_down_claims_victims_synchronously(self, registry, fn_python):
        """Regression: a scale-down victim must leave the pool before the
        retire process runs, or an acquire landing in the gap is handed a
        container that is about to be stopped."""
        config = HotCConfig(control_interval_ms=0)
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        for _ in range(4):
            platform.submit(fn_python.name)
        platform.run()
        provider = platform.provider
        key = provider.key_of(fn_python.container_config())
        assert provider.pool.num_available(key) == 4
        provider._resize_key(key, 2)
        # The two victims are claimed immediately, not at retire time.
        assert provider.pool.num_available(key) == 2
        assert provider.pool.num_total(key) == 2
        # A request arriving before the retire processes run is served by
        # one of the two survivors, not a dying container.
        platform.submit(fn_python.name)
        platform.run()
        assert platform.traces.cold_count() == 4
        assert provider.pool.total_live == 2

    def test_same_victim_not_picked_twice(self, registry, fn_python):
        """Two back-to-back scale-downs must not double-retire an entry."""
        config = HotCConfig(control_interval_ms=0)
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        for _ in range(4):
            platform.submit(fn_python.name)
        platform.run()
        provider = platform.provider
        key = provider.key_of(fn_python.container_config())
        provider._resize_key(key, 3)
        provider._resize_key(key, 2)
        platform.run()
        assert provider.pool.num_total(key) == 2
        assert provider.pool.stats.retired == 2


class TestCapacityWithPendingBoots:
    def test_pending_boots_count_against_cap(self, registry, fn_python, fn_go):
        """Regression: an in-flight prewarm boot plus a concurrent cold
        boot must not overshoot max_containers — pending boots count."""
        config = HotCConfig(
            control_interval_ms=0, limits=PoolLimits(max_containers=2)
        )
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        platform.deploy(fn_go)
        platform.submit(fn_python.name)
        platform.run()  # one idle python container pooled
        provider = platform.provider
        key_py = provider.key_of(fn_python.container_config())
        assert provider.pool.num_available(key_py) == 1
        # A slow prewarm boot is in flight while a go request cold-boots.
        platform.submit(fn_go.name)
        provider._spawn_prewarm(key_py)
        platform.run()
        # Cap respected: the idle python was evicted to make room.
        assert provider.pool.total_live <= 2
        assert platform.engine.live_count <= 2


class TestControlLoopRestart:
    def test_stop_start_leaves_single_loop(self, registry, fn_python):
        """Regression: stop() then start() within one control interval
        must not leave the stale loop ticking alongside the new one."""
        config = HotCConfig(control_interval_ms=100.0)
        platform = make_platform(registry, config)
        platform.sim.obs = Observatory()
        platform.deploy(fn_python)
        provider = platform.provider
        platform.submit(fn_python.name)
        platform.run()
        key = provider.key_of(fn_python.container_config())
        t0 = provider.sim.now
        provider.start_control_loop()
        platform.run(until=t0 + 250.0)  # ticks at t0+100, t0+200
        assert len(control_ticks(platform, key)) == 2
        provider.stop_control_loop()
        provider.start_control_loop()  # old loop still pending its tick
        # New loop ticks at t0+350 .. t0+1050 -> 8 more; the stale loop
        # pending at t0+300 must exit without ticking.
        platform.run(until=t0 + 1_050.0)
        provider.stop_control_loop()
        platform.run()
        assert len(control_ticks(platform, key)) == 10


class TestDeadDiscardStats:
    def test_dead_discard_not_counted_as_hit(self, registry, fn_python):
        """Regression: handing out a crashed container must not inflate
        hits, and the cold-boot retry must not double-count the lookup."""
        platform = make_platform(registry)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        provider = platform.provider
        platform.engine.kill_container(platform.engine.live_containers()[0])
        platform.submit(fn_python.name)
        platform.run()
        stats = provider.pool.stats
        # One real miss per cold boot; the corpse lookup is a discard.
        assert stats.hits == 0
        assert stats.misses == 2
        assert stats.dead_discards == 1
        assert stats.hit_ratio == 0.0
        # A healthy warm reuse still counts normally afterwards.
        platform.submit(fn_python.name)
        platform.run()
        assert provider.pool.stats.hits == 1
        assert provider.pool.stats.dead_discards == 1


class TestHotCConfig:
    def test_default_matches_paper(self, registry):
        from repro.core.predictor import controller

        config = HotCConfig()
        assert controller.ALPHA == 0.8
        assert config.limits.max_containers == 500
        assert config.limits.memory_threshold == 0.8
        assert make_platform(registry).provider.pool.eviction == "oldest"

    def test_markov_correction_flag(self):
        es_only = HotCConfig(markov_correction=False).make_controller()
        series = [4.0, 18.0, 4.0, 18.0] * 5
        for value in series:
            es_only.observe(["k"], [value])
        # min_history is huge: the chain never engages; forecast == ES.
        from repro.core import ExponentialSmoothing

        reference = ExponentialSmoothing(alpha=0.8).fit_series(series)
        assert es_only.forecast("k") == pytest.approx(max(0.0, reference[-1]))
