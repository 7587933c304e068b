"""Failure injection: pooled containers dying out from under providers."""

import pytest

from repro.containers import ContainerError, ContainerState
from repro.core import FixedKeepAliveProvider, HotC
from repro.faas import FaasPlatform


def make_platform(registry, provider_factory):
    return FaasPlatform(
        registry, seed=0, jitter_sigma=0.0, provider_factory=provider_factory
    )


class TestKillContainer:
    def test_kill_idle_reclaims_everything(self, registry, fn_python):
        platform = make_platform(registry, HotC)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        engine = platform.engine
        container = engine.live_containers()[0]
        engine.kill_container(container)
        assert container.state is ContainerState.REMOVED
        assert engine.live_count == 0
        assert engine.resources.used_mem_mb == pytest.approx(0)
        assert len(engine.volumes) == 0
        assert engine.stats.kills == 1

    def test_kill_busy_rejected(self, registry, fn_python):
        platform = make_platform(registry, HotC)
        platform.deploy(fn_python.with_overrides(exec_ms=1_000.0))
        platform.submit(fn_python.name)
        platform.run(until=2_500)  # mid-exec
        engine = platform.engine
        busy = [c for c in engine._containers.values() if not c.is_reusable]
        assert busy
        with pytest.raises(ContainerError, match="idle"):
            engine.kill_container(busy[0])
        platform.run()

    def test_kill_created_rejected(self, registry):
        from repro.containers import Container, ContainerConfig

        platform = make_platform(registry, HotC)
        ghost = Container("g", ContainerConfig(image="python:3.6"), 0.0)
        with pytest.raises(ContainerError):
            platform.engine.kill_container(ghost)


class TestHotCResilience:
    def test_acquire_skips_dead_pooled_container(self, registry, fn_python):
        platform = make_platform(registry, HotC)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        provider = platform.provider
        container = platform.engine.live_containers()[0]
        platform.engine.kill_container(container)
        # The pool still holds the dead entry until the next lookup.
        assert provider.pool.total_live == 1
        platform.submit(fn_python.name)
        platform.run()
        # The request was served by a fresh cold boot, not the corpse.
        assert platform.traces.cold_count() == 2
        assert provider.pool.total_live == 1
        assert provider.pool.contains(container) is False

    def test_scale_down_tolerates_dead_entry(self, registry, fn_python):
        from repro.core import HotCConfig

        platform = make_platform(
            registry, lambda e: HotC(e, HotCConfig(control_interval_ms=0))
        )
        platform.deploy(fn_python)
        for _ in range(3):
            platform.submit(fn_python.name)
        platform.run()
        provider = platform.provider
        victim = platform.engine.live_containers()[0]
        platform.engine.kill_container(victim)
        # Force the forecast down: repeated zero-demand ticks retire
        # entries, including the dead one, without raising.
        for _ in range(20):
            provider.control_tick()
            platform.run()
        assert not provider.pool.contains(victim)

    def test_partial_key_fallback_skips_dead(self, registry, fn_python):
        from repro.core import HotCConfig, KeyPolicy

        platform = make_platform(
            registry,
            lambda e: HotC(e, HotCConfig(fallback_key_policy=KeyPolicy.RELAXED)),
        )
        platform.deploy(fn_python.with_overrides(env=(("V", "1"),)))
        platform.deploy(
            fn_python.with_overrides(name="other", env=(("V", "2"),))
        )
        platform.submit(fn_python.name)
        platform.run()
        platform.engine.kill_container(platform.engine.live_containers()[0])
        platform.submit("other")
        platform.run()
        # Fallback found only a corpse: a clean cold boot instead.
        assert platform.traces.cold_count() == 2
        assert platform.provider.pool.stats.relaxed_hits == 0


class TestKeepAliveResilience:
    def test_idle_list_skips_dead_container(self, registry, fn_python):
        platform = make_platform(
            registry,
            lambda e: FixedKeepAliveProvider(e, keep_alive_ms=600_000),
        )
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        # Stop before the 10-minute keep-alive expiry would destroy it.
        platform.run(until=10_000)
        container = platform.engine.live_containers()[0]
        platform.engine.kill_container(container)
        platform.submit(fn_python.name)
        platform.run(until=60_000)
        assert platform.traces.cold_count() == 2
        assert platform.provider.hits == 0
        platform.shutdown()
