"""Tests for partial-key matching (Section VII future work).

"Small differences in the configuration file or some settings would
lead to the lookup failure.  We will explore adopting a subset of the
available parameters as the key ... reuse an existing available or idle
container with a similar configuration and apply the changes."
"""

import pytest

from repro.core import HotC, HotCConfig, KeyPolicy
from repro.faas import FaasPlatform, FunctionSpec


def make_platform(registry, fallback=KeyPolicy.RELAXED):
    config = HotCConfig(fallback_key_policy=fallback)
    return FaasPlatform(
        registry,
        seed=0,
        jitter_sigma=0.0,
        provider_factory=lambda engine: HotC(engine, config),
    )


def env_variant(name, value):
    """Functions differing only in an env var: same relaxed key."""
    return FunctionSpec(
        name=name, image="python:3.6", exec_ms=20, env=(("MODE", value),)
    )


class TestConfigValidation:
    def test_fallback_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            HotCConfig(
                key_policy=KeyPolicy.RELAXED,
                fallback_key_policy=KeyPolicy.RELAXED,
            )

    def test_disabled_by_default(self):
        assert HotCConfig().fallback_key_policy is None


class TestPartialReuse:
    def test_similar_config_reused_with_reconfigure(self, registry):
        platform = make_platform(registry)
        platform.deploy(env_variant("fn-a", "alpha"))
        platform.deploy(env_variant("fn-b", "beta"))
        platform.submit("fn-a")
        platform.run()
        platform.submit("fn-b")
        platform.run()
        # fn-b found no exact match but reused fn-a's container.
        assert platform.traces.cold_count() == 1
        assert platform.provider.pool.stats.relaxed_hits == 1
        assert platform.engine.stats.boots == 1

    def test_partial_hit_far_cheaper_than_cold(self, registry):
        platform = make_platform(registry)
        platform.deploy(env_variant("fn-a", "alpha"))
        platform.deploy(env_variant("fn-b", "beta"))
        platform.submit("fn-a")
        platform.run()
        platform.submit("fn-b")
        platform.run()
        cold, partial = platform.traces.latencies()
        assert partial < 0.3 * cold
        # But the reconfiguration is not free: slower than an exact hit.
        platform.submit("fn-b")
        platform.run()
        exact = platform.traces.latencies()[2]
        assert exact < partial

    def test_rekeyed_container_serves_new_key_exactly(self, registry):
        platform = make_platform(registry)
        platform.deploy(env_variant("fn-a", "alpha"))
        platform.deploy(env_variant("fn-b", "beta"))
        platform.submit("fn-a")
        platform.run()
        platform.submit("fn-b")
        platform.run()
        provider = platform.provider
        key_b = provider.key_of(env_variant("fn-b", "beta").container_config())
        assert provider.pool.num_available(key_b) == 1

    def test_different_images_never_partially_matched(self, registry):
        """RELAXED keys include the image: a Go container is never
        reconfigured into a Python one."""
        platform = make_platform(registry)
        platform.deploy(FunctionSpec(name="py", image="python:3.6", exec_ms=20))
        platform.deploy(
            FunctionSpec(name="go", image="golang:1.11", language="go", exec_ms=20)
        )
        platform.submit("py")
        platform.run()
        platform.submit("go")
        platform.run()
        assert platform.traces.cold_count() == 2
        assert platform.provider.pool.stats.relaxed_hits == 0

    def test_different_resources_not_matched_by_relaxed(self, registry):
        """RELAXED keeps resource limits: a bigger function misses."""
        platform = make_platform(registry)
        platform.deploy(env_variant("fn-a", "alpha"))
        platform.deploy(
            FunctionSpec(name="big", image="python:3.6", exec_ms=20, mem_mb=512)
        )
        platform.submit("fn-a")
        platform.run()
        platform.submit("big")
        platform.run()
        assert platform.traces.cold_count() == 2

    def test_exact_match_preferred_over_partial(self, registry):
        platform = make_platform(registry)
        platform.deploy(env_variant("fn-a", "alpha"))
        platform.deploy(env_variant("fn-b", "beta"))
        for name in ("fn-a", "fn-b"):
            platform.submit(name)
        platform.run()  # both cold (concurrent)
        platform.submit("fn-a", delay=1_000)
        platform.run()
        provider = platform.provider
        # The third request must take fn-a's own container, not rekey
        # fn-b's: no partial hit recorded.
        assert provider.pool.stats.relaxed_hits == 0

    def test_relaxed_index_pruned_when_key_retired(self, registry):
        """Regression: the relaxed index must not grow without bound —
        a full key whose last pooled container is retired is pruned."""
        from repro.core import runtime_key

        platform = make_platform(registry)
        platform.deploy(env_variant("fn-a", "alpha"))
        platform.submit("fn-a")
        platform.run()
        provider = platform.provider
        config_a = env_variant("fn-a", "alpha").container_config()
        key_a = provider.key_of(config_a)
        relaxed = runtime_key(config_a, KeyPolicy.RELAXED)
        assert key_a in provider._relaxed_index[relaxed]
        # Retire the only container of key_a (e.g. via shutdown drain).
        platform.shutdown()
        assert relaxed not in provider._relaxed_index
        # The next request of that type re-indexes transparently.
        platform2 = make_platform(registry)
        platform2.deploy(env_variant("fn-a", "alpha"))
        platform2.deploy(env_variant("fn-b", "beta"))
        platform2.submit("fn-a")
        platform2.run()
        platform2.submit("fn-b")
        platform2.run()
        assert platform2.provider.pool.stats.relaxed_hits == 1

    def test_disabled_fallback_misses(self, registry):
        platform = make_platform(registry, fallback=None)
        platform.deploy(env_variant("fn-a", "alpha"))
        platform.deploy(env_variant("fn-b", "beta"))
        platform.submit("fn-a")
        platform.run()
        platform.submit("fn-b")
        platform.run()
        assert platform.traces.cold_count() == 2
