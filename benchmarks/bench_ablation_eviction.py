"""Ablation — pool eviction strategies under a tight container cap.

The paper evicts the *oldest* live container.  With a skewed workload
(one hot runtime type, several cold ones) and a pool cap forcing
evictions, LRU should protect the hot type best, oldest-first is the
paper's simple default, and largest-first optimises memory rather than
hit ratio.  The strategy is HotC's ``EVICTION`` constant, patched for
each arm.
"""

from unittest import mock

from repro.core import hotc
from repro.core.hotc import HotC, HotCConfig
from repro.core.pool import PoolLimits
from repro.faas.platform import FaasPlatform
from repro.faas.function import FunctionSpec
from repro.workloads.apps import default_catalog


def run_strategy(eviction: str, seed: int = 0):
    config = HotCConfig(limits=PoolLimits(max_containers=3))
    catalog = default_catalog()
    with mock.patch.object(hotc, "EVICTION", eviction):
        platform = FaasPlatform(
            catalog.make_registry(),
            seed=seed,
            provider_factory=lambda engine: HotC(engine, config),
            jitter_sigma=0.0,
        )
    hot = FunctionSpec(name="hot", image="python:3.6", exec_ms=10)
    platform.deploy(hot)
    for index in range(4):
        platform.deploy(
            FunctionSpec(
                name=f"cold-{index}",
                image="python:3.6",
                exec_ms=10,
                env=(("VARIANT", str(index)),),
            )
        )
    platform.sim.process(platform.engine.ensure_image("python:3.6"))
    platform.run()

    # Skewed stream: the hot function between every cold one.
    delay = 0.0
    for cycle in range(12):
        platform.submit("hot", delay=delay)
        delay += 2_000.0
        platform.submit(f"cold-{cycle % 4}", delay=delay)
        delay += 2_000.0
    platform.run()
    return platform


def run_all(seed: int = 0):
    return {
        strategy: run_strategy(strategy, seed)
        for strategy in ("oldest", "lru", "largest")
    }


def test_bench_ablation_eviction(benchmark):
    platforms = benchmark.pedantic(run_all, rounds=1, iterations=1)
    stats = {
        name: platform.provider.pool.stats for name, platform in platforms.items()
    }
    print()
    for name, stat in stats.items():
        print(
            f"  {name:<8} hits={stat.hits:>3} misses={stat.misses:>3} "
            f"hit-ratio={stat.hit_ratio:.2f} evictions={stat.evictions_capacity}"
        )

    # Every strategy respects the cap and evicts.
    for name, platform in platforms.items():
        assert platform.provider.pool.total_live <= 3
        assert stats[name].evictions_capacity > 0
    # LRU keeps the hot runtime warm at least as well as the others.
    assert stats["lru"].hit_ratio >= stats["oldest"].hit_ratio
    assert stats["lru"].hit_ratio >= stats["largest"].hit_ratio
