"""Ablation — key granularity and the partial-key fallback.

The paper's default key uses every runtime parameter; its future work
proposes matching on a subset and applying the configuration delta.
With a workload of many env-var variants over one image:

* ``full``            — every variant cold-starts its own container;
* ``full+fallback``   — first variant cold, later variants reuse and
  reconfigure (partial hits);
* ``image-only``      — all variants share containers outright (the
  aggressive end of the spectrum).
"""


from repro.core.hotc import HotC, HotCConfig
from repro.core.keys import KeyPolicy
from repro.faas.platform import FaasPlatform
from repro.faas.function import FunctionSpec
from repro.workloads.apps import default_catalog

N_VARIANTS = 6


def run_policy(key_policy: KeyPolicy, fallback, seed: int = 0):
    config = HotCConfig(key_policy=key_policy, fallback_key_policy=fallback)
    catalog = default_catalog()
    platform = FaasPlatform(
        catalog.make_registry(),
        seed=seed,
        provider_factory=lambda engine: HotC(engine, config),
        jitter_sigma=0.0,
    )
    for index in range(N_VARIANTS):
        platform.deploy(
            FunctionSpec(
                name=f"fn-{index}",
                image="python:3.6",
                exec_ms=20,
                env=(("VARIANT", str(index)),),
            )
        )
    platform.sim.process(platform.engine.ensure_image("python:3.6"))
    platform.run()
    for index in range(N_VARIANTS):
        platform.submit(f"fn-{index}", delay=index * 2_000.0)
    platform.run()
    return platform


def run_all(seed: int = 0):
    return {
        "full": run_policy(KeyPolicy.FULL, None, seed),
        "full+fallback": run_policy(KeyPolicy.FULL, KeyPolicy.RELAXED, seed),
        "image-only": run_policy(KeyPolicy.IMAGE_ONLY, None, seed),
    }


def test_bench_ablation_keypolicy(benchmark):
    platforms = benchmark.pedantic(run_all, rounds=1, iterations=1)
    cold = {n: p.traces.cold_count() for n, p in platforms.items()}
    mean = {n: p.traces.mean_latency() for n, p in platforms.items()}
    print()
    for name, platform in platforms.items():
        partial = platform.provider.pool.stats.relaxed_hits
        print(
            f"  {name:<14} cold={cold[name]} partial={partial} "
            f"mean={mean[name]:.0f} ms"
        )

    # Full keys: every env variant is its own runtime type.
    assert cold["full"] == N_VARIANTS
    # The fallback turns all but the first into reconfigure-reuses.
    assert cold["full+fallback"] == 1
    fallback_stats = platforms["full+fallback"].provider.pool.stats
    assert fallback_stats.relaxed_hits == N_VARIANTS - 1
    # Image-only collapses everything with zero reconfiguration.
    assert cold["image-only"] == 1
    # Latency ordering: image-only <= fallback < full.
    assert mean["image-only"] <= mean["full+fallback"] + 5
    assert mean["full+fallback"] < 0.5 * mean["full"]
