"""Ablation — predictor variants driving the adaptive pool.

Compares three HotC configurations on the Fig 14b burst workload:

* ``reuse-only``   — no prediction loop at all (pure Algorithm 1),
* ``es-only``      — exponential smoothing without the Markov correction,
* ``es+markov``    — the paper's combined predictor.

The combined predictor should cut the later-burst cold starts that the
other two configurations cannot anticipate.
"""


from repro.core.hotc import HotC, HotCConfig
from repro.faas.platform import FaasPlatform
from repro.workloads.apps import default_catalog, qr_encoder_app
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.patterns import BurstPattern

ROUND_MS = 30_000.0


def run_variant(markov: bool, prewarm: bool, seed: int = 0):
    # The reuse-only arm runs no control loop, so nothing pre-boots.
    config = HotCConfig(
        control_interval_ms=ROUND_MS if prewarm else 0.0,
        markov_correction=markov,
    )
    catalog = default_catalog()
    platform = FaasPlatform(
        catalog.make_registry(),
        seed=seed,
        provider_factory=lambda engine: HotC(engine, config),
        jitter_sigma=0.05,
    )
    spec = qr_encoder_app(name="qr", language="python")
    platform.deploy(spec)
    platform.sim.process(platform.engine.ensure_image(spec.image))
    platform.run()
    pattern = BurstPattern(n_rounds=16, round_ms=ROUND_MS, burst_rounds=(4, 8, 12))
    run_until = None
    if prewarm:
        platform.provider.start_control_loop()
        run_until = platform.sim.now + 16 * ROUND_MS + 240_000.0
    result = WorkloadGenerator(platform).run(pattern, "qr", run_until=run_until)
    if prewarm:
        platform.provider.stop_control_loop()
        platform.run()
    return result, platform.provider.pool.total_live


def run_all_variants(seed: int = 0):
    return {
        "reuse-only": run_variant(markov=False, prewarm=False, seed=seed),
        "es-only": run_variant(markov=False, prewarm=True, seed=seed),
        "es+markov": run_variant(markov=True, prewarm=True, seed=seed),
    }


def test_bench_ablation_predictor(benchmark):
    results = benchmark.pedantic(run_all_variants, rounds=1, iterations=1)
    cold = {name: result[0].total_cold() for name, result in results.items()}
    final_pool = {name: result[1] for name, result in results.items()}
    later_burst_latency = {
        name: float(result[0].mean_latency_per_round()[[8, 12]].mean())
        for name, result in results.items()
    }
    print()
    for name in results:
        print(
            f"  {name:<11} cold={cold[name]:>3}  "
            f"later-burst latency={later_burst_latency[name]:.0f} ms  "
            f"final pool={final_pool[name]}"
        )

    # ES alone scales the pool down between bursts and pays nearly full
    # cold starts at every burst; the Markov correction keeps the pool
    # provisioned (the Fig 14b mechanism).
    assert cold["es+markov"] < 0.6 * cold["es-only"]
    assert later_burst_latency["es+markov"] < 0.6 * later_burst_latency["es-only"]
    # Reuse-only never reclaims anything, so it trivially wins cold
    # starts — but the predictor gets close while shrinking the pool.
    assert cold["es+markov"] <= 1.5 * cold["reuse-only"]
    assert final_pool["es+markov"] < final_pool["reuse-only"]
