"""Shared harness for the request-pattern experiments (Figs 12-14).

All three figures drive the QR web service (the Fig 9 setup — "the
experiment setting and configuration are the same as above") through a
pattern, once with the default cold-boot provider and once with HotC.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.hotc import HotC, HotCConfig
from repro.faas.platform import FaasPlatform
from repro.workloads.apps import default_catalog, qr_encoder_app
from repro.workloads.generator import WorkloadGenerator, WorkloadResult
from repro.workloads.patterns import RequestPattern

__all__ = ["run_pattern_arm"]

#: Drain budget applied when neither the function specs nor an attached
#: admission controller declare a per-request deadline.  Conservative:
#: covers retries and fault-induced stalls for every bundled pattern.
_FALLBACK_DRAIN_MS = 120_000.0


def _drain_budget_ms(platform: FaasPlatform) -> float:
    """Outstanding-request deadline budget for the adaptive-run bound.

    The bound must outlive every request that can still be in flight at
    the last round: requests with explicit deadlines (spec-level, or
    the admission default) terminate within that deadline, so the
    budget is the largest declared deadline.  With no deadlines
    anywhere the budget falls back to :data:`_FALLBACK_DRAIN_MS`.
    """
    deadlines = [
        platform.function(name).deadline_ms
        for name in platform.functions
        if platform.function(name).deadline_ms is not None
    ]
    admission = platform.sim.admission
    if admission is not None:
        default = admission.config.default_deadline_ms
        if default is not None:
            deadlines.append(default)
    return max(deadlines) if deadlines else _FALLBACK_DRAIN_MS


def run_pattern_arm(
    pattern: RequestPattern,
    use_hotc: bool,
    seed: int = 0,
    n_functions: int = 1,
    adaptive: bool = False,
    control_interval_ms: float = 5_000.0,
    gateway_concurrency: int = 1024,
) -> Tuple[WorkloadResult, FaasPlatform]:
    """Run ``pattern`` against the QR service; returns (result, platform).

    ``n_functions`` deploys that many identically-shaped functions with
    distinct runtime configurations (distinct env), modelling the
    parallel experiment's "each thread has its own runtime
    configuration".  ``adaptive`` additionally starts HotC's prediction
    control loop (used by the burst experiment).
    """
    if n_functions < 1:
        raise ValueError("n_functions must be >= 1")
    catalog = default_catalog()

    def provider_factory(engine):
        config = HotCConfig(
            control_interval_ms=control_interval_ms if adaptive else 0.0
        )
        return HotC(engine, config)

    platform = FaasPlatform(
        catalog.make_registry(),
        seed=seed,
        provider_factory=provider_factory if use_hotc else None,
        jitter_sigma=0.05,
        gateway_concurrency=gateway_concurrency,
    )
    names = []
    for index in range(n_functions):
        spec = qr_encoder_app(name=f"qr-{index}", language="python").with_overrides(
            env=(("THREAD", str(index)),)
        )
        platform.deploy(spec)
        names.append(spec.name)
    platform.sim.process(platform.engine.ensure_image("python:3.6"))
    platform.run()

    if use_hotc and adaptive:
        platform.provider.start_control_loop()
        # The control loop re-arms its own timer forever, so an
        # unbounded run would never drain: bound the first run past the
        # pattern's last round plus the outstanding-request deadline
        # budget, keep the loop alive that long, then stop it and drain
        # unbounded.  Results are collected only after the final drain,
        # so a slow arm (faults, jitter) is never truncated by the
        # bound — a late request merely outlives the control loop.
        generator = WorkloadGenerator(platform)
        scheduled = generator.submit(pattern, names)
        last_round = max(time for time, _ in pattern.rounds())
        run_until = (
            platform.sim.now
            + last_round
            + 4 * control_interval_ms
            + _drain_budget_ms(platform)
        )
        platform.run(until=run_until)
        platform.provider.stop_control_loop()
        platform.run()
        result = generator.collect(scheduled)
        pending = sum(
            1 for _, _, procs in scheduled for p in procs if not p.triggered
        )
        if pending or not platform.traces.all_terminal():
            raise AssertionError(
                f"pattern arm stopped with {pending} request processes "
                "unfinished and non-terminal traces in flight; the drain "
                "bound failed to cover the workload"
            )
    else:
        result = WorkloadGenerator(platform).run(pattern, names)
    return result, platform
