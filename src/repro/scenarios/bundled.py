"""Bundled scenario specs: the figure workloads and trace-driven days.

Two families:

* ``fig12-*`` … ``fig14-*`` re-express the request-pattern figures as
  scenarios.  Their arms delegate to the same harness call the figure
  modules make, so running them reproduces the figures' numbers
  bit-for-bit (the parity test in ``tests/scenarios`` asserts this).
* ``day-smoke`` / ``day-1m`` are production-trace days: Zipf key
  popularity, a diurnal cycle, flash crowds, and tenant churn over a
  multi-host cluster.  ``day-1m`` is the planet-scale gate — an
  expected one million requests over 1 000 runtime keys and 3 hosts,
  finishing in well under a minute of wall clock.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.scenarios.spec import (
    ArmSpec,
    ClusterSpec,
    FaultsSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.workloads.patterns import (
    BurstPattern,
    ExponentialPattern,
    LinearPattern,
    ParallelPattern,
    SerialPattern,
)
from repro.workloads.tracegen import TraceConfig

__all__ = ["BUNDLED_SCENARIOS", "bundled_names", "bundled_spec"]

_DEFAULT_ROUND_MS = 30_000.0


def _pattern_arms(adaptive: bool = False, round_ms: float = _DEFAULT_ROUND_MS,
                  n_functions: int = 1) -> Tuple[ArmSpec, ...]:
    return (
        ArmSpec(name="default", use_hotc=False, n_functions=n_functions),
        ArmSpec(
            name="hotc",
            use_hotc=True,
            adaptive=adaptive,
            control_interval_ms=round_ms if adaptive else 5_000.0,
            n_functions=n_functions,
        ),
    )


def fig12_serial(seed: int = 0, n_rounds: int = 20,
                 round_ms: float = _DEFAULT_ROUND_MS) -> ScenarioSpec:
    """Fig 12a as a scenario: one request per round, default vs HotC."""
    return ScenarioSpec(
        name="fig12-serial",
        seed=seed,
        description="Fig 12a serial requests (1 per round)",
        traffic=TrafficSpec(
            kind="pattern",
            pattern=SerialPattern(n_rounds=n_rounds, round_ms=round_ms),
        ),
        arms=_pattern_arms(),
    )


def fig12_parallel(seed: int = 0, n_rounds: int = 20, n_threads: int = 10,
                   round_ms: float = _DEFAULT_ROUND_MS) -> ScenarioSpec:
    """Fig 12b as a scenario: ten per-thread runtime configurations."""
    return ScenarioSpec(
        name="fig12-parallel",
        seed=seed,
        description="Fig 12b parallel requests (10 thread configs)",
        traffic=TrafficSpec(
            kind="pattern",
            pattern=ParallelPattern(
                n_threads=n_threads, n_rounds=n_rounds, round_ms=round_ms
            ),
        ),
        arms=_pattern_arms(n_functions=n_threads),
    )


def fig13_increasing(seed: int = 0, n_rounds: int = 10,
                     round_ms: float = _DEFAULT_ROUND_MS) -> ScenarioSpec:
    """Fig 13 increasing flow as a scenario (+2 requests per round)."""
    return ScenarioSpec(
        name="fig13-increasing",
        seed=seed,
        description="Fig 13 linear increasing flow (+2/round)",
        traffic=TrafficSpec(
            kind="pattern",
            pattern=LinearPattern(
                start=2, step=2, n_rounds=n_rounds, round_ms=round_ms
            ),
        ),
        arms=_pattern_arms(),
    )


def fig13_decreasing(seed: int = 0, n_rounds: int = 10, start: int = 20,
                     round_ms: float = _DEFAULT_ROUND_MS) -> ScenarioSpec:
    """Fig 13 decreasing flow as a scenario (−2 requests per round)."""
    return ScenarioSpec(
        name="fig13-decreasing",
        seed=seed,
        description="Fig 13 linear decreasing flow (-2/round)",
        traffic=TrafficSpec(
            kind="pattern",
            pattern=LinearPattern(
                start=start, step=-2, n_rounds=n_rounds, round_ms=round_ms
            ),
        ),
        arms=_pattern_arms(),
    )


def fig14_exponential(seed: int = 0, n_rounds: int = 6, decreasing: bool = False,
                      round_ms: float = _DEFAULT_ROUND_MS) -> ScenarioSpec:
    """Fig 14a as a scenario: 2^i requests at round i (or mirrored)."""
    direction = "decreasing" if decreasing else "increasing"
    return ScenarioSpec(
        name=f"fig14-exponential-{direction}",
        seed=seed,
        description=f"Fig 14a exponential {direction} flow",
        traffic=TrafficSpec(
            kind="pattern",
            pattern=ExponentialPattern(
                n_rounds=n_rounds, round_ms=round_ms, decreasing=decreasing
            ),
        ),
        arms=_pattern_arms(),
    )


def fig14_burst(seed: int = 0, n_rounds: int = 20,
                round_ms: float = _DEFAULT_ROUND_MS) -> ScenarioSpec:
    """Fig 14b as a scenario: 10x bursts with the adaptive control loop."""
    return ScenarioSpec(
        name="fig14-burst",
        seed=seed,
        description="Fig 14b request bursts (adaptive HotC arm)",
        traffic=TrafficSpec(
            kind="pattern",
            pattern=BurstPattern(
                n_rounds=n_rounds,
                round_ms=round_ms,
                burst_rounds=tuple(r for r in (4, 8, 12, 16) if r < n_rounds),
            ),
        ),
        arms=_pattern_arms(adaptive=True, round_ms=round_ms),
    )


def day_smoke(seed: int = 0) -> ScenarioSpec:
    """A two-hour, ~20k-request trace day that finishes in seconds.

    Small enough for the CI smoke step, but exercises every trace-mode
    axis: Zipf keys, diurnal shape, one flash crowd, churn, 2 hosts.
    """
    return ScenarioSpec(
        name="day-smoke",
        seed=seed,
        description="2-hour smoke trace: 60 keys, ~20k requests, 2 hosts",
        traffic=TrafficSpec(
            kind="trace",
            trace=TraceConfig(
                n_keys=60,
                n_tenants=6,
                duration_ms=7_200_000.0,
                slot_ms=60_000.0,
                total_requests=20_000.0,
                zipf_s=1.1,
                diurnal_amplitude=0.4,
                diurnal_period_ms=7_200_000.0,
                flash_crowds=1,
                flash_factor=6.0,
                flash_duration_ms=300_000.0,
                flash_keys=3,
                churn_fraction=0.15,
                churn_interval_ms=1_800_000.0,
            ),
        ),
        cluster=ClusterSpec(n_hosts=2),
        arms=(
            ArmSpec(name="hotc", use_hotc=True, adaptive=True,
                    control_interval_ms=60_000.0),
        ),
    )


def leaky_day(seed: int = 0) -> ScenarioSpec:
    """A degradation day: leaky, poisonous containers, with and without
    the self-healing recycle loop.

    One hour of Zipf-headed traffic over 2 hosts while every boot rolls
    the container-degradation lottery: 20 % of containers leak RSS each
    exec, 1 % of execs leave poisoned state behind, 5 % of containers
    slow down per reuse, and 2 % crash-loop after a few execs.  The
    ``hotc`` arm reuses at depth with no defenses; the ``hotc-health``
    arm runs the container health plane (quarantine + token-bucket
    recycling + paired prewarm).  Comparing the two arms' p99/failed
    columns is the point of the scenario.
    """
    return ScenarioSpec(
        name="leaky-day",
        seed=seed,
        description="1-hour degradation trace: leaks+poison, health on/off",
        traffic=TrafficSpec(
            kind="trace",
            trace=TraceConfig(
                n_keys=40,
                n_tenants=4,
                duration_ms=3_600_000.0,
                slot_ms=60_000.0,
                total_requests=12_000.0,
                zipf_s=1.1,
                diurnal_amplitude=0.3,
                diurnal_period_ms=3_600_000.0,
            ),
        ),
        cluster=ClusterSpec(n_hosts=2),
        faults=FaultsSpec(
            memory_leak_rate=0.2,
            memory_leak_mb=24.0,
            state_poison_rate=0.01,
            perf_decay_rate=0.05,
            perf_decay_factor=1.03,
            crash_loop_rate=0.02,
            crash_loop_after=8,
        ),
        arms=(
            ArmSpec(name="hotc", use_hotc=True, adaptive=True,
                    control_interval_ms=60_000.0),
            ArmSpec(name="hotc-health", use_hotc=True, adaptive=True,
                    control_interval_ms=60_000.0, container_health=True),
        ),
    )


def day_1m(seed: int = 0) -> ScenarioSpec:
    """The planet-scale gate: an expected 1M-request simulated day.

    1 000 runtime keys with a Zipf(1.1) head, a ±45 % diurnal cycle,
    two 8× flash crowds, hourly tenant churn, 20 tenants over 3 hosts.
    The adaptive control loop stays off in this arm, so its report and
    gate are the steady-state baseline (``day-smoke`` covers the
    adaptive path, whose tick is one batched predictor step per host
    plus a per-key resize, DESIGN.md §5c) — the arm exercises
    steady-state pool reuse, placement, and repurposing.  Must complete
    in < 60 s wall (``benchmarks/bench_scenario_day.py --check``).
    """
    return ScenarioSpec(
        name="day-1m",
        seed=seed,
        description="1M-request day: 1000 keys, Zipf head, 3 hosts",
        traffic=TrafficSpec(
            kind="trace",
            trace=TraceConfig(
                n_keys=1_000,
                n_tenants=20,
                duration_ms=86_400_000.0,
                slot_ms=60_000.0,
                total_requests=1_000_000.0,
                zipf_s=1.1,
                diurnal_amplitude=0.45,
                diurnal_period_ms=86_400_000.0,
                flash_crowds=2,
                flash_factor=8.0,
                flash_duration_ms=600_000.0,
                flash_keys=5,
                churn_fraction=0.1,
                churn_interval_ms=3_600_000.0,
            ),
        ),
        cluster=ClusterSpec(n_hosts=3),
        arms=(ArmSpec(name="hotc", use_hotc=True, adaptive=False),),
    )


#: Name → builder for every bundled scenario (CLI ``scenarios list``).
BUNDLED_SCENARIOS: Dict[str, Callable[..., ScenarioSpec]] = {
    "fig12-serial": fig12_serial,
    "fig12-parallel": fig12_parallel,
    "fig13-increasing": fig13_increasing,
    "fig13-decreasing": fig13_decreasing,
    "fig14-exponential-increasing": fig14_exponential,
    "fig14-exponential-decreasing": lambda seed=0: fig14_exponential(
        seed=seed, decreasing=True
    ),
    "fig14-burst": fig14_burst,
    "day-smoke": day_smoke,
    "leaky-day": leaky_day,
    "day-1m": day_1m,
}


def bundled_names() -> Tuple[str, ...]:
    """Names of every bundled scenario, sorted."""
    return tuple(sorted(BUNDLED_SCENARIOS))


def bundled_spec(name: str, seed: int = 0) -> ScenarioSpec:
    """Build the bundled scenario ``name`` at ``seed``."""
    try:
        builder = BUNDLED_SCENARIOS[name]
    except KeyError:
        known = ", ".join(bundled_names())
        raise KeyError(f"no bundled scenario {name!r}; known: {known}") from None
    return builder(seed=seed)
