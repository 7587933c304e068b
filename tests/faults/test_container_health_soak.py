"""Container-health soak: degradation storms under the recycle loop.

Marked ``chaos`` (opt in with ``--chaos`` / ``REPRO_CHAOS=1``): five
seeded runs drive a Poisson workload through HotC with the container
health plane enabled while every boot rolls the degradation lottery
(leaks, poison, decay, crash loops) on top of a regular fault storm.
Invariants asserted throughout:

* a condemned container never serves again — its exec count is frozen
  at the moment of the verdict,
* acquire never hands out a SUSPECT or QUARANTINED container,
* recycles obey the token bucket: every window of the recycle-time
  series stays under ``burst + rate * window``,
* pool bookkeeping stays consistent (``check_consistency`` sampled
  mid-run and at quiescence, including the quarantine set).
"""

import numpy as np
import pytest

from repro.core import HotC, HotCConfig, PoolLimits
from repro.faas import FaasPlatform
from repro.faults import FaultPlan
from repro.health import ContainerHealthConfig
from repro.health import container as health_module
from repro.sim.rng import derive_seed

SEEDS = [1, 2, 3, 4, 5]
DURATION_MS = 60_000.0
RECYCLE_RATE_PER_S = 2.0
RECYCLE_BURST = 3


@pytest.fixture(autouse=True)
def rss_limit(monkeypatch):
    """Condemn at 128 MB of leaked RSS (the plane's default is 256)."""
    monkeypatch.setattr(health_module, "RSS_LIMIT_MB", 128.0)


@pytest.fixture(autouse=True)
def recycle_pacing(monkeypatch):
    """Recycle after 45 s of age, paced at the soak's own token bucket."""
    monkeypatch.setattr(health_module, "MAX_AGE_MS", 45_000.0)
    monkeypatch.setattr(health_module, "RECYCLE_RATE_PER_S", RECYCLE_RATE_PER_S)
    monkeypatch.setattr(health_module, "RECYCLE_BURST", RECYCLE_BURST)


def hotc_config():
    return HotCConfig(
        control_interval_ms=1_000.0,
        limits=PoolLimits(max_containers=12),
        container_health=ContainerHealthConfig(
            max_reuses=10, leak_slope_mb=6.0
        ),
    )


def degradation_plan(seed, hosts=("host-0",)):
    return FaultPlan.random(
        seed=seed,
        duration_ms=DURATION_MS,
        hosts=hosts,
        memory_leak_rate=0.25,
        memory_leak_mb=16.0,
        state_poison_rate=0.02,
        perf_decay_rate=0.1,
        perf_decay_factor=1.08,
        crash_loop_rate=0.05,
        crash_loop_after=4,
    )


def submit_workload(platform, seed, functions, n_requests=250):
    rng = np.random.default_rng(derive_seed(seed, "health-workload"))
    t = 0.0
    for _ in range(n_requests):
        t += float(rng.exponential(DURATION_MS / n_requests))
        name = functions[int(rng.integers(len(functions)))]
        platform.submit(name, delay=t)
    return t


def wrap_acquire_with_health_check(provider):
    """Acquire must never hand out a tainted or condemned container."""
    original = provider.acquire

    def checked(config):
        container, cold = yield from original(config)
        assert container.is_reusable, (
            f"dead container handed out: {container.container_id}"
        )
        assert not container.tainted, (
            f"SUSPECT container handed out: {container.container_id}"
        )
        assert not container.condemned, (
            f"QUARANTINED container handed out: {container.container_id}"
        )
        return container, cold

    provider.acquire = checked


def instrument_plane(provider):
    """Record condemnation freezes and recycle timestamps."""
    plane = provider.container_health
    condemned_at = {}
    recycle_times = []

    original_condemn = plane.condemn

    def condemn(container, record, now, reason):
        condemned_at.setdefault(
            container.container_id, (container, container.exec_count)
        )
        original_condemn(container, record, now, reason)

    plane.condemn = condemn

    original_recycling = plane.note_recycling

    def note_recycling(container, now, reason):
        recycle_times.append(now)
        original_recycling(container, now, reason)

    plane.note_recycling = note_recycling
    return condemned_at, recycle_times


def assert_condemned_never_served_again(condemned_at):
    for cid, (container, frozen) in condemned_at.items():
        assert container.exec_count == frozen, (
            f"{cid}: served {container.exec_count - frozen} request(s) "
            "after being condemned"
        )


def assert_token_bucket_respected(recycle_times):
    """Every window of the series stays under burst + rate * window."""
    for i, start in enumerate(recycle_times):
        for j in range(i, len(recycle_times)):
            window_ms = recycle_times[j] - start
            count = j - i + 1
            budget = RECYCLE_BURST + RECYCLE_RATE_PER_S * window_ms / 1000.0
            assert count <= budget + 1e-9, (
                f"{count} recycles in {window_ms:.0f} ms exceeds the "
                f"token bucket budget {budget:.2f}"
            )


def spawn_invariant_monitor(platform, provider, interval_ms=500.0):
    def monitor():
        while True:
            yield platform.sim.timeout(interval_ms)
            provider.check_consistency()
            cap = provider.config.limits.max_containers
            live = provider.pool.total_live
            pending = provider._pending_total()
            assert live + pending <= cap, (
                f"{live} live + {pending} pending exceeds cap {cap} "
                f"at t={platform.sim.now}"
            )

    platform.sim.process(monitor(), name="invariant-monitor")


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
class TestContainerHealthSoak:
    def test_soak(self, registry, fn_python, fn_go, seed, chaos_report):
        platform = FaasPlatform(
            registry,
            seed=seed,
            provider_factory=lambda e: HotC(e, hotc_config()),
        )
        for fn in (fn_python, fn_go):
            platform.deploy(fn.with_overrides(exec_ms=80.0))
        provider = platform.provider
        wrap_acquire_with_health_check(provider)
        condemned_at, recycle_times = instrument_plane(provider)
        spawn_invariant_monitor(platform, provider)

        plan = degradation_plan(seed)
        plan.install(platform.sim, [platform.engine])
        provider.start_control_loop()

        last = submit_workload(platform, seed, [fn_python.name, fn_go.name])
        platform.run(until=last + 30_000.0)
        provider.stop_control_loop()
        platform.run(until=platform.sim.now + 120_000.0)

        # Token-bucket accounting only holds before the shutdown flush
        # (shutdown drains the queue unconditionally by design).
        pre_shutdown_recycles = list(recycle_times)
        platform.sim.process(provider.shutdown())
        platform.run(until=platform.sim.now + 60_000.0)

        assert len(platform.traces) == 250
        assert platform.traces.all_terminal()
        provider.check_consistency()
        assert all(s.busy == 0 for s in provider._keys.values())
        assert provider.container_health.queue == []
        assert platform.engine.live_count == 0

        # The storm actually exercised the degradation kinds...
        stats = plan.stats
        assert (
            stats.memory_leaks
            + stats.state_poisons
            + stats.perf_decays
            + stats.crash_loops
            > 0
        ), "the lottery afflicted nothing"
        # ...and the plane answered.
        plane = provider.container_health
        assert plane.quarantines > 0
        assert plane.recycles > 0

        assert_condemned_never_served_again(condemned_at)
        assert_token_bucket_respected(pre_shutdown_recycles)

        chaos_report(
            seed=seed,
            plan=plan,
            platform=platform,
            suspects=plane.suspects,
            quarantines=plane.quarantines,
            recycles=plane.recycles,
            recycled=provider.pool.stats.recycled,
            condemned=len(condemned_at),
        )

    def test_soak_reproducible(self, registry, fn_python, fn_go, seed):
        """Same seed, same storm, same verdicts — bit-for-bit."""

        def run_once():
            platform = FaasPlatform(
                registry,
                seed=seed,
                provider_factory=lambda e: HotC(e, hotc_config()),
            )
            for fn in (fn_python, fn_go):
                platform.deploy(fn.with_overrides(exec_ms=80.0))
            plan = degradation_plan(seed)
            plan.install(platform.sim, [platform.engine])
            provider = platform.provider
            provider.start_control_loop()
            last = submit_workload(
                platform, seed, [fn_python.name, fn_go.name]
            )
            platform.run(until=last + 30_000.0)
            provider.stop_control_loop()
            platform.run(until=platform.sim.now + 120_000.0)
            platform.sim.process(provider.shutdown())
            platform.run(until=platform.sim.now + 60_000.0)
            plane = provider.container_health
            return (
                plan.stats.as_dict(),
                platform.traces.outcome_counts(),
                plane.suspects,
                plane.quarantines,
                plane.recycles,
                provider.pool.stats.recycled,
            )

        assert run_once() == run_once()
