"""FaultPlan: seeded reproducibility and scheduled-fault execution."""

import pytest

from repro.core import HotC, HotCConfig
from repro.faas import FaasPlatform
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    ScheduledFault,
)


class TestSpecValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultSpec(boot_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(exec_crash_rate=-0.1)

    def test_zero_spec_is_zero(self):
        assert FaultSpec().is_zero
        assert not FaultSpec(boot_failure_rate=0.1).is_zero

    def test_scheduled_kind_restricted(self):
        with pytest.raises(ValueError):
            ScheduledFault(at_ms=0.0, kind=FaultKind.BOOT_FAILURE)
        with pytest.raises(ValueError):
            ScheduledFault(at_ms=0.0, kind=FaultKind.HOST_OUTAGE)  # no duration


class TestReproducibility:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.random(seed=42, duration_ms=60_000, hosts=("h0", "h1"))
        b = FaultPlan.random(seed=42, duration_ms=60_000, hosts=("h0", "h1"))
        assert a.scheduled == b.scheduled

    def test_different_seed_different_schedule(self):
        a = FaultPlan.random(seed=1, duration_ms=60_000)
        b = FaultPlan.random(seed=2, duration_ms=60_000)
        assert a.scheduled != b.scheduled

    def test_schedule_sorted_by_time(self):
        plan = FaultPlan.random(seed=3, duration_ms=60_000, pool_deaths=5)
        times = [f.at_ms for f in plan.scheduled]
        assert times == sorted(times)

    def test_injector_draws_reproducible(self, registry, fn_python):
        def run_once():
            platform = FaasPlatform(
                registry, seed=5, jitter_sigma=0.0, provider_factory=HotC
            )
            platform.deploy(fn_python)
            plan = FaultPlan(
                seed=9, spec=FaultSpec(boot_failure_rate=0.5)
            )
            plan.install(platform.sim, [platform.engine])
            for i in range(20):
                platform.submit(fn_python.name, delay=i * 500.0)
            platform.run(until=60_000)
            return (
                plan.stats.as_dict(),
                platform.traces.outcome_counts(),
                platform.engine.stats.boots,
            )

        assert run_once() == run_once()


class TestZeroPlanIdentity:
    def test_zero_plan_changes_nothing(self, registry, fn_python):
        """An installed all-zero plan must be invisible: bit-identical
        traces and zero RNG draws compared to no injector at all."""

        def run(with_plan):
            platform = FaasPlatform(
                registry, seed=11, provider_factory=HotC
            )
            platform.deploy(fn_python)
            if with_plan:
                plan = FaultPlan.none()
                plan.install(platform.sim, [platform.engine])
            for i in range(10):
                platform.submit(fn_python.name, delay=i * 300.0)
            platform.run(until=30_000)
            return [
                (t.total_latency, t.cold_start, t.container_id)
                for t in platform.traces
            ]

        assert run(True) == run(False)


class TestScheduledFaults:
    def _platform(self, registry, fn_python):
        platform = FaasPlatform(
            registry,
            seed=0,
            jitter_sigma=0.0,
            provider_factory=lambda e: HotC(
                e, HotCConfig(control_interval_ms=0)
            ),
        )
        platform.deploy(fn_python)
        return platform

    def test_pool_death_kills_idle_container(self, registry, fn_python):
        platform = self._platform(registry, fn_python)
        platform.submit(fn_python.name)
        platform.run()
        assert platform.engine.live_count == 1
        plan = FaultPlan(
            seed=0,
            scheduled=(
                ScheduledFault(
                    at_ms=platform.sim.now + 100.0,
                    kind=FaultKind.POOL_DEATH,
                    host="host-0",
                ),
            ),
        )
        plan.install(platform.sim, [platform.engine])
        platform.run()
        assert platform.engine.live_count == 0
        assert plan.stats.pool_deaths == 1

    def test_outage_window_fails_boots_then_recovers(self, registry, fn_python):
        platform = self._platform(registry, fn_python)
        plan = FaultPlan(
            seed=0,
            scheduled=(
                ScheduledFault(
                    at_ms=1_000.0,
                    kind=FaultKind.HOST_OUTAGE,
                    host="host-0",
                    duration_ms=5_000.0,
                ),
            ),
        )
        injectors = plan.install(platform.sim, [platform.engine])
        platform.run(until=2_000.0)
        assert injectors["host-0"].host_is_down()
        assert platform.engine.is_down
        platform.run(until=7_000.0)
        assert not injectors["host-0"].host_is_down()
        # The host serves requests again after the outage.
        platform.submit(fn_python.name)
        platform.run(until=60_000.0)
        assert platform.traces.failed_count() == 0
        assert len(platform.traces) == 1

    def _crash_plan(self):
        return FaultPlan(
            seed=0,
            scheduled=(
                ScheduledFault(
                    at_ms=1_000.0,
                    kind=FaultKind.CONTROLLER_CRASH,
                    duration_ms=500.0,
                ),
            ),
        )

    def test_controller_crash_needs_a_recovery_manager(self, registry, fn_python):
        platform = self._platform(registry, fn_python)
        with pytest.raises(ValueError, match="CONTROLLER_CRASH"):
            self._crash_plan().install(platform.sim, [platform.engine])

    def test_controller_crash_uses_the_attached_manager(self, registry, fn_python):
        from repro.recovery import RecoveryManager

        platform = self._platform(registry, fn_python)
        manager = RecoveryManager(platform.provider)
        plan = self._crash_plan()
        plan.install(platform.sim, [platform.engine])
        platform.run(until=1_200.0)
        assert manager.crashed
        platform.run(until=2_000.0)
        assert not manager.crashed
        assert manager.stats.crashes == manager.stats.recoveries == 1
        assert plan.stats.controller_crashes == 1
