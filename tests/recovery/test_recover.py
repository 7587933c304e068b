"""Crash/recover units: reconciliation against engine ground truth."""

import pytest

from repro.admission import AdmissionConfig, AdmissionController
from repro.core import HotC, HotCConfig, make_cluster_platform
from repro.faas import FaasPlatform
from repro.faults import RuntimeUnavailableError
from repro.recovery import RecoveryManager, RepairKind
from repro.recovery import manager as recovery_manager
from repro.obs import Observatory
from tests.cluster_checks import assert_no_requests_held


def make_platform(registry, config=None, **kwargs):
    return FaasPlatform(
        registry,
        seed=0,
        jitter_sigma=0.0,
        provider_factory=lambda engine: HotC(engine, config),
        **kwargs,
    )


def kinds_of(repairs):
    return [repair.kind for repair in repairs]


class TestCrash:
    def test_crash_fails_acquires_fast(self, registry, fn_python):
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        platform.deploy(fn_python)
        assert manager.crash() is True
        assert manager.crash() is False  # already down
        with pytest.raises(RuntimeUnavailableError):
            platform.provider.acquire(fn_python.container_config()).send(None)

    def test_crash_wipes_learned_state_but_not_containers(
        self, registry, fn_python
    ):
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        host = platform.provider
        assert host.pool.total_live == 1
        manager.crash()
        assert host.pool.total_live == 0  # metadata gone...
        assert len(platform.engine.live_containers()) == 1  # ...container lives

    def test_recover_without_crash_is_a_noop(self, registry, fn_python):
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        assert manager.recover() == []
        assert manager.stats.recoveries == 0


class TestRecover:
    def test_idle_container_rejoins_the_pool(self, registry, fn_python):
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        manager.checkpoint()
        manager.crash()
        repairs = manager.recover()
        assert kinds_of(repairs) == [RepairKind.ADOPTED_IDLE]
        assert repairs[0].detail == "checkpointed"
        assert manager.unrepaired == []
        assert platform.provider.pool.total_live == 1
        # The adopted container serves a warm hit.
        platform.submit(fn_python.name)
        platform.run()
        assert list(platform.traces.cold_flags()) == [True, False]

    def test_post_checkpoint_container_still_adopted(self, registry, fn_python):
        """The engine is ground truth: containers born after the last
        checkpoint are adopted anyway, just labelled differently."""
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        platform.deploy(fn_python)
        manager.checkpoint()  # empty checkpoint, then traffic
        platform.submit(fn_python.name)
        platform.run()
        manager.crash()
        repairs = manager.recover()
        assert kinds_of(repairs) == [RepairKind.ADOPTED_IDLE]
        assert repairs[0].detail == "post-checkpoint"

    def test_busy_container_readopted_and_request_survives(
        self, registry, fn_python
    ):
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        slow = fn_python.with_overrides(exec_ms=30_000.0)
        platform.deploy(slow)
        platform.submit(slow.name)
        platform.run(until=15_000.0)  # boot done, deep in the exec
        live = platform.engine.live_containers()
        assert len(live) == 1 and live[0].leased
        manager.crash()
        repairs = manager.recover()
        assert kinds_of(repairs) == [RepairKind.ADOPTED_BUSY]
        platform.run()
        trace = platform.traces.traces[0]
        assert trace.outcome.value == "success"
        platform.provider.check_consistency()
        pool = platform.provider.pool
        assert all(entry.available for entry in pool.entries())

    def test_phantom_checkpoint_entry_is_purged(self, registry, fn_python):
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        manager.checkpoint()
        # The container dies behind the control plane's back.
        victim = platform.engine.live_containers()[0]
        platform.engine.kill_container(victim)
        manager.crash()
        repairs = manager.recover()
        assert kinds_of(repairs) == [RepairKind.PURGED_PHANTOM]
        assert repairs[0].container_id == victim.container_id
        assert platform.provider.pool.total_live == 0
        assert manager.unrepaired == []

    def test_recover_without_any_checkpoint(self, registry, fn_python):
        """Recovery degrades gracefully to a pure ground-truth rebuild."""
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        manager.crash()
        assert manager.store.latest() is None
        repairs = manager.recover()
        assert kinds_of(repairs) == [RepairKind.ADOPTED_IDLE]
        platform.submit(fn_python.name)
        platform.run()
        assert list(platform.traces.cold_flags()) == [True, False]

    def test_checkpoints_are_isolated_from_later_mutation(
        self, registry, fn_python
    ):
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        checkpoint = manager.checkpoint()
        host = platform.provider
        assert checkpoint.hosts[0].controller is not host.controller
        for breaker in checkpoint.hosts[0].breakers.values():
            assert all(s.breaker is not breaker for s in host._keys.values())


class TestTickCadence:
    def test_audit_every_tick_checkpoint_on_cadence(
        self, registry, fn_python, monkeypatch
    ):
        monkeypatch.setattr(recovery_manager, "CHECKPOINT_EVERY_TICKS", 3)
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        for tick in range(1, 7):
            manager.on_control_tick(float(tick))
        assert manager.stats.audits == 6
        assert manager.stats.checkpoints_taken == 2
        assert manager.store.versions() == (1, 2)

    def test_same_instant_ticks_collapse(self, registry, fn_python):
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        manager.on_control_tick(10.0)
        manager.on_control_tick(10.0)
        manager.on_control_tick(10.0)
        assert manager.stats.audits == 1

    def test_ticks_paused_while_crashed(self, registry, fn_python):
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        manager.crash()
        manager.on_control_tick(10.0)
        assert manager.stats.audits == 0

    def test_control_loop_drives_the_manager(
        self, registry, fn_python, monkeypatch
    ):
        monkeypatch.setattr(recovery_manager, "CHECKPOINT_EVERY_TICKS", 2)
        platform = make_platform(registry)
        manager = RecoveryManager(platform.provider)
        platform.deploy(fn_python)
        platform.provider.start_control_loop()
        platform.run(until=5_500.0)
        platform.provider.stop_control_loop()
        assert manager.stats.audits >= 4
        assert manager.stats.checkpoints_taken >= 2


class TestClusterRecovery:
    def make_cluster(self, registry, **kwargs):
        platform = make_cluster_platform(
            registry,
            n_hosts=2,
            seed=0,
            jitter_sigma=0.0,
            hotc_config=HotCConfig(control_interval_ms=0),
            **kwargs,
        )
        return platform, platform.provider

    def test_cluster_crash_and_recover(self, registry, fn_python):
        platform, cluster = self.make_cluster(registry)
        manager = RecoveryManager(cluster)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        manager.checkpoint()
        manager.crash()
        with pytest.raises(RuntimeUnavailableError):
            cluster.acquire(fn_python.container_config()).send(None)
        repairs = manager.recover()
        assert kinds_of(repairs) == [RepairKind.ADOPTED_IDLE]
        cluster.check_consistency()
        platform.submit(fn_python.name)
        platform.run()
        assert list(platform.traces.cold_flags()) == [True, False]
        served_on = {t.container_id for t in platform.traces.traces}
        assert len(served_on) == 1  # the same adopted container

    def test_inflight_request_survives_cluster_crash(self, registry, fn_python):
        platform, cluster = self.make_cluster(registry)
        manager = RecoveryManager(cluster)
        slow = fn_python.with_overrides(exec_ms=30_000.0)
        platform.deploy(slow)
        platform.submit(slow.name)
        platform.run(until=15_000.0)
        manager.crash()
        manager.recover()
        platform.run()
        assert platform.traces.traces[0].outcome.value == "success"
        cluster.check_consistency()
        assert_no_requests_held(cluster)

    @pytest.mark.parametrize(
        "manager_first", [False, True], ids=["adm-first", "mgr-first"]
    )
    def test_aimd_limits_checkpoint_and_restore(
        self, registry, fn_python, manager_first
    ):
        platform, cluster = self.make_cluster(registry)
        controller = AdmissionController(AdmissionConfig())
        if manager_first:
            manager = RecoveryManager(cluster)
        platform.attach_admission(controller)
        if not manager_first:
            manager = RecoveryManager(cluster)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        # Pretend AIMD learned a lower limit, then checkpoint it.
        state_name = fn_python.name
        limiter = controller._states[state_name].limiter
        limiter.limit = 4.0
        checkpoint = manager.checkpoint()
        assert checkpoint.aimd_limits == {state_name: 4.0}
        manager.crash()
        assert limiter.limit == limiter.config.initial_limit  # reset
        manager.recover()
        assert limiter.limit == 4.0  # restored

    def test_recovery_events_and_counters(self, registry, fn_python):
        platform, cluster = self.make_cluster(registry)
        obs = Observatory()
        platform.sim.obs = obs
        manager = RecoveryManager(cluster)
        platform.deploy(fn_python)
        platform.submit(fn_python.name)
        platform.run()
        manager.checkpoint()
        manager.crash()
        manager.recover()
        kinds = obs.events.counts_by_kind()
        assert kinds.get("checkpoint", 0) == 1
        assert kinds.get("recovery", 0) == 2  # crash + recover
        assert kinds.get("repair", 0) == 1
        assert obs.counter("controller_crashes_total").value == 1
        assert obs.counter("controller_recoveries_total").value == 1


class TestBitIdentity:
    def run_workload(self, registry, fn_python, attach):
        platform = make_platform(registry)
        if attach:
            RecoveryManager(platform.provider)
        platform.deploy(fn_python)
        for i in range(20):
            platform.submit(fn_python.name, delay=i * 700.0)
        platform.provider.start_control_loop()
        platform.run(until=40_000.0)
        platform.provider.stop_control_loop()
        platform.run()
        return [
            (t.cold_start, t.reuse, t.total_latency)
            for t in platform.traces.traces
        ]

    def test_attached_but_never_crashed_changes_nothing(
        self, registry, fn_python
    ):
        plain = self.run_workload(registry, fn_python, attach=False)
        attached = self.run_workload(registry, fn_python, attach=True)
        assert len(plain) == 20
        assert attached == plain
