"""Container health plane: flags, verdicts, and the HotC recycle loop.

Unit tests drive :class:`ContainerHealthPlane` directly (it is pure
bookkeeping on an idle simulator); integration tests run a
:class:`FaasPlatform` with ``HotCConfig.container_health`` set and
assert the end-to-end quarantine → token-bucket recycle → paired
prewarm behavior, plus the strict-opt-in guarantee that an enabled but
never-triggered plane changes nothing.
"""

import pytest

from repro.containers import Container, ContainerConfig
from repro.core import HotC, HotCConfig, PoolLimits, runtime_key
from repro.faas import FaasPlatform
from repro.faults import FaultPlan, FaultSpec
from repro.health import ContainerHealthConfig, ContainerHealthPlane
from repro.health import container as health_module
from repro.sim import Simulator


def make_container(cid="c0", image="python:3.6", created_at=0.0):
    return Container(
        cid, ContainerConfig(image=image, mem_mb=128.0), created_at=created_at
    )


def key_for(container):
    return runtime_key(container.config)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_reuses": 0},
            {"max_reuses": -1},
            {"leak_slope_mb": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ContainerHealthConfig(**kwargs)

    def test_none_disables_caps(self):
        config = ContainerHealthConfig(max_reuses=None)
        assert config.max_reuses is None


class TestPlaneEvidence:
    def test_residual_drift_demotes_to_suspect(self, monkeypatch):
        monkeypatch.setattr(health_module, "RESIDUAL_THRESHOLD", 1.5)
        monkeypatch.setattr(health_module, "SUSPECT_AFTER", 2)
        monkeypatch.setattr(health_module, "EWMA_ALPHA", 1.0)
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        key = key_for(container)
        # Establish the key baseline with a healthy sibling.
        healthy = make_container("h0")
        healthy.exec_count = 5
        healthy.last_exec_ms = 20.0
        plane.observe_success(healthy, key, now=0.0)
        # The aging container runs 4x over baseline.
        container.exec_count = 3
        container.last_exec_ms = 80.0
        plane.observe_success(container, key, now=1.0)
        assert container.tainted
        assert not container.condemned
        assert plane.suspects == 1
        # A second drifted sample doesn't double-count the demotion.
        container.last_exec_ms = 90.0
        plane.observe_success(container, key, now=2.0)
        assert plane.suspects == 1

    def test_residual_needs_enough_execs(self, monkeypatch):
        monkeypatch.setattr(health_module, "RESIDUAL_THRESHOLD", 1.5)
        monkeypatch.setattr(health_module, "SUSPECT_AFTER", 5)
        monkeypatch.setattr(health_module, "EWMA_ALPHA", 1.0)
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        key = key_for(container)
        healthy = make_container("h0")
        healthy.exec_count = 5
        healthy.last_exec_ms = 20.0
        plane.observe_success(healthy, key, now=0.0)
        container.exec_count = 2  # below SUSPECT_AFTER
        container.last_exec_ms = 200.0
        plane.observe_success(container, key, now=1.0)
        assert not container.tainted

    def test_rss_limit_condemns_immediately(self, monkeypatch):
        monkeypatch.setattr(health_module, "RSS_LIMIT_MB", 100.0)
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        container.exec_count = 3
        container.last_exec_ms = 20.0
        container.rss_mb = 120.0
        plane.observe_success(container, key_for(container), now=1.0)
        assert container.tainted
        assert container.condemned
        assert plane.quarantines == 1

    def test_failure_opens_breaker_and_condemns(self):
        """One exec failure condemns, under the ``breaker`` reason."""
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        record = plane.observe_failure(container, key_for(container), now=1.0)
        assert record.key == key_for(container)
        assert container.condemned
        assert plane.quarantines == 1
        # A second failure does not condemn twice.
        plane.observe_failure(container, key_for(container), now=2.0)
        assert plane.quarantines == 1

    def test_condemn_without_evidence_keys_the_record_by_image(self):
        """An idle container condemned before any exec (the control
        tick's ``max_age`` sweep) gets a record under its image, which
        its quarantine and recycle events carry as their key."""
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        plane.condemn(container, None, now=1.0, reason="max_age")
        assert plane.record_of(container).key == "python:3.6"
        assert container.condemned
        assert plane.quarantines == 1

    def test_failure_on_suspect_condemns(self):
        """A failure on a tainted (SUSPECT) container is terminal."""
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        key = key_for(container)
        container.tainted = True
        plane.observe_failure(container, key, now=1.0)
        assert container.condemned


class TestRecycleVerdicts:
    def test_healthy_container_has_no_reason(self):
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        container.exec_count = 5
        assert plane.recycle_reason(container, now=1_000.0) is None

    def test_condemned_wins_over_everything(self):
        plane = ContainerHealthPlane(
            ContainerHealthConfig(max_reuses=1), Simulator()
        )
        container = make_container()
        container.exec_count = 10
        container.tainted = container.condemned = True
        assert plane.recycle_reason(container, now=0.0) == "quarantined"

    def test_condemned_flag_survives_record_loss(self):
        """The verdict rides on the container, so a control-plane crash
        that wiped the records cannot resurrect a condemned container."""
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        container.condemned = True
        assert plane.record_of(container) is None
        assert plane.recycle_reason(container, now=0.0) == "quarantined"

    def test_tainted_reports_suspect(self):
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        container.tainted = True
        assert plane.recycle_reason(container, now=0.0) == "suspect"

    def test_max_reuses_cap(self):
        plane = ContainerHealthPlane(
            ContainerHealthConfig(max_reuses=3), Simulator()
        )
        container = make_container()
        container.exec_count = 3
        assert plane.recycle_reason(container, now=0.0) == "max_reuses"
        container.exec_count = 2
        assert plane.recycle_reason(container, now=0.0) is None

    def test_max_age_cap(self, monkeypatch):
        monkeypatch.setattr(health_module, "MAX_AGE_MS", 1_000.0)
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container(created_at=100.0)
        assert plane.recycle_reason(container, now=500.0) is None
        assert plane.recycle_reason(container, now=1_100.0) == "max_age"

    def test_leak_slope_detector(self):
        plane = ContainerHealthPlane(
            ContainerHealthConfig(leak_slope_mb=4.0), Simulator()
        )
        container = make_container()
        container.exec_count = 10
        container.rss_mb = 50.0  # 5 MB/exec >= 4
        assert plane.recycle_reason(container, now=0.0) == "leak"
        container.rss_mb = 30.0  # 3 MB/exec < 4
        assert plane.recycle_reason(container, now=0.0) is None

    def test_disabled_caps_never_fire(self, monkeypatch):
        monkeypatch.setattr(health_module, "MAX_AGE_MS", float("inf"))
        plane = ContainerHealthPlane(
            ContainerHealthConfig(max_reuses=None), Simulator()
        )
        container = make_container(created_at=0.0)
        container.exec_count = 10_000
        assert plane.recycle_reason(container, now=1e12) is None


class TestRespecHygiene:
    def test_respec_resets_record_under_new_key(self):
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        old_key = key_for(container)
        container.exec_count = 5
        container.last_exec_ms = 20.0
        record = plane.observe_success(container, old_key, now=1.0)
        record.residual_ewma = 1.7
        cost = plane.note_respec(container, "new-key", now=2.0)
        assert cost == 0.0
        fresh = plane.record_of(container)
        assert fresh.key == "new-key"
        assert fresh.residual_ewma == 1.0

    def test_respec_scrubs_poison_for_sanitize_cost(self, monkeypatch):
        monkeypatch.setattr(health_module, "SANITIZE_MS", 40.0)
        plane = ContainerHealthPlane(ContainerHealthConfig(), Simulator())
        container = make_container()
        container.poisoned = True
        cost = plane.note_respec(container, "new-key", now=1.0)
        assert cost == 40.0
        assert not container.poisoned
        # Clean donors pay nothing.
        assert plane.note_respec(container, "other-key", now=2.0) == 0.0


def health_platform(registry, fn, *, health=None, seed=3, plan=None):
    config = HotCConfig(
        control_interval_ms=0,
        container_health=health,
    )
    platform = FaasPlatform(
        registry,
        seed=seed,
        jitter_sigma=0.0,
        provider_factory=lambda e: HotC(e, config),
    )
    platform.deploy(fn)
    if plan is not None:
        plan.install(platform.sim, [platform.engine])
    return platform


def trace_tuples(platform):
    return [
        (t.total_latency, t.cold_start, t.container_id, t.reuse_count)
        for t in platform.traces
    ]


class TestHotCIntegration:
    def test_enabled_but_untriggered_plane_changes_nothing(
        self, registry, fn_python, monkeypatch
    ):
        """With generous caps and no faults the plane observes but never
        intervenes — traces must be bit-identical to a disabled run."""

        def run(health):
            platform = health_platform(registry, fn_python, health=health)
            for i in range(20):
                platform.submit(fn_python.name, delay=i * 400.0)
            platform.run(until=60_000.0)
            return trace_tuples(platform)

        monkeypatch.setattr(health_module, "RESIDUAL_THRESHOLD", 50.0)
        monkeypatch.setattr(health_module, "MAX_AGE_MS", float("inf"))
        lenient = ContainerHealthConfig(max_reuses=10_000)
        assert run(lenient) == run(None)

    def test_retired_containers_leave_no_record(self, registry, fn_python):
        """Capacity evictions retire containers outside the recycle path;
        their health records must go with them."""
        config = HotCConfig(
            control_interval_ms=0,
            limits=PoolLimits(max_containers=6),
            container_health=ContainerHealthConfig(),
        )
        platform = FaasPlatform(
            registry, seed=3, provider_factory=lambda e: HotC(e, config)
        )
        names = []
        for key in range(24):
            spec = fn_python.with_overrides(
                name=f"fn-{key}", env=(("KEY", str(key)),)
            )
            platform.deploy(spec)
            names.append(spec.name)
        for i in range(400):
            platform.submit(names[(i * 7) % len(names)], delay=i * 50.0)
        platform.run()
        provider = platform.provider
        assert provider.pool.stats.evictions_capacity >= 100
        assert 0 < len(provider.container_health._records) <= platform.engine.live_count
        provider.check_consistency()

    def test_max_reuses_bounds_reuse_depth(
        self, registry, fn_python, monkeypatch
    ):
        monkeypatch.setattr(health_module, "MAX_AGE_MS", float("inf"))
        health = ContainerHealthConfig(max_reuses=3)
        platform = health_platform(registry, fn_python, health=health)
        for i in range(12):
            platform.submit(fn_python.name, delay=i * 1_000.0)
        platform.run(until=120_000.0)
        assert platform.traces.failed_count() == 0
        # No trace ever saw a container past its reuse cap.
        assert all(t.reuse_count < 3 for t in platform.traces)
        provider = platform.provider
        assert provider.pool.stats.recycled >= 2
        assert provider.container_health.recycles >= 2
        provider.check_consistency()
        provider.pool.check_consistency()

    def test_poisoned_container_never_serves_again(
        self, registry, fn_python
    ):
        platform = health_platform(
            registry,
            fn_python,
            health=ContainerHealthConfig(),
            plan=FaultPlan(seed=0, spec=FaultSpec()),
        )
        platform.engine.fault_injector.poison_next_execs(1)
        served = {}
        for i in range(10):
            platform.submit(fn_python.name, delay=i * 1_000.0)
        platform.run(until=120_000.0)
        for t in platform.traces:
            served.setdefault(t.container_id, 0)
            served[t.container_id] += 1
        # The poisoned exec failed once, was retried elsewhere, and the
        # contaminated container was quarantined — nobody served on it
        # after the poison verdict.
        plane = platform.provider.container_health
        assert plane.quarantines >= 1
        assert platform.traces.failed_count() == 0
        for trace in platform.traces:
            container = trace.container_id
            assert container  # every request eventually ran somewhere
        provider = platform.provider
        assert provider.pool.stats.recycled >= 1
        provider.check_consistency()

    def test_crash_looping_container_is_quarantined(
        self, registry, fn_python
    ):
        platform = health_platform(
            registry,
            fn_python,
            health=ContainerHealthConfig(),
            plan=FaultPlan(seed=0, spec=FaultSpec()),
        )
        platform.engine.fault_injector.crashloop_next_boots(after=2)
        for i in range(8):
            platform.submit(fn_python.name, delay=i * 1_000.0)
        platform.run(until=120_000.0)
        assert platform.traces.failed_count() == 0
        plane = platform.provider.container_health
        # The crash-looper served its grace execs, crashed once, and was
        # condemned; the engine had already destroyed it.
        assert plane.quarantines >= 1
        platform.provider.check_consistency()

    def test_recycle_rate_respects_token_bucket(
        self, registry, fn_python, monkeypatch
    ):
        monkeypatch.setattr(health_module, "RECYCLE_RATE_PER_S", 1.0)
        monkeypatch.setattr(health_module, "RECYCLE_BURST", 2)
        health = ContainerHealthConfig(max_reuses=1)
        platform = health_platform(registry, fn_python, health=health)
        provider = platform.provider
        plane = provider.container_health
        # Burn the burst down to zero, then verify refill is rate-bound.
        plane.tokens = 0.0
        plane._refill_at = platform.sim.now
        for i in range(6):
            platform.submit(fn_python.name, delay=i * 250.0)
        platform.run(until=2_000.0)
        # 2 seconds at 1 recycle/s: no more than ~2 tokens could have
        # been spent (plus none of the burst, which we zeroed).
        assert provider.pool.stats.recycled <= 2
        # The queue holds whatever the bucket refused so far; everything
        # queued must already be quarantined (check_consistency pins it).
        provider.check_consistency()
        # At shutdown the queue drains regardless of tokens.
        platform.run()
        platform.shutdown()
        platform.sim.run()
        assert not plane.queue

    def test_crash_clears_recycle_queue_but_keeps_tokens(
        self, registry, fn_python, monkeypatch
    ):
        """A control-plane crash forgets queued recycles and health
        records; the token bucket paces on across it."""
        monkeypatch.setattr(health_module, "MAX_AGE_MS", float("inf"))
        monkeypatch.setattr(health_module, "RECYCLE_RATE_PER_S", 1.0)
        monkeypatch.setattr(health_module, "RECYCLE_BURST", 3)
        health = ContainerHealthConfig(max_reuses=1)
        platform = health_platform(registry, fn_python, health=health)
        provider = platform.provider
        # Four single-use containers against a burst of three: three
        # recycle at once, the fourth waits in the queue for a token.
        for _ in range(4):
            platform.submit(fn_python.name)
        platform.run()
        assert provider.pool.stats.recycled == 3
        [queued] = provider.pool.quarantined_containers()
        provider.crash_control_plane()
        assert provider.container_health.record_of(queued) is None
        platform.run(until=platform.sim.now + 100.0)
        provider.recover_from()
        # ~2.5 s after the bucket ran dry three more single-use
        # containers release together: the kept bucket holds ~2.5
        # tokens (a fresh one would hold 3), and the forgotten queue
        # entry is not there to take one of them.
        for _ in range(3):
            platform.submit(fn_python.name, delay=1_900.0)
        platform.run(until=platform.sim.now + 3_000.0)
        assert provider.pool.stats.recycled == 3 + 2
        assert provider.pool.total_quarantined == 1
        # Recovery retired the condemned container outright.
        assert not queued.is_live
        provider.check_consistency()

    def test_recycle_pairs_a_prewarm(self, registry, fn_python, monkeypatch):
        monkeypatch.setattr(health_module, "MAX_AGE_MS", float("inf"))
        health = ContainerHealthConfig(max_reuses=2)
        platform = health_platform(registry, fn_python, health=health)
        for i in range(6):
            platform.submit(fn_python.name, delay=i * 2_000.0)
        platform.run(until=60_000.0)
        provider = platform.provider
        assert provider.pool.stats.recycled >= 1
        # The paired prewarm kept the key warm: later requests still hit
        # warm containers despite the recycling underneath.
        warm_hits = sum(1 for t in platform.traces if not t.cold_start)
        assert warm_hits > 0
        provider.check_consistency()

    def test_crash_rebuilds_plane_and_recovery_retires_condemned(
        self, registry, fn_python
    ):
        health = ContainerHealthConfig()
        platform = health_platform(
            registry,
            fn_python,
            health=health,
            plan=FaultPlan(seed=0, spec=FaultSpec()),
        )
        provider = platform.provider
        platform.submit(fn_python.name)
        platform.run(until=10_000.0)
        # Condemn the pooled container by hand, then crash the control
        # plane before the recycle loop can drain it.
        [entry] = list(
            provider.pool.available_entries(
                next(iter(provider.pool.keys()))
            )
        )
        container = entry.container
        provider.container_health.condemn(
            container, None, platform.sim.now, reason="test"
        )
        provider.crash_control_plane()
        assert provider.container_health.queue == []
        # Recovery adopts the live containers but retires the condemned
        # one instead of putting it back into service.
        platform.run(until=30_000.0)
        repairs = provider.recover_from()
        assert any(
            event.container_id == container.container_id for event in repairs
        )
        platform.run(until=60_000.0)
        assert container.condemned
        assert not provider.pool.contains(container)
        served_before = len(platform.traces)
        for i in range(3):
            platform.submit(fn_python.name, delay=100.0 + i * 500.0)
        platform.run(until=90_000.0)
        assert platform.traces.failed_count() == 0
        after = list(platform.traces)[served_before:]
        assert len(after) == 3
        # Nothing served on the condemned container after recovery.
        assert all(
            t.container_id != container.container_id for t in after
        )
        provider.check_consistency()
