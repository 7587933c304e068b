"""HotC's hardened boot path: retry, backoff, hedging, breaker, drain."""

import pytest

from repro.containers import ContainerError
from repro.core import HotC, HotCConfig
from repro.core.hotc import BOOT_BACKOFF_BASE_MS, BOOT_BACKOFF_JITTER
from repro.faas import FaasPlatform, RequestOutcome
from repro.faas import watchdog
from repro.faults import FaultInjector


def make_platform(registry, config=None, **platform_kwargs):
    platform = FaasPlatform(
        registry,
        seed=0,
        jitter_sigma=0.0,
        provider_factory=lambda e: HotC(
            e, config or HotCConfig(control_interval_ms=0)
        ),
        **platform_kwargs,
    )
    injector = FaultInjector()
    platform.engine.attach_fault_injector(injector)
    return platform, injector


class TestBootRetry:
    def test_boot_failure_retried_transparently(self, registry, fn_python):
        platform, injector = make_platform(registry)
        platform.deploy(fn_python)
        injector.fail_next_boots(1)
        platform.submit(fn_python.name)
        platform.run()
        assert len(platform.traces) == 1
        trace = platform.traces.traces[0]
        assert trace.outcome is RequestOutcome.SUCCESS  # provider-level retry
        assert platform.engine.stats.boot_failures == 1
        assert platform.engine.stats.boot_retries == 1
        assert platform.engine.stats.boots == 1

    def test_transient_error_retried(self, registry, fn_python):
        platform, injector = make_platform(registry)
        platform.deploy(fn_python)
        injector.glitch_next_boots(2)
        platform.submit(fn_python.name)
        platform.run()
        assert platform.traces.traces[0].outcome is RequestOutcome.SUCCESS
        assert platform.engine.stats.transient_errors == 2
        assert platform.engine.stats.boot_retries == 2

    def test_backoff_delays_the_retry(self, registry, fn_python):
        platform, injector = make_platform(registry)
        platform.deploy(fn_python)

        baseline_platform, _ = make_platform(registry)
        baseline_platform.deploy(fn_python)
        baseline_platform.submit(fn_python.name)
        baseline_platform.run()
        baseline = baseline_platform.traces.traces[0].total_latency

        injector.fail_next_boots(1)
        platform.submit(fn_python.name)
        platform.run()
        retried = platform.traces.traces[0].total_latency
        # The first retry waits the base backoff, less at most the jitter.
        assert retried >= baseline + BOOT_BACKOFF_BASE_MS * (1 - BOOT_BACKOFF_JITTER)

    def test_retries_exhausted_fails_the_request(
        self, registry, fn_python, monkeypatch
    ):
        monkeypatch.setattr(watchdog, "REQUEST_RETRIES", 0)
        config = HotCConfig(control_interval_ms=0, breaker_threshold=0)
        platform, injector = make_platform(registry, config)
        platform.deploy(fn_python)
        injector.fail_next_boots(10)
        platform.submit(fn_python.name)
        platform.run()
        trace = platform.traces.traces[0]
        assert trace.outcome is RequestOutcome.FAILED
        assert "BootFailure" in trace.error
        assert platform.engine.stats.requests_failed == 1
        # 1 original + 2 provider retries, then the watchdog gave up.
        assert platform.engine.stats.boot_failures == 3


class TestBusyAccounting:
    def test_failed_acquire_rolls_back_busy(self, registry, fn_python):
        """Regression: a raising boot must not leak demand accounting.

        Monkeypatches the engine with an always-failing boot (not the
        injector, so the test exercises the acquire contract itself).
        """
        platform = FaasPlatform(
            registry,
            seed=0,
            jitter_sigma=0.0,
            provider_factory=lambda e: HotC(
                e, HotCConfig(control_interval_ms=0)
            ),
        )
        platform.deploy(fn_python)
        provider = platform.provider

        def broken_boot(config, warm_runtime=False):
            raise ContainerError("engine exploded")
            yield  # pragma: no cover - generator marker

        platform.engine.boot_container = broken_boot
        process = platform.sim.process(
            provider.acquire(fn_python.container_config())
        )
        platform.run()
        assert process.triggered and not process.ok
        key = provider.key_of(fn_python.container_config())
        assert provider._keys[key].busy == 0
        assert provider._pending_boots == {}

    def test_exec_crash_discard_rolls_back_busy(self, registry, fn_python):
        platform, injector = make_platform(registry)
        platform.deploy(fn_python)
        provider = platform.provider
        injector.crash_next_execs(1)
        platform.submit(fn_python.name)
        platform.run()
        trace = platform.traces.traces[0]
        assert trace.outcome is RequestOutcome.RETRIED
        assert trace.retries == 1
        assert platform.engine.stats.exec_crashes == 1
        key = provider.key_of(fn_python.container_config())
        assert provider._keys[key].busy == 0
        provider.pool.check_consistency()


class TestHedgedBoot:
    def test_no_timeout_means_no_hedging(self, registry, fn_python):
        platform, injector = make_platform(registry)
        platform.deploy(fn_python)
        injector.delay_next_boots(5_000.0, 1)
        platform.submit(fn_python.name)
        platform.run()
        # A straggling boot is waited out inline: one boot, no race.
        assert platform.engine.stats.boots == 1
        assert platform.traces.traces[0].total_latency > 5_000.0


class TestBreakerIntegration:
    @pytest.fixture(autouse=True)
    def no_request_retries(self, monkeypatch):
        monkeypatch.setattr(watchdog, "REQUEST_RETRIES", 0)

    def _config(self):
        return HotCConfig(
            control_interval_ms=0,
            breaker_threshold=2,
        )

    def test_breaker_opens_and_fails_fast(self, registry, fn_python):
        platform, injector = make_platform(registry, self._config())
        platform.deploy(fn_python)
        injector.fail_next_boots(100)
        for i in range(3):
            platform.submit(fn_python.name, delay=i * 100.0)
        platform.run(until=60_000.0)
        stats = platform.engine.stats
        assert stats.breaker_opens == 1
        # The first request's retry opened the breaker; the other two
        # were refused without touching the engine.
        assert stats.breaker_fastfails == 2
        assert stats.boot_failures == 2
        assert platform.traces.failed_count() == 3

    def test_half_open_probe_recovers(self, registry, fn_python):
        platform, injector = make_platform(registry, self._config())
        platform.deploy(fn_python)
        injector.fail_next_boots(2)  # exactly enough to open
        platform.submit(fn_python.name, delay=0.0)
        platform.submit(fn_python.name, delay=100.0)
        # After the cooldown the forced failures are exhausted: the
        # half-open probe boots cleanly and the breaker closes.  The
        # last request comes well after the probe finished (a request
        # arriving mid-probe would be fast-failed by design).
        platform.submit(fn_python.name, delay=15_000.0)
        platform.submit(fn_python.name, delay=60_000.0)
        platform.run(until=120_000.0)
        outcomes = platform.traces.outcome_counts()
        assert outcomes.get("failed") == 2
        assert outcomes.get("success") == 2
        # The first request's retry opened the breaker, so the second
        # was refused; the probe and the last request were not.
        assert platform.engine.stats.breaker_fastfails == 1

    def test_open_breaker_pauses_prewarm(self, registry, fn_python):
        platform, injector = make_platform(registry, self._config())
        platform.deploy(fn_python)
        provider = platform.provider
        injector.fail_next_boots(100)
        platform.submit(fn_python.name)
        platform.submit(fn_python.name, delay=100.0)
        platform.run(until=1_000.0)
        key = provider.key_of(fn_python.container_config())
        assert provider._keys[key].breaker.is_open(platform.sim.now)
        provider._spawn_prewarm(key)
        assert provider._pending_boots == {}  # refused while open

    def test_breaker_is_built_on_the_first_boot_failure(self, registry, fn_python):
        platform, injector = make_platform(registry, self._config())
        platform.deploy(fn_python)
        provider = platform.provider
        key = provider.key_of(fn_python.container_config())
        platform.submit(fn_python.name)
        platform.run()
        # A clean cold boot builds no breaker, and a checkpoint copies none.
        assert provider._keys[key].breaker is None
        (saved,) = provider.snapshot_state()
        assert saved.breakers == {}
        injector.fail_next_boots(1)
        platform.submit(fn_python.name)
        platform.submit(fn_python.name)  # the one idle container is busy
        platform.run()
        breaker = provider._keys[key].breaker
        assert breaker is not None and breaker.state == "closed"
        (saved,) = provider.snapshot_state()
        assert list(saved.breakers) == [key]
        assert saved.breakers[key] is not breaker
        assert platform.traces.failed_count() == 0

    def test_no_breaker_when_breakers_are_off(self, registry, fn_python):
        config = HotCConfig(control_interval_ms=0, breaker_threshold=0)
        platform, injector = make_platform(registry, config)
        platform.deploy(fn_python)
        injector.fail_next_boots(2)
        platform.submit(fn_python.name)
        platform.run()
        key = platform.provider.key_of(fn_python.container_config())
        assert platform.engine.stats.boot_failures == 2
        assert platform.provider._keys[key].breaker is None
        assert platform.traces.failed_count() == 0


class TestShutdownDrain:
    def test_shutdown_mid_burst_retires_everything(self, registry, fn_python):
        platform, _ = make_platform(registry)
        platform.deploy(fn_python.with_overrides(exec_ms=5_000.0))
        provider = platform.provider
        for i in range(3):
            platform.submit(fn_python.name, delay=i * 10.0)
        platform.run(until=3_000.0)  # requests mid-execution
        assert platform.engine.live_count > 0
        platform.sim.process(provider.shutdown())
        platform.run()
        assert platform.engine.live_count == 0
        assert provider.pool.total_live == 0
        assert platform.traces.all_terminal()
        assert platform.traces.failed_count() == 0
        provider.pool.check_consistency()

    def test_shutdown_absorbs_pending_prewarm(self, registry, fn_python):
        platform, _ = make_platform(registry)
        platform.deploy(fn_python)
        provider = platform.provider
        key = provider.key_of(fn_python.container_config())
        provider._learn(key, fn_python.container_config())
        provider._spawn_prewarm(key)
        # Shut down while the prewarm boot is still in flight.
        platform.sim.process(provider.shutdown())
        platform.run()
        assert platform.engine.live_count == 0
        assert provider.pool.total_live == 0
        assert provider._pending_boots == {}
