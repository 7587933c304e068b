"""Circuit breaker state machine: closed -> open -> half-open -> closed."""

import pytest

from repro.core import CircuitBreaker


class TestClosed:
    def test_allows_by_default(self):
        breaker = CircuitBreaker(threshold=3, cooldown_ms=1_000)
        assert breaker.allow(0.0)
        assert not breaker.is_open(0.0)

    def test_failures_below_threshold_stay_closed(self):
        breaker = CircuitBreaker(threshold=3, cooldown_ms=1_000)
        assert breaker.record_failure(0.0) is False
        assert breaker.record_failure(1.0) is False
        assert breaker.allow(2.0)

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown_ms=1_000)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(1.0)
        # Still one failure away from the threshold.
        assert breaker.allow(2.0)
        assert not breaker.is_open(2.0)


class TestOpen:
    def test_threshold_opens_and_reports_transition(self):
        breaker = CircuitBreaker(threshold=2, cooldown_ms=1_000)
        assert breaker.record_failure(0.0) is False
        assert breaker.record_failure(1.0) is True  # the opening failure
        assert not breaker.allow(500.0)
        assert breaker.is_open(500.0)

    def test_cooldown_elapses_into_half_open(self):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=1_000)
        breaker.record_failure(0.0)
        assert not breaker.allow(999.0)
        assert breaker.allow(1_000.0)  # the half-open probe

    def test_rejects_threshold_below_one(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0, cooldown_ms=1_000)

    def test_rejects_nonpositive_cooldown(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=1, cooldown_ms=0)


class TestHalfOpen:
    def test_single_probe_slot(self):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=1_000)
        breaker.record_failure(0.0)
        assert breaker.allow(1_500.0)  # claims the probe
        assert not breaker.allow(1_500.0)  # second caller refused

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=1_000)
        breaker.record_failure(0.0)
        assert breaker.allow(1_500.0)
        breaker.record_success()
        assert breaker.allow(1_500.0)
        assert breaker.allow(1_500.0)  # fully closed: no probe limit

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=1_000)
        breaker.record_failure(0.0)
        assert breaker.allow(1_500.0)
        assert breaker.record_failure(1_500.0) is True  # re-opened
        assert not breaker.allow(2_000.0)  # fresh cooldown from t=1500
        assert breaker.allow(2_500.0)

    def test_is_open_does_not_consume_the_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=1_000)
        breaker.record_failure(0.0)
        # The non-mutating check (prewarm path) must not claim the slot.
        assert not breaker.is_open(1_500.0)
        assert breaker.allow(1_500.0)
