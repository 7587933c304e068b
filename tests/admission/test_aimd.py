"""AIMD limiter: additive raise, multiplicative cut, interval semantics."""

import pytest

from repro.admission import AIMDConfig, AIMDLimiter
from repro.admission import aimd


class TestConfigValidation:
    def test_defaults_valid(self):
        AIMDConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_limit": 2_048.0},
            {"initial_limit": 0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AIMDConfig(**kwargs)


class TestLimiter:
    def test_idle_interval_moves_nothing(self):
        limiter = AIMDLimiter(AIMDConfig(initial_limit=8.0))
        assert limiter.tick() == 8.0
        assert limiter.effective == 8

    def test_success_raises_additively(self, monkeypatch):
        monkeypatch.setattr(aimd, "INCREASE", 2.0)
        limiter = AIMDLimiter(AIMDConfig(initial_limit=8.0))
        limiter.record_success()
        assert limiter.tick() == 10.0
        # Accumulators reset: the next idle tick holds.
        assert limiter.tick() == 10.0

    def test_raise_caps_at_max(self, monkeypatch):
        monkeypatch.setattr(aimd, "MAX_LIMIT", 10.0)
        limiter = AIMDLimiter(AIMDConfig(initial_limit=9.5))
        limiter.record_success()
        assert limiter.tick() == 10.0

    def test_miss_cuts_multiplicatively(self):
        limiter = AIMDLimiter(AIMDConfig(initial_limit=8.0))
        limiter.record_miss()
        assert limiter.tick() == 4.0

    def test_cut_floors_at_min(self, monkeypatch):
        monkeypatch.setattr(aimd, "MIN_LIMIT", 2.0)
        limiter = AIMDLimiter(AIMDConfig(initial_limit=2.0))
        limiter.record_miss()
        assert limiter.tick() == 2.0

    def test_miss_beats_success_in_same_interval(self):
        limiter = AIMDLimiter(AIMDConfig(initial_limit=8.0))
        for _ in range(100):
            limiter.record_success()
        limiter.record_miss()
        assert limiter.tick() == 4.0

    def test_shed_burst_threshold(self):
        config = AIMDConfig(initial_limit=8.0)
        assert aimd.SHED_BURST == 4
        limiter = AIMDLimiter(config)
        for _ in range(3):
            limiter.record_shed()
        assert not limiter.congested
        assert limiter.tick() == 8.0  # absorbed: below the burst
        for _ in range(4):
            limiter.record_shed()
        assert limiter.congested
        assert limiter.tick() == 4.0

    def test_effective_is_floored_and_at_least_one(self):
        limiter = AIMDLimiter(AIMDConfig(initial_limit=1.0))
        limiter.record_miss()
        limiter.tick()
        assert limiter.limit == 1.0
        assert limiter.effective == 1
        limiter.limit = 3.7
        assert limiter.effective == 3

    def test_cut_then_recover(self):
        limiter = AIMDLimiter(AIMDConfig(initial_limit=16.0))
        limiter.record_miss()
        limiter.tick()
        assert limiter.effective == 8
        for _ in range(8):
            limiter.record_success()
            limiter.tick()
        assert limiter.effective == 16
