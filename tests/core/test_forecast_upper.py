"""Tests for the risk-aware k-step forecast (pool-sizing extension)."""

import pytest

from repro.core import CombinedPredictor, MarkovChain


class TestStateMarginal:
    def test_marginal_sums_to_one(self):
        chain = MarkovChain(n_states=4).fit([1.0, 5.0, 9.0, 2.0, 8.0])
        marginal = chain.state_marginal()
        assert marginal.sum() == pytest.approx(1.0)
        assert marginal.shape == (4,)

    def test_marginal_reflects_occupancy(self):
        chain = MarkovChain(n_states=2).fit([0.0, 0.0, 0.0, 10.0])
        marginal = chain.state_marginal()
        assert marginal[0] == pytest.approx(0.75)
        assert marginal[1] == pytest.approx(0.25)

    def test_marginal_requires_data(self):
        with pytest.raises(RuntimeError):
            MarkovChain().state_marginal()

    def test_empty_rows_policy(self):
        chain = MarkovChain(n_states=4).fit([0.0, 10.0])
        identity = chain.transition_matrix(1, empty_rows="identity")
        marginal = chain.transition_matrix(1, empty_rows="marginal")
        # State 1 was never visited: identity self-loops, marginal
        # follows the occupancy distribution.
        assert identity[1, 1] == pytest.approx(1.0)
        assert marginal[1, 1] == pytest.approx(0.0)
        assert marginal[1].sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            chain.transition_matrix(1, empty_rows="quantum")


class TestForecastUpper:
    def make_bursty(self, cycles=8):
        """8,8,8,80 repeating — a recurring burst every 4 intervals."""
        predictor = CombinedPredictor(alpha=0.8, init="first")
        series = ([8.0, 8.0, 8.0, 80.0] * cycles)
        for value in series:
            predictor.update(value)
        return predictor

    def test_validation(self):
        predictor = self.make_bursty()
        with pytest.raises(ValueError):
            predictor.forecast_upper(quantile=0)
        with pytest.raises(ValueError):
            predictor.forecast_upper(quantile=1.5)
        with pytest.raises(ValueError):
            predictor.forecast_upper(horizon=0)

    def test_falls_back_before_history(self):
        predictor = CombinedPredictor()
        assert predictor.forecast_upper() is None
        predictor.update(5.0)
        assert predictor.forecast_upper() == predictor.forecast

    def test_upper_at_least_point_forecast(self):
        predictor = self.make_bursty()
        assert predictor.forecast_upper(0.9, 4) >= predictor.forecast

    def test_anticipates_recurring_burst(self):
        """After steady low demand, the 4-step horizon sees the burst."""
        predictor = self.make_bursty()
        upper = predictor.forecast_upper(quantile=0.9, horizon=4)
        # The point forecast hovers near the low level; the risk-aware
        # one provisions for the 80-burst.
        assert predictor.forecast < 30
        assert upper > 50

    def test_short_horizon_may_miss_burst(self):
        predictor = self.make_bursty()
        short = predictor.forecast_upper(quantile=0.9, horizon=1)
        long = predictor.forecast_upper(quantile=0.9, horizon=4)
        assert long >= short

    def test_low_quantile_stays_near_trend(self):
        predictor = self.make_bursty()
        median_ish = predictor.forecast_upper(quantile=0.5, horizon=1)
        high = predictor.forecast_upper(quantile=0.99, horizon=4)
        assert median_ish <= high

    def test_constant_series_no_inflation(self):
        predictor = CombinedPredictor(alpha=0.8, init="first")
        for _ in range(12):
            predictor.update(5.0)
        upper = predictor.forecast_upper(quantile=0.95, horizon=4)
        assert upper == pytest.approx(5.0, abs=1.0)

    def test_clamped_non_negative(self):
        predictor = CombinedPredictor(alpha=0.8, init="first")
        for value in (20.0, 0.0, 0.0, 20.0, 0.0, 0.0, 20.0, 0.0):
            predictor.update(value)
        assert predictor.forecast_upper(0.9, 4) >= 0.0


class TestUpperNeverBelowForecast:
    """Regression for the donor-selection path: ``donation_headroom``
    takes ``max(target, target_upper)``, which is only meaningful when
    the upper bound can never dip below the point forecast."""

    def test_fuzzed_invariant(self):
        import random

        rng = random.Random(7)
        for trial in range(40):
            predictor = CombinedPredictor(alpha=0.8, init="first")
            for _ in range(rng.randrange(8, 40)):
                predictor.update(rng.uniform(0.0, 50.0))
            for quantile in (0.5, 0.9, 0.99):
                for horizon in (1, 2, 4, 8):
                    upper = predictor.forecast_upper(quantile, horizon)
                    assert upper >= predictor.forecast, (
                        f"trial {trial}: upper {upper} < "
                        f"forecast {predictor.forecast}"
                    )

    def test_low_quantile_clamps_to_point_forecast(self):
        """Even a tiny quantile cannot undercut the point forecast."""
        predictor = CombinedPredictor(alpha=0.8, init="first")
        for value in [8.0, 8.0, 8.0, 80.0] * 8:
            predictor.update(value)
        upper = predictor.forecast_upper(quantile=0.01, horizon=1)
        assert upper >= predictor.forecast


class TestDonationHeadroom:
    def make_controller(self):
        from repro.core import AdaptivePoolController

        return AdaptivePoolController()

    def test_unobserved_key_fully_donatable(self):
        controller = self.make_controller()
        assert controller.donation_headroom("ghost", 3) == 3
        assert controller.donation_headroom("ghost", 0) == 0

    def test_observed_key_keeps_its_forecast(self):
        controller = self.make_controller()
        for _ in range(8):
            controller.observe(["k"], [2.0])
        need = max(controller.target("k"), controller.target_upper("k"))
        assert need >= 2
        assert controller.donation_headroom("k", need) == 0
        assert controller.donation_headroom("k", need + 2) == 2

    def test_bursty_key_vetoes_via_upper_bound(self):
        """The risk-aware bound (not just the point forecast) guards the
        donor: a recurring burst keeps surplus containers home."""
        controller = self.make_controller()
        for value in [1.0, 1.0, 1.0, 10.0] * 8:
            controller.observe(["k"], [value])
        point = controller.target("k")
        headroom = controller.donation_headroom("k", point + 1)
        assert headroom == 0

    def test_never_negative_and_validates(self):
        controller = self.make_controller()
        for _ in range(8):
            controller.observe(["k"], [5.0])
        assert controller.donation_headroom("k", 1) == 0
        with pytest.raises(ValueError):
            controller.donation_headroom("k", -1)


class TestControllerUpperTarget:
    def test_target_upper_at_least_target(self):
        from repro.core import AdaptivePoolController

        controller = AdaptivePoolController()
        for value in [8.0, 8.0, 8.0, 80.0] * 6:
            controller.observe(["k"], [value])
        assert controller.target_upper("k") >= controller.target("k")

    def test_unknown_key(self):
        from repro.core import AdaptivePoolController

        assert AdaptivePoolController().target_upper("nope") == 0

    def test_clamped_to_max_target(self):
        from repro.core import AdaptivePoolController

        controller = AdaptivePoolController(max_target=10)
        for value in [8.0, 8.0, 8.0, 900.0] * 6:
            controller.observe(["k"], [value])
        assert controller.target_upper("k") <= 10
