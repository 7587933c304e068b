"""Unit tests for the combined ES+Markov predictor and the controller."""

import numpy as np
import pytest

from repro.core import AdaptivePoolController, CombinedPredictor, ExponentialSmoothing


class TestCombinedPredictor:
    def test_validation(self):
        with pytest.raises(ValueError):
            CombinedPredictor(min_history=1)
        with pytest.raises(ValueError):
            CombinedPredictor(alpha=1.5)

    def test_falls_back_to_es_early(self):
        combined = CombinedPredictor(alpha=0.8, init="first", min_history=6)
        es = ExponentialSmoothing(alpha=0.8, init="first")
        for value in (5.0, 7.0, 6.0):
            c = combined.update(value)
            e = es.update(value)
        assert c == pytest.approx(max(0.0, e))

    def test_forecast_property(self):
        combined = CombinedPredictor()
        assert combined.forecast is None
        combined.update(4.0)
        assert combined.forecast is not None

    def test_clamped_non_negative(self):
        combined = CombinedPredictor(alpha=0.8)
        series = [10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0]
        forecasts = combined.fit_series(series)
        assert np.all(forecasts >= 0.0)

    def test_improves_on_es_for_periodic_jitter(self):
        """The paper's claim (Fig 10a): the Markov correction reduces
        prediction error on a volatile series with recurring structure."""
        rng = np.random.default_rng(42)
        base = np.tile([4.0, 18.0, 6.0, 20.0], 30)
        series = base + rng.normal(0, 0.5, size=base.size)

        def mean_abs_error(forecasts):
            # forecasts[i] predicts series[i+1]
            return float(np.mean(np.abs(forecasts[:-1] - series[1:])))

        es_err = mean_abs_error(
            ExponentialSmoothing(alpha=0.8, init="first").fit_series(series)
        )
        combined_err = mean_abs_error(
            CombinedPredictor(alpha=0.8, init="first").fit_series(series)
        )
        assert combined_err < es_err

    def test_n_observations(self):
        combined = CombinedPredictor()
        combined.fit_series([1.0, 2.0, 3.0])
        assert combined.n_observations == 3


class TestAdaptivePoolController:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePoolController(max_target=-1)
        controller = AdaptivePoolController()
        with pytest.raises(ValueError):
            controller.observe(["k"], [-1.0])

    def test_unknown_key_target_zero(self):
        assert AdaptivePoolController().target("nope") == 0

    def test_target_is_ceiled_forecast(self):
        controller = AdaptivePoolController()
        controller.observe(["k"], [3.0])
        # forecast after one obs == 3.0 -> target 3
        assert controller.target("k") == 3

    def test_target_clamped_to_max(self):
        controller = AdaptivePoolController(max_target=5)
        controller.observe(["k"], [100.0])
        assert controller.target("k") == 5

    def test_forecasts_and_keys_recorded(self):
        controller = AdaptivePoolController()
        spec = CombinedPredictor()
        for value in (2.0, 4.0, 6.0):
            controller.observe(["k"], [value])
            assert controller.forecast("k") == spec.update(value)
        assert controller.known_keys() == ("k",)

    def test_keys_have_independent_predictors(self):
        controller = AdaptivePoolController()
        controller.observe(["a"], [10.0])
        controller.observe(["b"], [1.0])
        assert controller.target("a") > controller.target("b")


class TestMarkovWindowPlumbing:
    def test_default_window_is_bounded(self):
        predictor = CombinedPredictor()
        assert predictor.residual_chain.window == 512

    def test_window_reaches_residual_chain(self):
        predictor = CombinedPredictor()
        for value in range(100):
            predictor.update(float(value))
        # One residual per update after the first forecast exists.
        assert predictor.residual_chain.n_observations == 99
        for value in range(600):
            predictor.update(float(value % 9))
        assert predictor.residual_chain.n_observations == 512

    def test_hotc_config_plumbs_window(self):
        """HotC's bank keeps the spec's window of residuals per key."""
        from repro.core.hotc import HotCConfig
        from repro.core.predictor import controller

        bank = HotCConfig().make_controller()
        for tick in range(600):
            bank.observe(["k"], [tick % 9])
        assert bank._values.shape[1] == controller.WINDOW == 512
        assert CombinedPredictor().residual_chain.window == controller.WINDOW
