"""The combined ES + Markov predictor (Section IV-C(3)).

The paper's argument: exponential smoothing follows the demand *trend*
but "forecast is relatively lagging and cannot handle large jittering";
the Markov chain "revises preliminary results to overcome the data
fluctuation".

We implement the standard smoothing/Markov hybrid that matches the
paper's description: the Markov chain runs over the *residuals* of the
smoother (actual − forecast).  Each step:

1. ES produces the trend forecast ``f_{t+1}``.
2. The residual series ``r_t = x_t − f_t`` is bucketed into region
   states; the 1-step transition matrix predicts the next residual
   state from the current one (Eq. 2).
3. The corrected forecast is ``f_{t+1} + midpoint(next residual
   state)`` — the midpoint rule of the paper.

Until enough residuals exist to estimate transitions
(:attr:`min_history`), the predictor falls back to pure ES.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.predictor.controller import N_STATES, WINDOW
from repro.core.predictor.exponential import ExponentialSmoothing
from repro.core.predictor.markov import MarkovChain

__all__ = ["CombinedPredictor"]


class CombinedPredictor:
    """Streaming exponential-smoothing + Markov-correction predictor.

    The residual chain has the bank's ``N_STATES`` region states and
    keeps its last ``WINDOW`` residuals; forecasts are clamped at 0
    (container counts cannot be negative).

    Parameters
    ----------
    alpha:
        Smoothing coefficient of Eq. 1 (paper default 0.8).
    init:
        Initial-value policy of the smoother (see
        :class:`ExponentialSmoothing`).
    min_history:
        Observations required before the Markov correction engages.
    """

    def __init__(
        self, alpha: float = 0.8, init: str = "auto", min_history: int = 6
    ) -> None:
        if min_history < 2:
            raise ValueError("min_history must be >= 2")
        self.smoother = ExponentialSmoothing(alpha=alpha, init=init)
        self.residual_chain = MarkovChain(n_states=N_STATES, window=WINDOW)
        self.min_history = min_history
        self._last_forecast: Optional[float] = None
        self._last_residual: Optional[float] = None
        self._forecast_next: Optional[float] = None

    @property
    def n_observations(self) -> int:
        """How many observations have been consumed."""
        return self.smoother.n_observations

    @property
    def forecast(self) -> Optional[float]:
        """Corrected one-step-ahead forecast (None before any data)."""
        return self._forecast_next

    def update(self, observation: float) -> float:
        """Consume one observation, return the corrected next forecast."""
        if self._last_forecast is not None:
            self._last_residual = observation - self._last_forecast
            self.residual_chain.update(self._last_residual)

        trend = self.smoother.update(observation)
        self._last_forecast = trend

        corrected = trend
        if (
            self.smoother.n_observations >= self.min_history
            and self.residual_chain.ready
            and self._last_residual is not None
        ):
            correction = self.residual_chain.predict(self._last_residual)
            corrected = trend + correction
        corrected = max(0.0, corrected)
        self._forecast_next = corrected
        return corrected

    def fit_series(self, values) -> np.ndarray:
        """Feed a series; element ``i`` is the forecast for point ``i+1``."""
        return np.array([self.update(v) for v in np.asarray(values, dtype=float)])

    def forecast_upper(self, quantile: float = 0.9, horizon: int = 4) -> Optional[float]:
        """Risk-aware forecast for pool sizing: an upper quantile of the
        demand over the next ``horizon`` steps.

        Pool sizing is asymmetric — an idle container costs ~0.7 MB, a
        cold start costs hundreds of milliseconds — so HotC provisions
        against an upper quantile rather than the point forecast.  For
        each step ``h`` the k-step transition matrix of Eq. 2 gives the
        distribution of the residual state ``h`` intervals ahead; the
        ``quantile``-level midpoint correction is added to the trend and
        the maximum over horizons is returned.  This is what lets the
        pool stay provisioned across *recurring* bursts (Fig 14b): a
        burst every k intervals shows up as mass in the k-step matrix.

        Returns the plain :attr:`forecast` until the residual chain has
        data.
        """
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if (
            self._forecast_next is None
            or self._last_forecast is None
            or self._last_residual is None
            or not self.residual_chain.ready
            or self.smoother.n_observations < self.min_history
        ):
            return self._forecast_next
        chain = self.residual_chain
        trend = self._last_forecast
        current_state = chain.state_of(self._last_residual)
        midpoints = np.array(
            [chain.state_midpoint(i) for i in range(chain.n_states)]
        )
        order = np.argsort(midpoints)
        best = self._forecast_next
        for step in range(1, horizon + 1):
            row = chain.transition_matrix(step, empty_rows="marginal")[current_state]
            cumulative = 0.0
            correction = midpoints[order[-1]]
            for state in order:
                cumulative += row[state]
                if cumulative >= quantile - 1e-12:
                    correction = midpoints[state]
                    break
            candidate = trend + float(correction)
            candidate = max(0.0, candidate)
            best = max(best, candidate)
        # Invariant: never below the point forecast.  ``best`` starts at
        # ``_forecast_next`` and only grows, but the donor-selection
        # path (inter-key repurposing) leans on the guarantee, so clamp
        # explicitly rather than structurally.
        return max(best, self._forecast_next)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CombinedPredictor(alpha={self.smoother.alpha}, "
            f"n_states={self.residual_chain.n_states}, "
            f"n={self.n_observations})"
        )
