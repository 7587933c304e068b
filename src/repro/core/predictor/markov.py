"""Markov chain over region states (paper Eq. 2).

The paper divides the data range into ``n`` region states
``R_i = [R_i1, R_i2]``, estimates the k-step transition probability
``P_ij(k) = T_ij(k) / T_i`` from historical samples, and predicts the
next value as the midpoint of the most probable next state.

Implementation notes
--------------------
* States are equal-width bins spanning the observed data range.
* History is a bounded sliding window (default 512 observations): a
  long-running gateway must not grow per-key predictor state without
  limit, and old demand regimes should age out of the transition
  estimates.  ``window=None`` keeps everything (batch/ablation use).
* Every query is a batch refit of the retained window: the bin edges
  and the state of each value are computed on first use after an
  update and cached until the next one, and the lag-k transition
  counts are one ``np.bincount`` per call.  This module is the
  executable spec; the batched
  :class:`~repro.core.predictor.controller.AdaptivePoolController` is
  the fast path.
* Rows of the transition matrix with no observed departures fall back
  to "stay in place" (identity row), the conservative choice for a
  sparse history.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

import numpy as np

__all__ = ["MarkovChain"]

#: Default sliding-window length (observations retained per chain).
DEFAULT_WINDOW = 512


class MarkovChain:
    """Region-state Markov predictor over a scalar series."""

    def __init__(
        self, n_states: int = 4, window: Optional[int] = DEFAULT_WINDOW
    ) -> None:
        if n_states < 2:
            raise ValueError(f"n_states must be >= 2, got {n_states}")
        if window is not None and window < 2:
            raise ValueError(f"window must be >= 2 (or None), got {window}")
        self.n_states = n_states
        self.window = window
        self._values = deque(maxlen=window)
        #: ``(edges, states)`` of the current window; None after an update.
        self._fit: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- data -------------------------------------------------------------
    def update(self, value: float) -> None:
        """Append one observation, evicting past the window bound."""
        if not np.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        self._values.append(float(value))
        self._fit = None

    def fit(self, values) -> "MarkovChain":
        """Replace the history with ``values`` (truncated to the window)."""
        array = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(array)):
            raise ValueError("values must be finite")
        self._values = deque(array.tolist(), maxlen=self.window)
        self._fit = None
        return self

    @property
    def n_observations(self) -> int:
        """Number of observations currently retained."""
        return len(self._values)

    def _fitted(self) -> Tuple[np.ndarray, np.ndarray]:
        """Bin edges over the window's range and each value's state."""
        if len(self._values) < 2:
            raise RuntimeError("MarkovChain needs at least 2 observations")
        if self._fit is None:
            values = np.array(self._values)
            lo = values.min()
            hi = values.max()
            if hi == lo:
                # Degenerate constant series: one unit-wide range.
                hi = lo + 1.0
            edges = np.linspace(lo, hi, self.n_states + 1)
            self._fit = (edges, self._bin(edges, values))
        return self._fit

    def _bin(self, edges: np.ndarray, values):
        """Region state of each value, clipped to the known range."""
        index = np.searchsorted(edges, values, side="right") - 1
        return np.clip(index, 0, self.n_states - 1)

    # -- states -------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether bounds exist (>= 2 retained observations)."""
        return len(self._values) >= 2

    def state_of(self, value: float) -> int:
        """Region-state index of ``value`` (clipped to the known range)."""
        edges, _ = self._fitted()
        return int(self._bin(edges, value))

    def state_bounds(self, state: int) -> Tuple[float, float]:
        """``[R_i1, R_i2]`` interval of a state."""
        edges, _ = self._fitted()
        if not 0 <= state < self.n_states:
            raise IndexError(f"state {state} out of range")
        return float(edges[state]), float(edges[state + 1])

    def state_midpoint(self, state: int) -> float:
        """``(R_i1 + R_i2) / 2`` — the paper's predicted value."""
        low, high = self.state_bounds(state)
        return 0.5 * (low + high)

    # -- transitions ---------------------------------------------------------
    def state_marginal(self) -> np.ndarray:
        """Empirical state-occupancy distribution of the stored series."""
        _, states = self._fitted()
        return np.bincount(states, minlength=self.n_states) / states.size

    def transition_matrix(self, k: int = 1, empty_rows: str = "identity") -> np.ndarray:
        """The k-step transition probability matrix (Eq. 2).

        ``P[i, j]`` estimates the probability of moving from state ``i``
        to state ``j`` in ``k`` steps, counted directly from the stored
        series at lag ``k``.  Rows without observed departures have no
        data; ``empty_rows`` picks the fallback:

        * ``"identity"`` — stay in place (conservative point forecasts);
        * ``"marginal"`` — the empirical state-occupancy distribution
          (used for risk-aware pool sizing, where "no idea where this
          state leads" should mean "anything the series has done", not
          "stuck here forever").
        """
        if k < 1:
            raise ValueError(f"step k must be >= 1, got {k}")
        if empty_rows not in ("identity", "marginal"):
            raise ValueError(f"unknown empty_rows policy {empty_rows!r}")
        _, states = self._fitted()
        n = self.n_states
        pairs = states[:-k] * n + states[k:]
        matrix = np.bincount(pairs, minlength=n * n).reshape(n, n).astype(float)
        empty = matrix.sum(axis=1) == 0
        if empty.any():
            if empty_rows == "identity":
                matrix[empty, :] = np.eye(n)[empty]
            else:
                matrix[empty, :] = self.state_marginal()
        return matrix / matrix.sum(axis=1, keepdims=True)

    def predict_next_state(self, current_value: float, k: int = 1) -> int:
        """Most probable state ``k`` steps after ``current_value``.

        Ties resolve to the lowest state index (deterministic).
        """
        matrix = self.transition_matrix(k)
        row = matrix[self.state_of(current_value)]
        return int(np.argmax(row))

    def predict(self, current_value: float, k: int = 1) -> float:
        """Predicted value: midpoint of the most probable next state."""
        return self.state_midpoint(self.predict_next_state(current_value, k))
