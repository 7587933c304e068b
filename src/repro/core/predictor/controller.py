"""Per-key demand tracking and pool-size targets.

The controller is the glue between raw observations ("how many
containers of type *k* were needed this interval") and actionable
targets ("keep *n* warm containers of type *k*").  HotC's middleware
calls :meth:`AdaptivePoolController.observe` once per control interval
with every key's demand and reads :meth:`~AdaptivePoolController.target`
/ :meth:`~AdaptivePoolController.target_upper` when resizing the pool.

The controller is a structure-of-arrays *bank* with one row per key:
ES level and count, the last corrected forecast, the residual window
(values plus ``int8`` region states) with its bin edges and range,
per-lag transition counts of shape ``(K, HORIZON, N_STATES,
N_STATES)`` and state occupancy.  It keeps no demand or forecast
history: each ``CONTROL_TICK`` event carries the tick's demand and the
previous forecast, and the run report's accuracy table reads those.  One
:meth:`observe` call advances every row in a handful of numpy passes —
the ES update (Eq. 1), the Markov append with incremental lag counts, a
batched rebuild for rows whose residual range changed, the 1-step
Markov correction (Eq. 2) and the risk-aware upper forecast — and
caches both targets, so the per-key queries are O(1) reads.

:class:`~repro.core.predictor.combined.CombinedPredictor` stays the
executable spec: a bank row reproduces one default
``CombinedPredictor`` with the same ``min_history`` (fed the same
series) bit for bit, which ``tests/core/test_predictor_bank.py``
checks on every tick.  DESIGN.md §5c explains why the batched
arithmetic is exactly the scalar arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.predictor.exponential import _INIT_WINDOW
from repro.core.predictor.markov import DEFAULT_WINDOW

__all__ = ["AdaptivePoolController"]

#: Eq. 1 smoothing factor (the paper's choice).  The level starts as
#: the running mean of the first ``_INIT_WINDOW`` (5) observations, the
#: spec's ``init="auto"``.
ALPHA = 0.8
#: Regions the residual range is split into (Eq. 2's Markov states).
N_STATES = 4
#: Residuals each key keeps.
WINDOW = DEFAULT_WINDOW
#: :meth:`AdaptivePoolController.target_upper` provisions for the
#: ``QUANTILE`` of demand over the next ``HORIZON`` intervals.
QUANTILE = 0.9
HORIZON = 4

#: Initial row capacity (keys); doubles as keys arrive.
_INITIAL_ROWS = 16
#: Initial column capacity of the windows; doubles with the longest
#: retained series, up to ``WINDOW``.
_INITIAL_COLS = 8

#: Per-row arrays grown together when keys arrive.
_ROW_ARRAYS = (
    "_count", "_level", "_forecast", "_target", "_upper", "_lo", "_hi",
    "_edges", "_occupancy", "_counts",
)
#: Per-row, per-observation windows (column ``t % cols`` holds step t).
_WINDOW_ARRAYS = ("_values", "_states")


def _grown(array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``array`` zero-padded to ``shape``."""
    grown = np.zeros(shape, dtype=array.dtype)
    grown[tuple(slice(0, size) for size in array.shape)] = array
    return grown


class AdaptivePoolController:
    """ES + Markov demand predictor bank, one row per runtime key.

    Each row is a default :class:`CombinedPredictor` (the module
    constants; the forecast is clamped at 0) built with:

    min_history:
        Observations before the Markov correction engages.
    max_target:
        Upper clamp on any per-key target (safety net, mirrors the
        pool-wide 500-container cap).
    """

    def __init__(self, min_history: int = 6, max_target: int = 500) -> None:
        if min_history < 2:
            raise ValueError("min_history must be >= 2")
        if max_target < 0:
            raise ValueError("max_target must be >= 0")
        self.min_history = min_history
        self.max_target = max_target
        self._rows: Dict[object, int] = {}
        rows = _INITIAL_ROWS
        cols = self._cols = _INITIAL_COLS
        # -- ES (Eq. 1) and the cached outputs ------------------------------
        self._count = np.zeros(rows, dtype=np.int64)
        self._level = np.zeros(rows)
        self._forecast = np.zeros(rows)
        self._target = np.zeros(rows, dtype=np.int64)
        self._upper = np.zeros(rows, dtype=np.int64)
        # -- residual Markov chain (Eq. 2) -----------------------------------
        self._lo = np.zeros(rows)
        self._hi = np.zeros(rows)
        self._edges = np.zeros((rows, N_STATES + 1))
        self._occupancy = np.zeros((rows, N_STATES), dtype=np.int64)
        self._counts = np.zeros((rows, HORIZON, N_STATES, N_STATES), dtype=np.int64)
        # -- windows, indexed by observation step modulo ``_cols`` -----------
        self._values = np.zeros((rows, cols))
        self._states = np.zeros((rows, cols), dtype=np.int8)

    # -- observation ------------------------------------------------------
    def observe(self, keys: Sequence, demands: Sequence[float]) -> List[float]:
        """Record one interval's demand for each key; returns the forecasts.

        ``keys`` must be distinct; ``demands[i]`` belongs to ``keys[i]``
        and the returned list is aligned the same way.  Keys seen for the
        first time get a fresh row.
        """
        x = np.asarray(demands, dtype=float)
        if x.shape != (len(keys),):
            raise ValueError("keys and demands must have the same length")
        if not x.size:
            return []
        if not np.isfinite(x).all():
            raise ValueError("demand must be finite")
        if (x < 0).any():
            raise ValueError(f"demand must be >= 0, got {x.min()}")
        if len(set(keys)) != len(keys):
            raise ValueError("keys must be distinct")
        r = self._rows_for(keys)
        t = self._count[r]
        self._fit_columns(int(t.max()))
        col = t % self._cols

        # Eq. 1; the mean-based init averages the first observations.
        prev = self._level[r]
        n_obs = t + 1
        level = ALPHA * x + (1 - ALPHA) * prev
        warm = n_obs <= _INIT_WINDOW
        if warm.any():
            level = np.where(warm, prev + (x - prev) / n_obs, level)
        level = np.where(t == 0, x, level)

        # The residual of the previous trend forecast feeds the chain.
        later = t >= 1
        if later.any():
            self._append_residuals(r[later], t[later], x[later] - prev[later])
        residuals = np.minimum(t, WINDOW)
        engaged = (n_obs >= self.min_history) & (residuals >= 2)

        forecast = level
        upper = None
        if engaged.any():
            er = r[engaged]
            state = self._states[er, col[engaged]].astype(np.intp)
            edges = self._edges[er]
            midpoints = 0.5 * (edges[:, :-1] + edges[:, 1:])
            trend = level[engaged]
            lag1 = self._counts[er, 0, state]
            # Most probable next state; a state with no departures stays.
            nxt = np.where(lag1.any(axis=1), lag1.argmax(axis=1), state)
            forecast = level.copy()
            forecast[engaged] = trend + midpoints[np.arange(er.size), nxt]
        forecast = np.where(forecast > 0.0, forecast, 0.0)
        if engaged.any():
            upper = forecast.copy()
            upper[engaged] = self._forecast_upper(
                er, state, midpoints, trend, forecast[engaged]
            )

        self._count[r] = n_obs
        self._level[r] = level
        self._forecast[r] = forecast
        self._target[r] = self._clamp(forecast)
        self._upper[r] = self._target[r] if upper is None else self._clamp(upper)
        return forecast.tolist()

    def _rows_for(self, keys: Sequence) -> np.ndarray:
        """Row index of each key, appending rows for new keys."""
        index = self._rows
        rows = []
        for key in keys:
            row = index.get(key)
            if row is None:
                row = index[key] = len(index)
            rows.append(row)
        capacity = self._count.shape[0]
        if len(index) > capacity:
            while capacity < len(index):
                capacity *= 2
            for name in _ROW_ARRAYS + _WINDOW_ARRAYS:
                array = getattr(self, name)
                setattr(self, name, _grown(array, (capacity,) + array.shape[1:]))
        return np.array(rows, dtype=np.intp)

    def _fit_columns(self, step: int) -> None:
        """Make room for observation ``step`` in the windows.

        Columns double with the longest retained series, up to
        ``WINDOW``; once a row has filled the window, step ``t``
        overwrites step ``t - WINDOW`` in column ``t % WINDOW``.
        """
        cols = self._cols
        if step < cols or cols == WINDOW:
            return
        while cols <= step:
            cols *= 2
        cols = self._cols = min(cols, WINDOW)
        for name in _WINDOW_ARRAYS:
            array = getattr(self, name)
            setattr(self, name, _grown(array, (array.shape[0], cols)))

    def _append_residuals(self, r: np.ndarray, t: np.ndarray, v: np.ndarray) -> None:
        """:meth:`MarkovChain.update` for rows ``r``: residual ``v`` of step ``t``."""
        cols = self._cols
        counts = self._counts
        states = self._states
        length = np.minimum(t - 1, WINDOW)
        # Rows without bin edges yet rebuild as soon as they have two.
        dirty = length < 2
        full = length == WINDOW
        if full.any():
            fr, ft = r[full], t[full]
            head = (ft - WINDOW) % cols
            first = states[fr, head]
            for k in range(1, min(HORIZON, WINDOW - 1) + 1):
                counts[fr, k - 1, first, states[fr, (head + k) % cols]] -= 1
            self._occupancy[fr, first] -= 1
            evicted = self._values[fr, head]
            # An extreme left the window: the bins must be rebuilt.
            dirty[full] = (evicted == self._lo[fr]) | (evicted == self._hi[fr])
            length = length - full
        col = t % cols
        self._values[r, col] = v
        length = length + 1
        ready = length >= 2
        rebuild = ready & (dirty | (v < self._lo[r]) | (v > self._hi[r]))
        if rebuild.any():
            self._rebuild(r[rebuild], t[rebuild], length[rebuild])
        step = ready & ~rebuild
        if step.any():
            sr, st, sl = r[step], t[step], length[step]
            state = self._bin(self._edges[sr], v[step])
            for k in range(1, HORIZON + 1):
                has = sl > k
                if has.any():
                    counts[sr[has], k - 1, states[sr[has], (st[has] - k) % cols], state[has]] += 1
            states[sr, st % cols] = state
            self._occupancy[sr, state] += 1

    def _rebuild(self, r: np.ndarray, t: np.ndarray, length: np.ndarray) -> None:
        """Refit rows ``r`` from their windows (ending at step ``t``): bin
        edges over the range, every state, occupancy and lag counts, as
        a :class:`MarkovChain` derives them from its window."""
        n = N_STATES
        span = np.arange(int(length.max()))
        valid = span < length[:, None]
        cols = ((t - length + 1)[:, None] + span) % self._cols
        values = self._values[r[:, None], cols]
        lo = np.where(valid, values, np.inf).min(axis=1)
        hi = np.where(valid, values, -np.inf).max(axis=1)
        # Degenerate constant series: one unit-wide range above the value.
        edges = np.linspace(lo, np.where(hi == lo, lo + 1.0, hi), n + 1, axis=-1)
        states = self._bin(edges[:, None, :], values)
        self._lo[r] = lo
        self._hi[r] = hi
        self._edges[r] = edges
        owner = np.broadcast_to(np.arange(r.size)[:, None], values.shape)
        self._states[r[owner[valid]], cols[valid]] = states[valid]
        cells = owner * n + states
        self._occupancy[r] = np.bincount(
            cells[valid], minlength=r.size * n
        ).reshape(r.size, n)
        for k in range(1, HORIZON + 1):
            pairs = cells[:, :-k] * n + states[:, k:]
            self._counts[r, k - 1] = np.bincount(
                pairs[valid[:, k:]], minlength=r.size * n * n
            ).reshape(r.size, n, n)

    def _bin(self, edges: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Region state of each value: ``searchsorted(edges, v, "right") - 1``
        (the count of edges <= v, minus one), clipped to the states."""
        below = (values[..., None] >= edges).sum(axis=-1)
        return np.clip(below - 1, 0, N_STATES - 1)

    def _forecast_upper(
        self,
        r: np.ndarray,
        state: np.ndarray,
        midpoints: np.ndarray,
        trend: np.ndarray,
        point: np.ndarray,
    ) -> np.ndarray:
        """:meth:`CombinedPredictor.forecast_upper` for engaged rows ``r``."""
        n = N_STATES
        rows = np.arange(r.size)
        order = np.argsort(midpoints, axis=1)
        threshold = QUANTILE - 1e-12
        marginal = None
        best = point
        for k in range(HORIZON):
            row = self._counts[r, k, state].astype(float)
            sums = row.sum(axis=1)
            empty = sums == 0
            if empty.any():
                # No departures at this lag: anything the series has done.
                if marginal is None:
                    occupancy = self._occupancy[r]
                    marginal = occupancy / occupancy.sum(axis=1, keepdims=True)
                row[empty] = marginal[empty]
                sums = row.sum(axis=1)
            cumulative = np.cumsum(
                (row / sums[:, None])[rows[:, None], order], axis=1
            )
            hit = cumulative >= threshold
            first = np.where(hit.any(axis=1), hit.argmax(axis=1), n - 1)
            candidate = trend + midpoints[rows, order[rows, first]]
            candidate = np.where(candidate > 0.0, candidate, 0.0)
            best = np.where(candidate > best, candidate, best)
        return np.where(point > best, point, best)

    def _clamp(self, forecast: np.ndarray) -> np.ndarray:
        """Rounded-up forecasts clamped to ``[0, max_target]``."""
        return np.clip(np.ceil(forecast - 1e-9), 0, self.max_target).astype(np.int64)

    # -- queries ----------------------------------------------------------
    def forecast(self, key) -> Optional[float]:
        """The latest forecast for ``key`` (None if never observed)."""
        row = self._rows.get(key)
        return None if row is None else self._forecast.item(row)

    def target(self, key) -> int:
        """Warm-container target for ``key``: the rounded-up forecast."""
        row = self._rows.get(key)
        return 0 if row is None else self._target.item(row)

    def target_upper(self, key) -> int:
        """Risk-aware target from the k-step upper-quantile forecast.

        Never below :meth:`target`: the upper forecast is clamped to the
        point forecast (and falls back to it while the key's residual
        chain has no data), so the risk-aware target can only add
        capacity.  This is the target HotC's pool resizing uses: it
        keeps capacity provisioned across recurring bursts (Fig 14b).
        """
        row = self._rows.get(key)
        return 0 if row is None else self._upper.item(row)

    def donation_headroom(self, key, total: int) -> int:
        """How many of ``total`` pooled containers ``key`` can donate.

        The repurposing donor policy: a key may give up idle containers
        only down to the *larger* of its point-forecast and risk-aware
        targets — donate the slack the forecast says will not be
        missed.  A key the controller has never observed has no
        forecast demand, so its containers are fully donatable (they
        exist only because a request left them behind).
        """
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        return max(0, total - max(self.target(key), self.target_upper(key)))

    def known_keys(self) -> Tuple:
        """All keys that have been observed, insertion-ordered."""
        return tuple(self._rows)
