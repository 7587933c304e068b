"""Differential test: the batched predictor bank against the spec.

:class:`AdaptivePoolController` keeps every key's ES + Markov state in
one structure-of-arrays bank and advances all keys in one batched
``observe``.  :class:`CombinedPredictor` is its executable spec: one
default instance per key, with the same ``min_history``, must give the
same forecast, targets and donor headroom — compared with ``==``, no
tolerance — after every tick of a long random stream.
"""

import math
import random
from dataclasses import dataclass

import pytest

from repro.core import AdaptivePoolController, CombinedPredictor
from repro.core.predictor import controller as bank_module

#: ``min_history`` that keeps the Markov correction from ever engaging
#: (what ``HotCConfig(markov_correction=False)`` passes).
ES_ONLY = 10**9


@dataclass(frozen=True)
class _Params:
    """One predictor configuration; the defaults are the controller's."""

    min_history: int = 6
    max_target: int = 500

    def controller(self) -> AdaptivePoolController:
        return AdaptivePoolController(
            min_history=self.min_history, max_target=self.max_target
        )

    def predictor(self) -> CombinedPredictor:
        return CombinedPredictor(min_history=self.min_history)


def _clamped(value, max_target):
    """The controller's target rule applied to a spec forecast."""
    return int(min(max_target, max(0, math.ceil(value - 1e-9))))


class _Oracle:
    """One spec predictor per key plus its expected outputs."""

    def __init__(self, params: _Params) -> None:
        self.params = params
        self.predictors = {}
        #: key -> (forecast, target, target_upper) after its last update.
        self.expected = {}

    def update(self, key, demand):
        predictor = self.predictors.get(key)
        if predictor is None:
            predictor = self.predictors[key] = self.params.predictor()
        forecast = predictor.update(float(demand))
        upper = predictor.forecast_upper(
            quantile=bank_module.QUANTILE, horizon=bank_module.HORIZON
        )
        cap = self.params.max_target
        self.expected[key] = (forecast, _clamped(forecast, cap), _clamped(upper, cap))
        return forecast


def _demand_stream(rng: random.Random, ticks: int, n_keys: int, presence: float):
    """Per tick, a shuffled random subset of keys with their demands.

    Keys first appear mid-stream, and each started key is observed with
    probability ``presence``.  The shapes cover Poisson-like noise,
    recurring bursts, a constant series (the residual range collapses
    to hi == lo), fractional demand, and a burst decaying into a long
    zero-demand tail.
    """
    kinds = ("noise", "burst", "constant", "fractional", "tail")
    starts = [0] + [rng.randrange(ticks // 2) for _ in range(n_keys - 1)]
    for tick in range(ticks):
        batch = []
        for key in range(n_keys):
            age = tick - starts[key]
            if age < 0 or rng.random() >= presence:
                continue
            kind = kinds[key % len(kinds)]
            if kind == "noise":
                demand = rng.choice((0, 1, 2, 2, 3, 5, 8))
            elif kind == "burst":
                demand = 40 if age % (4 + key % 3) == 0 else rng.randrange(3)
            elif kind == "constant":
                demand = 3
            elif kind == "fractional":
                demand = round(rng.uniform(0.0, 12.0), rng.randrange(4))
            else:
                demand = rng.randrange(30) if age < 40 else 0
            batch.append((f"k{key}", demand))
        rng.shuffle(batch)
        yield batch


def _drive(
    params: _Params, ticks: int, n_keys: int, seed: int, presence: float = 0.9
) -> None:
    rng = random.Random(seed)
    bank = params.controller()
    oracle = _Oracle(params)
    for tick, batch in enumerate(_demand_stream(rng, ticks, n_keys, presence)):
        forecasts = bank.observe(
            [key for key, _ in batch], [demand for _, demand in batch]
        )
        for (key, demand), forecast in zip(batch, forecasts):
            assert forecast == oracle.update(key, demand), (tick, key)
        for key, (forecast, target, upper) in oracle.expected.items():
            assert bank.forecast(key) == forecast, (tick, key)
            assert bank.target(key) == target, (tick, key)
            assert bank.target_upper(key) == upper, (tick, key)
            total = rng.randrange(12)
            assert bank.donation_headroom(key, total) == max(
                0, total - max(target, upper)
            ), (tick, key)
    assert bank.known_keys() == tuple(oracle.predictors)


@pytest.mark.parametrize("markov_correction", [True, False])
def test_bank_matches_spec_across_configs(markov_correction):
    """The default bank and the ES-only one (``HotCConfig``'s two)."""
    params = _Params(min_history=6 if markov_correction else ES_ONLY)
    _drive(params, ticks=250, n_keys=5, seed=4512 + markov_correction)


def test_bank_matches_spec_over_ten_thousand_ticks():
    """Long enough for the default 512 window to evict and rebuild
    (every key is observed ~3,000 times)."""
    _drive(_Params(), ticks=10_000, n_keys=5, seed=11, presence=0.3)


def test_bank_matches_spec_under_a_low_cap():
    """Both targets clamp at ``max_target`` (the burst keys reach 40)."""
    _drive(_Params(max_target=20), ticks=300, n_keys=5, seed=4)


class TestBoundedHistory:
    def test_history_length_stays_flat(self):
        """The bank keeps only the residual window: its window arrays
        stop growing at ``WINDOW`` columns however long the run."""
        window = bank_module.WINDOW
        bank = AdaptivePoolController()
        widths = set()
        for tick in range(2_000):
            bank.observe(["a", "b"], [tick % 7, 3])
            widths.update(
                getattr(bank, name).shape[1] for name in bank_module._WINDOW_ARRAYS
            )
        assert max(widths) == window
        assert bank_module._WINDOW_ARRAYS == ("_values", "_states")


class TestObserveValidation:
    def test_rejects_bad_batches(self):
        bank = AdaptivePoolController()
        with pytest.raises(ValueError):
            bank.observe(["a", "a"], [1, 2])
        with pytest.raises(ValueError):
            bank.observe(["a"], [1, 2])
        with pytest.raises(ValueError):
            bank.observe(["a"], [float("nan")])
        with pytest.raises(ValueError):
            bank.observe(["a"], [-1])
        # The rejected batches recorded nothing.
        assert bank.known_keys() == ()
        assert bank.observe([], []) == []

    @pytest.mark.parametrize("kwargs", [{"min_history": 1}, {"max_target": -1}])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            AdaptivePoolController(**kwargs)
