"""Unit tests for the run report (accuracy table + bundle writer)."""

import json

import pytest

from repro.containers import Registry, make_base_image
from repro.core import CombinedPredictor, HotC, HotCConfig
from repro.core.predictor.controller import AdaptivePoolController
from repro.faas import FaasPlatform, FunctionSpec
from repro.metrics.errors import (
    mean_absolute_error,
    symmetric_mean_absolute_percentage_error,
)
from repro.obs import (
    EventKind,
    Observatory,
    format_accuracy_table,
    prediction_accuracy_table,
    write_run_report,
)
from repro.obs import events as events_module


def ticked(values, key="k", obs=None):
    """An observatory holding one ``CONTROL_TICK`` per value, emitted
    the way HotC's control tick does from a real predictor bank."""
    obs = Observatory() if obs is None else obs
    bank = AdaptivePoolController()
    for t, value in enumerate(values):
        prev_forecast = bank.forecast(key)
        (forecast,) = bank.observe([key], [value])
        data = {"demand": value, "forecast": forecast}
        if prev_forecast is not None:
            data["prev_forecast"] = prev_forecast
        obs.emit(EventKind.CONTROL_TICK, t=float(t), host="h", key=key, **data)
    return obs


class TestAccuracyTable:
    def test_empty_controller(self):
        """No control tick in the log (no control loop ran): no rows."""
        obs = Observatory()
        obs.emit(EventKind.POOL_HIT, t=1.0, host="h", key="k")
        assert prediction_accuracy_table(obs.events) == []

    def test_single_observation_has_no_pairs(self):
        rows = prediction_accuracy_table(ticked([4.0]).events)
        assert rows[0]["pairs"] == 0
        assert rows[0]["mae"] is None

    def test_pairs_align_forecast_with_next_observation(self):
        """The forecast after tick i predicts tick i+1: with [4, 6] the
        only pair is (actual 6, forecast 4) — MAE 2, sMAPE 2/10."""
        rows = prediction_accuracy_table(ticked([4.0, 6.0]).events)
        (row,) = rows
        assert row["observations"] == 2
        assert row["pairs"] == 1
        assert row["mae"] == pytest.approx(2.0)
        assert row["smape"] == pytest.approx(0.2)

    def test_rolling_window_restricts_tail(self):
        # 30 noisy points then 60 constant: the full-series MAE is
        # polluted by the noise, the rolling window (last 50) less so.
        values = [float(10 + (i % 7)) for i in range(30)] + [5.0] * 60
        rows = prediction_accuracy_table(ticked(values).events, window=50)
        (row,) = rows
        assert row["rolling_mae"] <= row["mae"]

    def test_format_is_stable_text(self):
        rows = prediction_accuracy_table(ticked([5.0] * 4).events)
        text = format_accuracy_table(rows)
        assert "MAE" in text and "k" in text
        assert format_accuracy_table([]) == "(no keys observed)\n"

    def test_rows_in_first_tick_order(self):
        obs = ticked([1.0, 2.0], key="late")
        ticked([3.0, 4.0, 5.0], key="early", obs=obs)
        rows = prediction_accuracy_table(obs.events)
        assert [(r["key"], r["observations"]) for r in rows] == [
            ("late", 2),
            ("early", 3),
        ]


def _run_hotc(ticks):
    """One-host HotC with an observatory, ticked by hand under scripted
    demand; ``go-fn``'s key is first seen a third of the way in."""
    registry = Registry(
        [
            make_base_image("python", "3.6", size_mb=330, language="python"),
            make_base_image("golang", "1.11", size_mb=310, language="go"),
        ]
    )
    platform = FaasPlatform(
        registry,
        seed=0,
        jitter_sigma=0.0,
        provider_factory=lambda engine: HotC(
            engine, HotCConfig(control_interval_ms=0)
        ),
    )
    platform.sim.obs = Observatory()
    python = FunctionSpec(name="py-fn", image="python:3.6", exec_ms=20.0)
    go = FunctionSpec(name="go-fn", image="golang:1.11", language="go", exec_ms=20.0)
    platform.deploy(python)
    platform.deploy(go)
    for tick in range(ticks):
        for _ in range((2, 3, 1, 6, 0, 0, 4)[tick % 7]):
            platform.submit(python.name)
        if tick >= ticks // 3:
            for _ in range(tick % 4):
                platform.submit(go.name)
        platform.run()
        platform.provider.control_tick()
    platform.run()
    platform.shutdown()
    return platform.sim.obs


class TestAccuracyMatchesSpec:
    def test_whole_run_past_the_window(self):
        """Past the bank's 512-residual window the table still covers
        every tick, and each key's errors are those of the spec fed the
        same demands: ``(demand[i+1], forecast[i])`` over the run."""
        ticks = 560
        obs = _run_hotc(ticks)
        assert obs.events.dropped == 0
        demands = {}
        for event in obs.events:
            if event.kind is EventKind.CONTROL_TICK:
                demands.setdefault(event.key, []).append(dict(event.data)["demand"])
        assert len(demands) == 2
        rows = prediction_accuracy_table(obs.events)
        assert [row["key"] for row in rows] == list(demands)
        for row in rows:
            series = demands[row["key"]]
            forecasts = CombinedPredictor().fit_series(series)
            actual, predicted = series[1:], forecasts[:-1]
            assert row["observations"] == len(series)
            assert row["pairs"] == len(actual)
            assert row["mae"] == mean_absolute_error(actual, predicted)
            assert row["smape"] == symmetric_mean_absolute_percentage_error(
                actual, predicted
            )
        assert [row["observations"] for row in rows] == [ticks, ticks - ticks // 3]


class TestWriteRunReport:
    def test_bundle_files_written(self, tmp_path):
        obs = ticked([5.0] * 6)
        obs.emit(EventKind.POOL_HIT, t=1.0, host="h", key="k")
        obs.counter("c", host="h").inc()
        paths = write_run_report(tmp_path, obs)
        for name in (
            "metrics.prom",
            "events.jsonl",
            "accuracy.txt",
            "accuracy.json",
            "summary.json",
        ):
            assert name in paths
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["events_total"] == 7
        assert summary["events_by_kind"] == {"control_tick": 6, "pool_hit": 1}
        accuracy = json.loads((tmp_path / "accuracy.json").read_text())
        assert accuracy[0]["key"] == "k"
        assert (tmp_path / "accuracy.txt").read_text().startswith("key")

    def test_no_control_tick_no_accuracy(self, tmp_path):
        obs = Observatory()
        obs.emit(EventKind.POOL_HIT, t=1.0, host="h", key="k")
        paths = write_run_report(tmp_path, obs)
        assert "accuracy.txt" not in paths
        assert not (tmp_path / "accuracy.json").exists()

    def test_dropped_events_flag_a_partial_table(self, tmp_path, monkeypatch):
        monkeypatch.setattr(events_module, "EVENT_CAPACITY", 5)
        obs = ticked([float(v % 3) for v in range(8)])
        assert obs.events.dropped == 3
        write_run_report(tmp_path, obs)
        first, second = (tmp_path / "accuracy.txt").read_text().splitlines()[:2]
        assert first == (
            "partial: 3 events dropped; ticks before the first retained "
            "event are not counted"
        )
        assert second.startswith("key")
        (row,) = json.loads((tmp_path / "accuracy.json").read_text())
        # The oldest retained tick still carries its previous forecast.
        assert (row["observations"], row["pairs"]) == (5, 5)
