"""Unit tests for the run report (accuracy table + bundle writer)."""

import json

import pytest

from repro.core.predictor.controller import AdaptivePoolController
from repro.obs import (
    EventKind,
    Observatory,
    format_accuracy_table,
    prediction_accuracy_table,
    write_run_report,
)


def fed_controller(values, key="k"):
    controller = AdaptivePoolController()
    for value in values:
        controller.observe([key], [value])
    return controller


class TestAccuracyTable:
    def test_empty_controller(self):
        assert prediction_accuracy_table(AdaptivePoolController()) == []

    def test_single_observation_has_no_pairs(self):
        rows = prediction_accuracy_table(fed_controller([4.0]))
        assert rows[0]["pairs"] == 0
        assert rows[0]["mae"] is None

    def test_pairs_align_forecast_with_next_observation(self):
        """forecast_history[i] predicts history[i+1]: with [4, 6] the
        only pair is (actual 6, forecast 4) — MAE 2, sMAPE 2/10."""
        rows = prediction_accuracy_table(fed_controller([4.0, 6.0]))
        (row,) = rows
        assert row["observations"] == 2
        assert row["pairs"] == 1
        assert row["mae"] == pytest.approx(2.0)
        assert row["smape"] == pytest.approx(0.2)

    def test_rolling_window_restricts_tail(self):
        # 30 noisy points then 60 constant: the full-series MAE is
        # polluted by the noise, the rolling window (last 50) less so.
        values = [float(10 + (i % 7)) for i in range(30)] + [5.0] * 60
        rows = prediction_accuracy_table(fed_controller(values), window=50)
        (row,) = rows
        assert row["rolling_mae"] <= row["mae"]

    def test_format_is_stable_text(self):
        rows = prediction_accuracy_table(fed_controller([5.0] * 4))
        text = format_accuracy_table(rows)
        assert "MAE" in text and "k" in text
        assert format_accuracy_table([]) == "(no keys observed)\n"


class TestWriteRunReport:
    def test_bundle_files_written(self, tmp_path):
        obs = Observatory()
        obs.emit(EventKind.POOL_HIT, t=1.0, host="h", key="k")
        obs.counter("c", host="h").inc()
        paths = write_run_report(
            tmp_path, obs, controller=fed_controller([5.0] * 6)
        )
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
        assert summary["events_total"] == 1
        assert summary["events_by_kind"] == {"pool_hit": 1}
        accuracy = json.loads((tmp_path / "accuracy.json").read_text())
        assert accuracy[0]["key"] == "k"
