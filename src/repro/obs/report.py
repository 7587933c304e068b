"""Run reports: one call dumps every exporter plus prediction accuracy.

:func:`write_run_report` is the single entry point experiments and
``python -m repro report`` use after a simulation finishes.  It
writes into an output directory:

* ``metrics.prom`` — Prometheus text exposition of the registry,
* ``events.jsonl`` — the typed event log,
* ``snapshots.jsonl`` — the snapshotter's time series (when one ran),
* ``trace.json`` — Chrome trace-event JSON (Perfetto-loadable),
* ``accuracy.txt`` / ``accuracy.json`` — the per-key forecast-accuracy
  table (MAE / sMAPE of the ES+Markov predictor over every control
  tick the event log retains, and over a shorter rolling tail),
* ``summary.json`` — headline numbers (request counts by outcome,
  latency mean/p99 from the obs histograms, event totals).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.events import EventKind, ObsEvent, Observatory
from repro.obs.exporters import Snapshotter, chrome_trace

__all__ = ["prediction_accuracy_table", "format_accuracy_table", "write_run_report"]


def prediction_accuracy_table(
    events: Iterable[ObsEvent],
    window: int = 50,
) -> List[Dict[str, object]]:
    """Per-key forecast accuracy of the control loop, from its events.

    Each ``CONTROL_TICK`` event is one observation of its key; one that
    carries ``prev_forecast`` (every tick but the key's first) is the
    pair ``(demand, prev_forecast)``: the forecast the previous tick
    made for this tick's demand.  The ``mae``/``smape`` columns cover
    every tick ``events`` holds, so on a log that dropped events they
    start at the first retained tick.  The rolling values cover the
    last ``window`` pairs (the number the control loop is currently
    living with).  Rows come in first-tick order; keys with a single
    tick have no pairs and report ``None``.
    """
    # Imported lazily: repro.metrics pulls in the container engine (for
    # ResourceMonitor), which itself imports repro.obs for its hooks.
    from repro.metrics.errors import (
        mean_absolute_error,
        symmetric_mean_absolute_percentage_error,
    )

    if window < 1:
        raise ValueError("window must be >= 1")
    ticks: Dict[str, int] = {}
    pairs: Dict[str, Tuple[List[float], List[float]]] = {}
    for event in events:
        if event.kind is not EventKind.CONTROL_TICK:
            continue
        ticks[event.key] = ticks.get(event.key, 0) + 1
        actual, predicted = pairs.setdefault(event.key, ([], []))
        data = dict(event.data)
        if "prev_forecast" in data:
            actual.append(data["demand"])
            predicted.append(data["prev_forecast"])
    rows: List[Dict[str, object]] = []
    for key, observations in ticks.items():
        actual, predicted = pairs[key]
        row: Dict[str, object] = {
            "key": key,
            "observations": observations,
            "pairs": len(actual),
            "mae": None,
            "smape": None,
            "rolling_mae": None,
            "rolling_smape": None,
        }
        if actual:
            row["mae"] = mean_absolute_error(actual, predicted)
            row["smape"] = symmetric_mean_absolute_percentage_error(
                actual, predicted
            )
            tail_a = actual[-window:]
            tail_p = predicted[-window:]
            row["rolling_mae"] = mean_absolute_error(tail_a, tail_p)
            row["rolling_smape"] = symmetric_mean_absolute_percentage_error(
                tail_a, tail_p
            )
        rows.append(row)
    return rows


_ACCURACY_COLUMNS = (
    ("key", "key"),
    ("observations", "obs"),
    ("pairs", "pairs"),
    ("mae", "MAE"),
    ("smape", "sMAPE"),
    ("rolling_mae", "MAE(last)"),
    ("rolling_smape", "sMAPE(last)"),
)


def format_accuracy_table(rows: Sequence[Dict[str, object]]) -> str:
    """Fixed-width text rendering of the accuracy table."""
    if not rows:
        return "(no keys observed)\n"

    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    table = [[header for _, header in _ACCURACY_COLUMNS]]
    for row in rows:
        table.append([cell(row[field]) for field, _ in _ACCURACY_COLUMNS])
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _summary(observatory: Observatory, traces) -> Dict[str, object]:
    summary: Dict[str, object] = {
        "events_total": observatory.events.total_appended,
        "events_dropped": observatory.events.dropped,
        "events_by_kind": observatory.events.counts_by_kind(),
    }
    if traces is not None:
        summary["requests"] = len(traces)
        outcome_counts = getattr(traces, "outcome_counts", None)
        if callable(outcome_counts):
            summary["outcomes"] = {
                k.value if hasattr(k, "value") else str(k): v
                for k, v in outcome_counts().items()
            }
        # Imported lazily: the metrics package pulls in the engine,
        # which (through the obs package) would close an import cycle.
        from repro.metrics.report import reuse_depth_histogram

        depths = reuse_depth_histogram(traces)
        if depths:
            summary["reuse_depth"] = depths
    latency: Dict[str, object] = {}
    for histogram in observatory.registry.histograms():
        if histogram.name != "request_latency_ms" or histogram.count == 0:
            continue
        label = ",".join(f"{k}={v}" for k, v in histogram.labels) or "all"
        entry = {
            "count": histogram.count,
            "mean_ms": histogram.sum / histogram.count,
            "p50_ms": histogram.quantile(0.5),
            "p99_ms": histogram.quantile(0.99),
            "p999_ms": histogram.quantile(0.999),
            "overflow": histogram.overflow_count,
        }
        # Quantiles landing among overflow observations have no finite
        # bucket (they surface as inf); name them so report consumers
        # see the unresolved tail instead of a silently clamped value.
        unresolved = [
            name
            for name, q in (("p50_ms", 0.5), ("p99_ms", 0.99), ("p999_ms", 0.999))
            if not histogram.quantile_resolvable(q)
        ]
        if unresolved:
            entry["unresolved_quantiles"] = unresolved
        latency[label] = entry
    if latency:
        summary["request_latency_ms"] = latency
    return summary


def write_run_report(
    out_dir: str,
    observatory: Observatory,
    traces=None,
    snapshotter: Optional[Snapshotter] = None,
    accuracy_window: int = 50,
) -> Dict[str, str]:
    """Write every report artifact into ``out_dir``; returns name→path.

    ``traces`` (a :class:`TraceCollector`) enables the Chrome trace and
    outcome summary; ``snapshotter`` enables the snapshot series; the
    accuracy table is written when the event log holds a control tick.
    Missing inputs simply skip their artifact.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: Dict[str, str] = {}

    def emit(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        written[name] = path

    emit("metrics.prom", observatory.registry.to_prometheus())
    emit("events.jsonl", observatory.events.to_jsonl())
    if snapshotter is not None:
        emit("snapshots.jsonl", snapshotter.to_jsonl())
    if traces is not None:
        document = chrome_trace(traces, events=observatory.events)
        emit("trace.json", json.dumps(document) + "\n")
    rows = prediction_accuracy_table(observatory.events, window=accuracy_window)
    if rows:
        text = format_accuracy_table(rows)
        dropped = observatory.events.dropped
        if dropped:
            # Like events.jsonl, the table covers only what the log kept.
            text = (
                f"partial: {dropped} events dropped; ticks before the "
                f"first retained event are not counted\n" + text
            )
        emit("accuracy.txt", text)
        emit("accuracy.json", json.dumps(rows, indent=2) + "\n")
    emit(
        "summary.json",
        json.dumps(_summary(observatory, traces), indent=2, sort_keys=True) + "\n",
    )
    return written
