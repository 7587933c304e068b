"""Observability: metrics registry, event log, exporters, run reports.

See DESIGN.md §7.  A run is observed by putting one
:class:`Observatory` in its simulator's ``obs`` slot
(``platform.sim.obs = Observatory()``); every instrumented component
reads it there.  With the slot ``None`` every hook is a single
``is not None`` check, so uninstrumented runs stay bit-identical.
"""

from repro.obs.events import EventKind, EventLog, ObsEvent, Observatory
from repro.obs.exporters import (
    Snapshotter,
    chrome_trace,
    prometheus_text,
    registry_snapshot_jsonl,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    WIDE_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.report import (
    format_accuracy_table,
    prediction_accuracy_table,
    write_run_report,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "EventKind",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsEvent",
    "Observatory",
    "Snapshotter",
    "WIDE_LATENCY_BUCKETS_MS",
    "chrome_trace",
    "format_accuracy_table",
    "prediction_accuracy_table",
    "prometheus_text",
    "registry_snapshot_jsonl",
    "write_run_report",
]
