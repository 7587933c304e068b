"""Exporters: Prometheus text, periodic JSONL snapshots, Chrome traces.

Three ways out of the :class:`~repro.obs.events.Observatory`:

* :func:`prometheus_text` — the OpenFaaS-gateway-style scrape payload
  (counters, gauges, cumulative histogram buckets).
* :class:`Snapshotter` — a sim-driven process that dumps the whole
  registry as one JSON object per period; the collected records render
  as JSONL, giving a time series of every metric without a scraper.
* :func:`chrome_trace` — Chrome trace-event JSON built from
  :class:`~repro.faas.tracing.RequestTrace` spans (gateway → watchdog →
  init → exec → response) plus instant markers from the event log, so
  one run is viewable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional

from repro.obs.events import EventLog, Observatory
from repro.obs.registry import MetricsRegistry

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "registry_snapshot_jsonl",
    "Snapshotter",
]


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    return registry.to_prometheus()


def registry_snapshot_jsonl(records: Iterable[Dict[str, object]]) -> str:
    """Render snapshot records (dicts) as JSONL, one record per line."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


class Snapshotter:
    """Periodic registry snapshots driven by the simulation clock.

    The loop is a :meth:`~repro.sim.Simulator.every` loop, so a
    stop/start cycle never leaves a stale loop doubling the rate.
    Records accumulate in memory; :meth:`to_jsonl` renders them,
    :meth:`write` saves them.  The snapshotter is the only obs
    component that schedules sim events — attach it only when a run
    explicitly wants time-series snapshots, since its timers interleave
    with (but never reorder) workload events.
    """

    def __init__(
        self,
        sim,
        observatory: Observatory,
        period_ms: float = 1_000.0,
    ) -> None:
        if period_ms <= 0:
            raise ValueError("period_ms must be positive")
        self.sim = sim
        self.observatory = observatory
        self.period_ms = period_ms
        self.records: List[Dict[str, object]] = []
        #: The snapshot loop's handle while it runs.
        self._loop = None

    def start(self) -> None:
        """Begin snapshotting; takes an immediate first snapshot."""
        if self._loop is not None:
            return
        self.snap()
        self._loop = self.sim.every(self.period_ms, self.snap, "obs-snapshotter")

    def stop(self, final_snapshot: bool = True) -> None:
        """Stop the loop; optionally snapshot once more."""
        if self._loop is not None:
            self._loop.stop()
            self._loop = None
        if final_snapshot:
            self.snap()

    def snap(self) -> Dict[str, object]:
        """Take one snapshot now (also callable without the loop)."""
        record: Dict[str, object] = {
            "t": self.sim.now,
            "events_total": self.observatory.events.total_appended,
            "events_dropped": self.observatory.events.dropped,
            "metrics": self.observatory.registry.snapshot(),
        }
        self.records.append(record)
        return record

    def to_jsonl(self) -> str:
        """All snapshots as JSONL."""
        return registry_snapshot_jsonl(self.records)

    def write(self, path) -> None:
        """Save the JSONL snapshot series to ``path``."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_jsonl())


# -- Chrome trace-event JSON -------------------------------------------------

#: Span layout per request: (name, start attr/lambda, end attr/lambda).
_SPAN_LAYOUT = (
    ("gateway", "t1_gateway_in", "t6_client_recv"),
    ("watchdog", "t2_watchdog_in", "t5_watchdog_out"),
    ("init", "t2_watchdog_in", "t3_function_start"),
    ("exec", "t3_function_start", "t4_function_stop"),
    ("response", "t4_function_stop", "t6_client_recv"),
)


def _host_of_trace(trace) -> str:
    # Container ids are "host-name/c000123"; requests that never got a
    # container (hard failures) land under the gateway pseudo-host.
    container_id = trace.container_id
    if container_id and "/" in container_id:
        return container_id.split("/", 1)[0]
    return "gateway"


def chrome_trace(
    traces,
    events: Optional[EventLog] = None,
    include_failed: bool = True,
) -> Dict[str, object]:
    """Build a Chrome trace-event document from request traces.

    ``traces`` is any iterable of :class:`RequestTrace` (typically a
    :class:`~repro.faas.tracing.TraceCollector`).  Each request becomes
    a thread (tid = request id) on its host's process row, with nested
    complete ("X") spans for the pipeline stages and sub-spans for the
    runtime/app init decomposition; event-log entries render as instant
    ("i") markers.  Timestamps convert from sim ms to trace µs.
    """
    trace_events: List[Dict[str, object]] = []
    host_pids: Dict[str, int] = {}

    def pid_of(host: str) -> int:
        pid = host_pids.get(host)
        if pid is None:
            pid = host_pids[host] = len(host_pids) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": host},
                }
            )
        return pid

    def span(name, pid, tid, start_ms, end_ms, args=None):
        if math.isnan(start_ms) or math.isnan(end_ms) or end_ms < start_ms:
            return
        event: Dict[str, object] = {
            "ph": "X",
            "name": name,
            "pid": pid,
            "tid": tid,
            "ts": start_ms * 1_000.0,
            "dur": (end_ms - start_ms) * 1_000.0,
            "cat": "request",
        }
        if args:
            event["args"] = args
        trace_events.append(event)

    for trace in traces:
        outcome = getattr(trace.outcome, "value", str(trace.outcome))
        if not include_failed and outcome == "failed":
            continue
        pid = pid_of(_host_of_trace(trace))
        tid = trace.request_id
        args = {
            "function": trace.function,
            "outcome": outcome,
            "cold_start": trace.cold_start,
            "container": trace.container_id,
            "retries": trace.retries,
        }
        if trace.error:
            args["error"] = trace.error
        reuse = getattr(trace, "reuse", "")
        if reuse:
            args["reuse"] = reuse
        span("request", pid, tid, trace.t0_client_send, trace.t6_client_recv, args)
        for name, start_attr, end_attr in _SPAN_LAYOUT:
            span(name, pid, tid, getattr(trace, start_attr), getattr(trace, end_attr))
        # Init decomposition: anchor runtime/app init back from t3.
        t3 = trace.t3_function_start
        if not math.isnan(t3):
            if trace.app_init_ms > 0:
                span("app_init", pid, tid, t3 - trace.app_init_ms, t3)
            if trace.runtime_init_ms > 0:
                span(
                    "runtime_init",
                    pid,
                    tid,
                    t3 - trace.app_init_ms - trace.runtime_init_ms,
                    t3 - trace.app_init_ms,
                )
            respec_ms = getattr(trace, "respec_ms", 0.0)
            if respec_ms > 0:
                # The config-delta / re-specialization work precedes
                # runtime and app init in the 2→3 segment.
                end = t3 - trace.app_init_ms - trace.runtime_init_ms
                span("respec", pid, tid, end - respec_ms, end)

    if events is not None:
        for event in events:
            host = event.host or "gateway"
            trace_events.append(
                {
                    "ph": "i",
                    "s": "p",
                    "name": event.kind.value,
                    "pid": pid_of(host),
                    "tid": 0,
                    "ts": event.t * 1_000.0,
                    "cat": "obs",
                    "args": dict(event.data) | ({"key": event.key} if event.key else {}),
                }
            )

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
