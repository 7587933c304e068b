"""Per-request timestamps: the six moments of Section III.

The paper instruments OpenFaaS at six points along the request path::

    (1) request packet arrives at the gateway
    (2) request packet reaches the watchdog
    (3) the function process starts (business logic begins)
    (4) the function process stops
    (5) the response packet leaves the watchdog
    (6) the client receives the response

We additionally record ``t0`` (client send) so end-to-end latency is
observable, plus the cold-start decomposition coming out of the engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["RequestOutcome", "RequestTrace", "TraceCollector"]


class RequestOutcome(enum.Enum):
    """Terminal disposition of a request.

    Every trace leaves the platform with one of the terminal outcomes;
    ``PENDING`` survives only while the request is in flight.
    """

    PENDING = "pending"
    SUCCESS = "success"
    #: Succeeded, but only after at least one request-level retry.
    RETRIED = "retried"
    #: All attempts (original + retries) failed; an error response was
    #: returned to the client.
    FAILED = "failed"
    #: Rejected by admission control (queue full, brownout, shutdown)
    #: before reaching a watchdog — the 429-style answer of an
    #: overloaded platform.  ``shed_reason`` says why.
    SHED = "shed"
    #: Timed out against its deadline (while queued for admission, or
    #: out of retry budget mid-request) — the request can no longer
    #: succeed in time, so it was terminated instead of served late.
    DEADLINE = "deadline"


#: Outcomes that never produced a real function response; excluded from
#: latency statistics by default (their truncated error-path timings
#: would skew every mean the figures average).
_UNANSWERED = frozenset(
    (RequestOutcome.FAILED, RequestOutcome.SHED, RequestOutcome.DEADLINE)
)


@dataclass(slots=True)
class RequestTrace:
    """Timestamps and metadata of one request."""

    request_id: int
    function: str
    t0_client_send: float
    t1_gateway_in: float = float("nan")
    t2_watchdog_in: float = float("nan")
    t3_function_start: float = float("nan")
    t4_function_stop: float = float("nan")
    t5_watchdog_out: float = float("nan")
    t6_client_recv: float = float("nan")
    cold_start: bool = False
    container_id: str = ""
    #: Engine-level decomposition (ms) of the function-side work.
    runtime_init_ms: float = 0.0
    app_init_ms: float = 0.0
    exec_ms: float = 0.0
    #: Re-spec/config-delta time (ms) paid when the container was a
    #: relaxed-key match or a repurposed donor; 0 for exact hits and
    #: cold boots.  Part of the init-phase decomposition.
    respec_ms: float = 0.0
    #: How the container was obtained: "" (cold boot), "hit",
    #: "relaxed", or "repurpose".
    reuse: str = ""
    #: Reuse depth of the serving container: how many requests it had
    #: already executed before this one (0 = first exec, i.e. a cold
    #: boot or a fresh prewarm).
    reuse_count: int = 0
    #: Terminal disposition (stamped by the watchdog / admission layer).
    outcome: RequestOutcome = RequestOutcome.PENDING
    #: Request-level retries this request consumed.
    retries: int = 0
    #: The final error, for failed requests ("ExcType: message").
    error: str = ""
    #: Absolute deadline (sim ms); ``inf`` means no deadline applies.
    deadline: float = float("inf")
    #: QoS class copied from the function spec at admission time.
    qos: str = ""
    #: Why the request was shed (``""`` unless outcome is SHED).
    shed_reason: str = ""
    #: Time spent waiting in the admission queue (ms).
    queue_ms: float = 0.0

    # -- derived segments (all ms) ----------------------------------------
    @property
    def total_latency(self) -> float:
        """End-to-end client latency (t6 - t0)."""
        return self.t6_client_recv - self.t0_client_send

    @property
    def gateway_forward_ms(self) -> float:
        """(1) -> (2): gateway proxying."""
        return self.t2_watchdog_in - self.t1_gateway_in

    @property
    def function_init_ms(self) -> float:
        """(2) -> (3): the segment the paper finds dominant when cold."""
        return self.t3_function_start - self.t2_watchdog_in

    @property
    def function_exec_ms(self) -> float:
        """(3) -> (4): business logic execution."""
        return self.t4_function_stop - self.t3_function_start

    def segments(self) -> Dict[str, float]:
        """Named breakdown used by the Fig 5 experiment."""
        return {
            "client_to_gateway": self.t1_gateway_in - self.t0_client_send,
            "gateway_forward": self.gateway_forward_ms,
            "function_init": self.function_init_ms,
            "function_exec": self.function_exec_ms,
            "watchdog_out": self.t5_watchdog_out - self.t4_function_stop,
            "gateway_return": self.t6_client_recv - self.t5_watchdog_out,
        }

    @property
    def complete(self) -> bool:
        """Whether all six moments were recorded."""
        return not any(
            np.isnan(t)
            for t in (
                self.t1_gateway_in,
                self.t2_watchdog_in,
                self.t3_function_start,
                self.t4_function_stop,
                self.t5_watchdog_out,
                self.t6_client_recv,
            )
        )


class TraceCollector:
    """Accumulates request traces and derives figure-ready series."""

    def __init__(self) -> None:
        self._traces: List[RequestTrace] = []

    def add(self, trace: RequestTrace) -> None:
        """Record a finished trace."""
        self._traces.append(trace)

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self):
        return iter(self._traces)

    @property
    def traces(self) -> Tuple[RequestTrace, ...]:
        """All traces in completion order."""
        return tuple(self._traces)

    def _included(self, include_failed: bool) -> List[RequestTrace]:
        """Traces that belong in latency statistics.

        Failed, shed and deadline-missed requests carry error-path
        timings (often NaN ``t6`` or a truncated pipeline), so by
        default only traces that returned a real response to the client
        — SUCCESS and RETRIED — enter the latency series the figures
        average.  ``include_failed=True`` restores all of them; the
        unanswered *counts* are always reported separately
        (:meth:`failed_count`, :meth:`shed_count`,
        :meth:`deadline_count`, :meth:`outcome_counts`).
        """
        if include_failed:
            return self._traces
        return [t for t in self._traces if t.outcome not in _UNANSWERED]

    def latencies(self, include_failed: bool = False) -> np.ndarray:
        """End-to-end latencies (ms) of answered requests, in completion
        order.  Pass ``include_failed=True`` to keep FAILED traces in the
        series (their error-path latencies then skew any mean)."""
        return np.array(
            [t.total_latency for t in self._included(include_failed)],
            dtype=float,
        )

    def cold_flags(self) -> np.ndarray:
        """Boolean array: which requests were cold."""
        return np.array([t.cold_start for t in self._traces], dtype=bool)

    def cold_count(self) -> int:
        """Number of cold-started requests."""
        return int(self.cold_flags().sum())

    def mean_latency(self, include_failed: bool = False) -> float:
        """Mean end-to-end latency (ms) of answered requests; NaN when
        empty.  ``include_failed=True`` restores the raw all-traces mean."""
        latencies = self.latencies(include_failed=include_failed)
        return float(latencies.mean()) if latencies.size else float("nan")

    def mean_segments(self, include_failed: bool = False) -> Dict[str, float]:
        """Average of each pipeline segment across complete traces of
        answered requests (``include_failed=True`` keeps FAILED ones)."""
        complete = [
            t for t in self._included(include_failed) if t.complete
        ]
        if not complete:
            return {}
        keys = complete[0].segments().keys()
        return {
            key: float(np.mean([t.segments()[key] for t in complete]))
            for key in keys
        }

    def outcome_counts(self) -> Dict[str, int]:
        """Traces per terminal outcome value (``{"success": 42, ...}``)."""
        counts: Dict[str, int] = {}
        for trace in self._traces:
            counts[trace.outcome.value] = counts.get(trace.outcome.value, 0) + 1
        return counts

    def failed_count(self) -> int:
        """Requests that exhausted their retries."""
        return sum(
            1 for t in self._traces if t.outcome is RequestOutcome.FAILED
        )

    def shed_count(self) -> int:
        """Requests rejected by admission control."""
        return sum(
            1 for t in self._traces if t.outcome is RequestOutcome.SHED
        )

    def deadline_count(self) -> int:
        """Requests terminated against their deadline."""
        return sum(
            1 for t in self._traces if t.outcome is RequestOutcome.DEADLINE
        )

    def shed_reasons(self) -> Dict[str, int]:
        """Shed traces per reason (``{"queue_full": 3, ...}``)."""
        counts: Dict[str, int] = {}
        for trace in self._traces:
            if trace.outcome is RequestOutcome.SHED:
                counts[trace.shed_reason] = counts.get(trace.shed_reason, 0) + 1
        return counts

    def retry_total(self) -> int:
        """Request-level retries consumed across all traces."""
        return sum(t.retries for t in self._traces)

    def all_terminal(self) -> bool:
        """Whether every collected trace reached a terminal outcome."""
        return all(
            t.outcome is not RequestOutcome.PENDING for t in self._traces
        )

    def filter(self, function: Optional[str] = None) -> "TraceCollector":
        """A new collector restricted to one function."""
        child = TraceCollector()
        for trace in self._traces:
            if function is None or trace.function == function:
                child.add(trace)
        return child
