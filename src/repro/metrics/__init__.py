"""Metrics: latency statistics, prediction errors, resource monitoring,
and figure-ready report formatting."""

from repro.metrics.latency import (
    EMPTY_SUMMARY,
    LatencySummary,
    empirical_cdf,
    percentile,
    summarize_latencies,
    tail_ratio,
)
from repro.metrics.errors import (
    mean_absolute_error,
    mean_absolute_percentage_error,
    relative_errors,
    root_mean_square_error,
    symmetric_mean_absolute_percentage_error,
)
from repro.metrics.monitor import ResourceMonitor
from repro.metrics.billing import BillingModel, CostReport
from repro.metrics.report import (
    Figure,
    Series,
    Table,
    format_table,
    reuse_table,
)

__all__ = [
    "BillingModel",
    "CostReport",
    "EMPTY_SUMMARY",
    "Figure",
    "LatencySummary",
    "ResourceMonitor",
    "Series",
    "Table",
    "empirical_cdf",
    "reuse_table",
    "format_table",
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "percentile",
    "relative_errors",
    "root_mean_square_error",
    "summarize_latencies",
    "symmetric_mean_absolute_percentage_error",
    "tail_ratio",
]
