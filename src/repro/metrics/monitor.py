"""Periodic resource sampling (drives Fig 15's usage timelines)."""

from __future__ import annotations

import numpy as np

from repro.containers.engine import ContainerEngine

__all__ = ["ResourceMonitor"]


class ResourceMonitor:
    """Samples a host's resource ledger on a fixed period.

    The samples land in the engine's
    :class:`~repro.sim.resources.ResourceTimeline`; convenience accessors
    convert them into the percentage series Fig 15 plots.
    """

    def __init__(self, engine: ContainerEngine, period_ms: float = 1_000.0) -> None:
        if period_ms <= 0:
            raise ValueError("period_ms must be positive")
        self.engine = engine
        self.period_ms = period_ms
        #: The sampling loop's handle while it runs.
        self._loop = None

    def start(self) -> None:
        """Begin sampling; takes an immediate first sample. Idempotent."""
        if self._loop is not None:
            return
        self.engine.sample_resources()
        self._loop = self.engine.sim.every(
            self.period_ms, self.engine.sample_resources, "resource-monitor"
        )

    def stop(self) -> None:
        """Stop; the pending sample is not taken."""
        if self._loop is not None:
            self._loop.stop()
            self._loop = None

    # -- series accessors ---------------------------------------------------
    @property
    def times_s(self) -> np.ndarray:
        """Sample times in seconds."""
        return self.engine.resources.timeline.times / 1_000.0

    @property
    def cpu_percent(self) -> np.ndarray:
        """CPU usage as percent of host capacity."""
        total = self.engine.resources.cpu_millicores_total
        return 100.0 * self.engine.resources.timeline.cpu / total

    @property
    def mem_mb(self) -> np.ndarray:
        """Memory usage in MB."""
        return self.engine.resources.timeline.mem

    @property
    def mem_percent(self) -> np.ndarray:
        """Memory usage as percent of host memory."""
        total = self.engine.resources.mem_mb_total
        return 100.0 * self.engine.resources.timeline.mem / total

    @property
    def swap_mb(self) -> np.ndarray:
        """Swap usage in MB."""
        return self.engine.resources.timeline.swap
