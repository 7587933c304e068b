"""Baseline keep-alive policies HotC is evaluated against.

* :class:`NoReuseProvider` — default serverless behaviour: every
  request cold-boots; the "w/o HotC" arm of all figures.
* :class:`FixedKeepAliveProvider` — AWS Lambda-style: after a request,
  the container is kept for a fixed window (15 minutes in AWS,
  Section III-B) and destroyed if unused.
* :class:`PeriodicWarmupProvider` — Azure Logic-style: a designated
  container per runtime type is pinged periodically so it never goes
  cold; burst traffic beyond the warm container still cold-boots.
* :class:`HistogramKeepAliveProvider` — Serverless-in-the-Wild-style
  comparator [27]: the keep-alive window adapts per key to a high
  percentile of the observed idle gaps.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.containers.container import Container, ContainerConfig
from repro.containers.engine import ContainerEngine
from repro.core.keys import KeyPolicy, RuntimeKey, runtime_key
from repro.faas.platform import ColdBootProvider, RuntimeProvider

__all__ = [
    "FixedKeepAliveProvider",
    "HistogramKeepAliveProvider",
    "NoReuseProvider",
    "PeriodicWarmupProvider",
]

#: AWS Lambda's documented keep-alive window (Section III-B).
AWS_KEEP_ALIVE_MS = 15 * 60 * 1_000.0


class NoReuseProvider(ColdBootProvider):
    """Cold boot on every request; the paper's default baseline."""


class _IdlePoolProvider(RuntimeProvider):
    """Shared machinery: an idle list per key with timed expiry."""

    def __init__(self, engine: ContainerEngine, key_policy: KeyPolicy = KeyPolicy.FULL) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.key_policy = key_policy
        #: key -> [(container, expiry queue entry or None)]
        self._idle: Dict[RuntimeKey, List[Tuple[Container, object]]] = {}
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    def key_of(self, config: ContainerConfig) -> RuntimeKey:
        """Parameter analysis used for idle-list lookup."""
        return runtime_key(config, self.key_policy)

    def _keep_alive_for(self, key: RuntimeKey) -> float:
        """Keep-alive window (ms) for this key; subclasses decide."""
        raise NotImplementedError

    # -- protocol -----------------------------------------------------------
    def acquire(self, config: ContainerConfig) -> Generator:
        key = self.key_of(config)
        idle = self._idle.get(key)
        self._observe_gap(key)
        while idle:
            container, expiry = idle.pop(0)
            if expiry is not None:
                expiry.cancel()
            if not container.is_reusable:
                continue  # died while idle (crash injection)
            self.hits += 1
            return container, False
        self.misses += 1
        container = yield from self.engine.boot_container(config)
        return container, True

    def release(self, container: Container) -> Generator:
        key = self.key_of(container.config)
        yield from self.engine.clean_container(container)
        ttl = self._keep_alive_for(key)
        expiry = self.sim.schedule(ttl, self._expire, key, container)
        self._idle.setdefault(key, []).append((container, expiry))
        self._note_release(key)

    def shutdown(self) -> Generator:
        for key, idle in list(self._idle.items()):
            for container, expiry in idle:
                if expiry is not None:
                    expiry.cancel()
                yield from self.engine.stop_container(container)
                yield from self.engine.remove_container(container)
            self._idle[key] = []

    # -- expiry ------------------------------------------------------------
    def _expire(self, key: RuntimeKey, container: Container) -> None:
        idle = self._idle.get(key, [])
        for index, (candidate, _) in enumerate(idle):
            if candidate is container:
                idle.pop(index)
                break
        else:
            return  # already taken by a request
        self.expirations += 1

        def _destroy() -> Generator:
            yield from self.engine.stop_container(container)
            yield from self.engine.remove_container(container)

        self.sim.process(_destroy(), name=f"expire:{container.container_id}")

    # -- hooks for the adaptive subclass ------------------------------------
    def _observe_gap(self, key: RuntimeKey) -> None:
        """Called at acquire time, before the idle-list lookup."""

    def _note_release(self, key: RuntimeKey) -> None:
        """Called after a container returns to the idle list."""


class FixedKeepAliveProvider(_IdlePoolProvider):
    """Fixed keep-alive window for every key (AWS-style).

    "AWS adopts a fixed keep-alive policy that retains the resources in
    memory for minutes after function execution ... it disregards
    actual invocation frequency and patterns" (Section III-B).
    """

    def __init__(
        self,
        engine: ContainerEngine,
        keep_alive_ms: float = AWS_KEEP_ALIVE_MS,
        key_policy: KeyPolicy = KeyPolicy.FULL,
    ) -> None:
        super().__init__(engine, key_policy)
        if keep_alive_ms <= 0:
            raise ValueError("keep_alive_ms must be positive")
        self.keep_alive_ms = keep_alive_ms

    def _keep_alive_for(self, key: RuntimeKey) -> float:
        return self.keep_alive_ms


class HistogramKeepAliveProvider(_IdlePoolProvider):
    """Per-key adaptive keep-alive from the idle-gap histogram.

    Mirrors the Azure policy of [27]: track the gaps between a
    container becoming idle and the next request of its type; keep
    containers alive for the ``percentile``-th gap (clamped), so
    frequently-invoked types hold containers just long enough.
    """

    def __init__(
        self,
        engine: ContainerEngine,
        percentile: float = 95.0,
        min_keep_ms: float = 10_000.0,
        max_keep_ms: float = AWS_KEEP_ALIVE_MS,
        history: int = 200,
        key_policy: KeyPolicy = KeyPolicy.FULL,
    ) -> None:
        super().__init__(engine, key_policy)
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if min_keep_ms <= 0 or max_keep_ms < min_keep_ms:
            raise ValueError("need 0 < min_keep_ms <= max_keep_ms")
        if history < 1:
            raise ValueError("history must be >= 1")
        self.percentile = percentile
        self.min_keep_ms = min_keep_ms
        self.max_keep_ms = max_keep_ms
        self.history = history
        self._gaps: Dict[RuntimeKey, List[float]] = {}
        self._last_release: Dict[RuntimeKey, float] = {}

    def _observe_gap(self, key: RuntimeKey) -> None:
        last = self._last_release.get(key)
        if last is not None:
            gaps = self._gaps.setdefault(key, [])
            gaps.append(self.sim.now - last)
            if len(gaps) > self.history:
                del gaps[: len(gaps) - self.history]

    def _note_release(self, key: RuntimeKey) -> None:
        self._last_release[key] = self.sim.now

    def _keep_alive_for(self, key: RuntimeKey) -> float:
        gaps = self._gaps.get(key)
        if not gaps:
            return self.max_keep_ms  # no data: be generous
        estimate = float(np.percentile(gaps, self.percentile))
        return float(np.clip(estimate * 1.1, self.min_keep_ms, self.max_keep_ms))


class PeriodicWarmupProvider(RuntimeProvider):
    """One designated always-warm container per key (Azure Logic-style).

    "periodically waking up containers to keep warm (i.e., Azure
    Logic)" — the warm container is pinged every ``period_ms``; pings
    occupy it briefly and burn host resources.  Demand beyond the one
    warm container cold-boots disposable extras.
    """

    def __init__(
        self,
        engine: ContainerEngine,
        period_ms: float = 5 * 60 * 1_000.0,
        ping_ms: float = 10.0,
        key_policy: KeyPolicy = KeyPolicy.FULL,
    ) -> None:
        if period_ms <= 0 or ping_ms < 0:
            raise ValueError("period_ms must be > 0 and ping_ms >= 0")
        self.engine = engine
        self.sim = engine.sim
        self.period_ms = period_ms
        self.ping_ms = ping_ms
        self.key_policy = key_policy
        self._warm: Dict[RuntimeKey, Container] = {}
        self._warm_busy: Dict[RuntimeKey, bool] = {}
        self._running = True
        self.hits = 0
        self.misses = 0
        self.pings = 0

    def key_of(self, config: ContainerConfig) -> RuntimeKey:
        """Parameter analysis for warm-slot lookup."""
        return runtime_key(config, self.key_policy)

    def acquire(self, config: ContainerConfig) -> Generator:
        key = self.key_of(config)
        warm = self._warm.get(key)
        if warm is not None and not self._warm_busy[key] and warm.is_reusable:
            self._warm_busy[key] = True
            self.hits += 1
            return warm, False
        self.misses += 1
        container = yield from self.engine.boot_container(config)
        if warm is None:
            # First container of this type becomes the designated warm one.
            self._warm[key] = container
            self._warm_busy[key] = True
            self.sim.process(self._ping_loop(key), name=f"warmup:{key}")
        return container, True

    def release(self, container: Container) -> Generator:
        key = self.key_of(container.config)
        if self._warm.get(key) is container:
            yield from self.engine.clean_container(container)
            self._warm_busy[key] = False
            return
        # Disposable extra: destroy.
        yield from self.engine.stop_container(container)
        yield from self.engine.remove_container(container)

    def shutdown(self) -> Generator:
        self._running = False
        for key, container in list(self._warm.items()):
            if container.is_reusable:
                yield from self.engine.stop_container(container)
                yield from self.engine.remove_container(container)
            del self._warm[key]

    def _ping_loop(self, key: RuntimeKey) -> Generator:
        while self._running:
            yield self.period_ms
            if not self._running:
                break
            container = self._warm.get(key)
            if container is None:
                break
            if self._warm_busy.get(key) or not container.is_reusable:
                continue  # skip the ping; a request is in flight
            self._warm_busy[key] = True
            yield self.ping_ms
            self._warm_busy[key] = False
            self.pings += 1
