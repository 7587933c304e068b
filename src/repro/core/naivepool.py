"""Executable specification of the container runtime pool.

:class:`NaiveContainerRuntimePool` is a deliberately simple O(n)
implementation of the exact same contract as
:class:`~repro.core.pool.ContainerRuntimePool`: flat per-key lists,
linear scans for acquire, and a full sort for every eviction decision —
the pre-optimisation seed code, kept verbatim.  It exists for two jobs:

* the differential test (``tests/core/test_pool_reference.py``) replays
  long randomized operation sequences against both pools and asserts
  observable equivalence for every eviction strategy;
* the hot-path microbenchmark (``benchmarks/bench_pool_hotpath.py``)
  measures it as the "before" baseline in ``BENCH_pool.json``.

It is not meant for production use — the indexed pool is strictly
faster with identical semantics.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.containers.container import Container
from repro.core.keys import RuntimeKey
from repro.core.pool import (
    AVAILABLE,
    NOT_AVAILABLE,
    NOT_EXISTING,
    PoolEntry,
    PoolLimits,
    PoolStats,
    _EVICTION_STRATEGIES,
    _REUSE_COUNTERS,
)

__all__ = ["NaiveContainerRuntimePool"]


class NaiveContainerRuntimePool:
    """Reference pool: list scans everywhere, no indexes.

    Mirrors the public API of
    :class:`~repro.core.pool.ContainerRuntimePool` (including
    ``discard_dead``) so the two are drop-in
    interchangeable in tests and benchmarks.
    """

    def __init__(
        self,
        limits: PoolLimits = PoolLimits(),
        eviction: str = "oldest",
    ) -> None:
        if eviction not in _EVICTION_STRATEGIES:
            raise ValueError(
                f"eviction must be one of {_EVICTION_STRATEGIES}, got {eviction!r}"
            )
        self.limits = limits
        self.eviction = eviction
        self.stats = PoolStats()
        self._entries: Dict[RuntimeKey, List[PoolEntry]] = {}
        self._by_container: Dict[str, PoolEntry] = {}
        self._quarantined: Dict[str, PoolEntry] = {}

    # -- the paper's views --------------------------------------------------
    def state_of(self, key: RuntimeKey) -> int:
        """Fig 7 tri-state for ``key``: −1 / 0 / 1."""
        entries = self._entries.get(key)
        if not entries:
            return NOT_EXISTING
        if any(entry.available for entry in entries):
            return AVAILABLE
        return NOT_AVAILABLE

    def num_available(self, key: RuntimeKey) -> int:
        """``num_avail[key]`` of Algorithms 1 and 2."""
        return sum(1 for e in self._entries.get(key, ()) if e.available)

    def num_total(self, key: RuntimeKey) -> int:
        """All pooled containers of this type (busy + available)."""
        return len(self._entries.get(key, ()))

    # -- membership ---------------------------------------------------------
    def acquire(self, key: RuntimeKey, now: float) -> Optional[Container]:
        """Take the first available container of type ``key`` (linear scan)."""
        for entry in self._entries.get(key, ()):
            if entry.available and not entry.container.tainted:
                entry.available = False
                entry.last_used_at = now
                self.stats.hits += 1
                return entry.container
        self.stats.misses += 1
        return None

    def acquire_donor(
        self, key: RuntimeKey, now: float, reuse: str
    ) -> Optional[Container]:
        """Claim an idle container of ``key`` for a different target key."""
        if reuse not in ("relaxed", "repurpose"):
            raise ValueError(f"reuse must be 'relaxed' or 'repurpose', got {reuse!r}")
        for entry in self._entries.get(key, ()):
            if entry.available and not entry.container.tainted:
                entry.available = False
                entry.last_used_at = now
                if reuse == "relaxed":
                    self.stats.relaxed_hits += 1
                else:
                    self.stats.repurposed += 1
                return entry.container
        return None

    def register(
        self,
        container: Container,
        key: RuntimeKey,
        now: float,
        available: bool = False,
    ) -> PoolEntry:
        """Add a (typically just-booted) container under ``key``."""
        if container.container_id in self._by_container:
            raise ValueError(
                f"container {container.container_id} already pooled"
            )
        entry = PoolEntry(
            container=container,
            key=key,
            available=available,
            added_at=now,
            last_used_at=now,
        )
        self._entries.setdefault(key, []).append(entry)
        self._by_container[container.container_id] = entry
        self.stats.registered += 1
        return entry

    def release(self, container: Container, now: float) -> None:
        """Mark a busy container available again (Algorithm 2's ++)."""
        entry = self._entry_of(container)
        if entry.available:
            raise ValueError(
                f"container {container.container_id} is already available"
            )
        entry.available = True
        entry.last_used_at = now

    def remove(self, container: Container) -> PoolEntry:
        """Forget a container (being stopped/evicted)."""
        entry = self._entry_of(container)
        del self._by_container[container.container_id]
        siblings = self._entries[entry.key]
        siblings.remove(entry)
        if not siblings:
            del self._entries[entry.key]
        self.stats.retired += 1
        return entry

    def quarantine(self, container: Container) -> PoolEntry:
        """Pull a pooled container out of availability into quarantine."""
        entry = self._entry_of(container)
        self._quarantined[container.container_id] = entry
        self.stats.quarantined += 1
        del self._by_container[container.container_id]
        siblings = self._entries[entry.key]
        siblings.remove(entry)
        if not siblings:
            del self._entries[entry.key]
        return entry

    def mark_recycled(self, container: Container) -> PoolEntry:
        """Close out a quarantined container whose recycle completed."""
        try:
            entry = self._quarantined.pop(container.container_id)
        except KeyError:
            raise KeyError(
                f"container {container.container_id} is not quarantined"
            ) from None
        self.stats.recycled += 1
        return entry

    def is_quarantined(self, container: Container) -> bool:
        """Whether the container sits in the quarantine set."""
        return container.container_id in self._quarantined

    @property
    def total_quarantined(self) -> int:
        """Current quarantine-set size."""
        return len(self._quarantined)

    def quarantined_containers(self) -> Tuple[Container, ...]:
        """Snapshot of the quarantine set's containers."""
        return tuple(e.container for e in self._quarantined.values())

    def discard_dead(
        self, container: Container, reuse: str = "hit"
    ) -> Optional[PoolEntry]:
        """Forget a just-acquired dead container; un-count its reuse."""
        counter = _REUSE_COUNTERS[reuse]
        entry = None
        if container.container_id in self._by_container:
            entry = self.remove(container)
        setattr(self.stats, counter, getattr(self.stats, counter) - 1)
        self.stats.dead_discards += 1
        return entry

    def contains(self, container: Container) -> bool:
        """Whether the container is pooled."""
        return container.container_id in self._by_container

    def _entry_of(self, container: Container) -> PoolEntry:
        try:
            return self._by_container[container.container_id]
        except KeyError:
            raise KeyError(
                f"container {container.container_id} is not in the pool"
            ) from None

    # -- aggregates -----------------------------------------------------------
    @property
    def total_live(self) -> int:
        """All pooled containers."""
        return len(self._by_container)

    @property
    def total_available(self) -> int:
        """All idle pooled containers."""
        return sum(1 for e in self._by_container.values() if e.available)

    def keys(self) -> Tuple[RuntimeKey, ...]:
        """Keys with at least one pooled container."""
        return tuple(self._entries)

    def snapshot(self) -> Dict[RuntimeKey, Tuple[int, int]]:
        """Per-key ``(available, total)`` counts — predictor input."""
        return {
            key: (
                sum(1 for e in entries if e.available),
                len(entries),
            )
            for key, entries in self._entries.items()
        }

    # -- eviction ----------------------------------------------------------
    def over_capacity(self) -> bool:
        """Whether the container-count cap is exceeded."""
        return self.total_live > self.limits.max_containers

    def eviction_candidate(self) -> Optional[PoolEntry]:
        """Pick the next victim among *available* entries (full scan)."""
        candidates = [e for e in self._by_container.values() if e.available]
        if not candidates:
            return None
        if self.eviction == "oldest":
            sort_key = lambda e: (e.added_at, e.container.container_id)
        elif self.eviction == "lru":
            sort_key = lambda e: (e.last_used_at, e.container.container_id)
        else:  # largest
            sort_key = lambda e: (
                -e.container.config.mem_mb,
                e.container.container_id,
            )
        return min(candidates, key=sort_key)

    def available_entries(self, key: RuntimeKey) -> Tuple[PoolEntry, ...]:
        """Idle entries of one key, oldest first (full re-sort)."""
        return tuple(
            sorted(
                (e for e in self._entries.get(key, ()) if e.available),
                key=lambda e: (e.added_at, e.container.container_id),
            )
        )
