"""The live container runtime pool (Section IV-B, Fig 7).

"HotC maintains a key value store to track the available containers.
The key is the formatted parameter configurations for each container
and the value is a list with container ID and state of the container."

States (Fig 7): Not-Existing (−1), Existing-Not-Available (0),
Existing-Available (1).  The pool exposes the paper's tri-state view
per key via :meth:`state_of` while internally tracking per-container
entries.  Limits: at most ``max_containers`` live containers and a host
memory threshold (80% in the paper); under pressure the oldest live
container is evicted (``oldest`` strategy; ``lru`` and ``largest`` are
provided for the eviction ablation).

Pool internals (hot-path design)
--------------------------------
Every operation the request path touches is indexed so bookkeeping
stays off the critical path:

* **acquire** pops the tail of a per-key list of available entries kept
  sorted descending by registration sequence number — O(1) for the
  earliest-registered entry, reproducing the seed semantics instead of
  an O(n) scan.  **release** re-inserts the entry's pre-built
  ``(-seq, entry)`` item with one C-level ``bisect.insort``.
* **eviction_candidate** peeks a pool-wide heap ordered by the active
  strategy's sort key with the container id as tie-breaker, O(log n)
  amortised instead of scanning every live container.  Eviction-heap
  pushes are *deferred*: release only flags the entry into a pending
  list (deduplicated, bounded by pool size), and the sort tuples are
  built and pushed when a candidate is actually requested — the
  acquire/release cycle carries no eviction bookkeeping at all.
* **num_available / num_total / total_available / snapshot / state_of**
  read incrementally maintained per-key ``(available, total)``
  counters; nothing recounts.  Each entry carries direct references to
  its key's counter list and availability list, so the hot path does at
  most one key-dict probe.

The eviction heap uses *lazy deletion*: leaving availability (acquire
or removal) bumps the entry's ``stamp``; heap copies whose stamp no
longer matches (or whose entry left the pool) are skipped and discarded
when they surface, and the heap is compacted once stale copies
outnumber live ones.  An entry's eviction sort fields (``added_at``,
``last_used_at``, memory size) are frozen while it is available, so a
deferred-pushed copy is ordered exactly as an eager one.  Determinism
guarantee: acquire order depends only on registration order, and the
eviction candidate is the minimum over every live available entry
(independent of push timing) with ties broken on container id —
identical to the original list-scanning implementation, so seeded
benchmarks reproduce bit-for-bit.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappush
from typing import Dict, List, Optional, Tuple

from repro.containers.container import Container
from repro.core.keys import RuntimeKey
from repro.obs.events import EventKind

__all__ = [
    "ContainerRuntimePool",
    "PoolEntry",
    "PoolLimits",
    "PoolStats",
    "NOT_EXISTING",
    "NOT_AVAILABLE",
    "AVAILABLE",
]

#: The paper's tri-state values (Fig 7).
NOT_EXISTING = -1
NOT_AVAILABLE = 0
AVAILABLE = 1

_EVICTION_STRATEGIES = ("oldest", "lru", "largest")

#: How a pooled container was (or is being) reused; selects which
#: PoolStats counter a reuse — and its rollback on a dead discard —
#: lands in.
_REUSE_COUNTERS = {
    "hit": "hits",
    "relaxed": "relaxed_hits",
    "repurpose": "repurposed",
}

#: Compact a heap when it holds more than this many entries and more
#: than half of them are stale lazy-deletion copies.
_COMPACT_MIN = 64



@dataclass(slots=True)
class PoolEntry:
    """One pooled container and its bookkeeping."""

    container: Container
    key: RuntimeKey
    available: bool
    added_at: float
    last_used_at: float
    #: Registration order; acquire hands out the smallest available seq.
    seq: int = 0
    #: Bumped when the entry leaves availability (acquire/remove); stale
    #: eviction-heap copies carry an older stamp and are skipped.
    stamp: int = 0
    #: False once the entry has been removed from the pool.
    in_pool: bool = True
    #: Direct references to this key's ``[available, total]`` counter
    #: list and availability list, set at registration — acquire/release
    #: update them without re-probing the key-indexed dicts.
    counts: Optional[List[int]] = field(default=None, repr=False)
    avail_list: Optional[List[Tuple]] = field(default=None, repr=False)
    #: The entry's reusable ``(-seq, entry)`` availability-list item; at
    #: most one copy is ever live, so release re-inserts the same tuple
    #: instead of building a fresh one.
    avail_item: Optional[Tuple] = field(default=None, repr=False)
    #: True while the entry sits in the pool's deferred eviction-push
    #: list (dedup flag; cleared when the list is flushed).
    evict_pending: bool = field(default=False, repr=False)


@dataclass(frozen=True)
class PoolLimits:
    """Pool-wide resource guards (paper defaults)."""

    max_containers: int = 500
    memory_threshold: float = 0.8

    def __post_init__(self) -> None:
        if self.max_containers < 0:
            raise ValueError("max_containers must be >= 0")
        if not 0.0 < self.memory_threshold <= 1.0:
            raise ValueError("memory_threshold must be in (0, 1]")


@dataclass
class PoolStats:
    """Reuse and eviction counters.

    ``hits`` counts *exact-key* reuse only — the paper's definition.
    Relaxed-fallback and repurposed reuses are tracked separately (they
    each follow an exact-key miss, which stays counted in ``misses``),
    so ``hit_ratio`` is never inflated by approximate matches.
    """

    hits: int = 0
    misses: int = 0
    #: Reuses served via the relaxed-fallback index (config delta applied).
    relaxed_hits: int = 0
    #: Reuses served by repurposing an idle donor of a *different* key.
    repurposed: int = 0
    registered: int = 0
    retired: int = 0
    evictions_capacity: int = 0
    evictions_pressure: int = 0
    #: Pool hits whose container turned out dead; un-counted from hits.
    dead_discards: int = 0
    #: Containers pulled out of every availability index by the
    #: container health plane (cumulative).
    quarantined: int = 0
    #: Quarantined containers whose recycle completed (cumulative);
    #: ``quarantined - recycled`` is the current quarantine-set size.
    recycled: int = 0

    @property
    def lookups(self) -> int:
        """Total acquire attempts."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served by an exact-key warm container."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def cold_starts_eliminated(self) -> int:
        """Exact-key misses that still avoided a cold boot."""
        return self.relaxed_hits + self.repurposed


class ContainerRuntimePool:
    """Key-value store of live container runtimes."""

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
        #: Optional observatory; ``None`` keeps the acquire hook inert
        #: (one pointer comparison on the ~50µs hot path).
        self.obs = None
        self._obs_host = ""
        self._entries: Dict[RuntimeKey, Dict[str, PoolEntry]] = {}
        self._by_container: Dict[str, PoolEntry] = {}
        #: Per-key ``[available, total]`` counters (never recounted).
        self._counts: Dict[RuntimeKey, List[int]] = {}
        self._total_available = 0
        #: Per-key ``(-seq, entry)`` lists of available entries, sorted
        #: descending by registration seq: acquire pops the tail (the
        #: earliest-registered entry) in O(1), release re-inserts with
        #: one C-level ``bisect.insort``.
        self._avail_lists: Dict[RuntimeKey, List[Tuple]] = {}
        #: Pool-wide eviction heap of the active strategy's sort tuples.
        self._evict_heap: List[Tuple] = []
        #: Entries not yet pushed to the eviction heap (deduplicated via
        #: ``PoolEntry.evict_pending``, so it is bounded by pool size).
        #: release/register only set a flag and append (O(1)); the heap
        #: tuples — strategy sort key, container-id tie-breaker — are
        #: built and pushed lazily by :meth:`eviction_candidate`, keeping
        #: the acquire/release cycle free of eviction bookkeeping.
        self._evict_pending: List[PoolEntry] = []
        #: Quarantined entries (container_id -> entry): out of every
        #: availability index but still owned by the pool's conservation
        #: accounting until :meth:`mark_recycled`.
        self._quarantined: Dict[str, PoolEntry] = {}
        self._seq = 0
        if eviction == "oldest":
            self._evict_primary = lambda e: e.added_at
        elif eviction == "lru":
            self._evict_primary = lambda e: e.last_used_at
        else:  # largest
            self._evict_primary = lambda e: -e.container.config.mem_mb

    # -- observability hooks -------------------------------------------------
    def attach_observatory(self, observatory, host: str = "") -> None:
        """Record hit/miss events and counters (``None`` detaches).

        ``host`` labels this pool's series when several hosts share one
        observatory.
        """
        self.obs = observatory
        self._obs_host = host

    # -- the paper's views --------------------------------------------------
    def state_of(self, key: RuntimeKey) -> int:
        """Fig 7 tri-state for ``key``: −1 / 0 / 1."""
        counts = self._counts.get(key)
        if not counts or counts[1] == 0:
            return NOT_EXISTING
        return AVAILABLE if counts[0] > 0 else NOT_AVAILABLE

    def num_available(self, key: RuntimeKey) -> int:
        """``num_avail[key]`` of Algorithms 1 and 2."""
        counts = self._counts.get(key)
        return counts[0] if counts else 0

    def num_total(self, key: RuntimeKey) -> int:
        """All pooled containers of this type (busy + available)."""
        counts = self._counts.get(key)
        return counts[1] if counts else 0

    # -- membership ---------------------------------------------------------
    def acquire(self, key: RuntimeKey, now: float) -> Optional[Container]:
        """Take the first available container of type ``key`` (Algorithm 1).

        "First" means earliest-registered, as in the original list scan.
        Returns ``None`` on miss — the caller then cold-boots.
        Tainted containers (SUSPECT in the health plane) are passed
        over but stay available, so they keep their place until the
        recycle loop drains them; nothing ever sets ``tainted`` when
        the health plane is off, so this costs one attribute read.
        """
        avail = self._avail_lists.get(key)
        skipped = None
        while avail:
            item = avail.pop()
            entry = item[1]
            if not (entry.available and entry.in_pool):
                continue  # stale copy left by remove()-while-available
            if entry.container.tainted:
                if skipped is None:
                    skipped = []
                skipped.append(item)
                continue
            entry.available = False
            entry.stamp += 1
            entry.last_used_at = now
            entry.counts[0] -= 1
            self._total_available -= 1
            self.stats.hits += 1
            if skipped:
                # Items were popped tail-first (ascending seq), so the
                # reverse re-extends the list in sorted order.
                avail.extend(reversed(skipped))
            if self.obs is not None:
                self.obs.emit(
                    EventKind.POOL_HIT, t=now, host=self._obs_host, key=str(key)
                )
                self.obs.counter(
                    "pool_hits_total",
                    help="Acquires served by a pooled warm container",
                    host=self._obs_host,
                    key=str(key),
                ).inc()
            return entry.container
        if skipped:
            avail.extend(reversed(skipped))
        self.stats.misses += 1
        if self.obs is not None:
            self.obs.emit(
                EventKind.POOL_MISS, t=now, host=self._obs_host, key=str(key)
            )
            self.obs.counter(
                "pool_misses_total",
                help="Acquires that fell through to a cold boot",
                host=self._obs_host,
                key=str(key),
            ).inc()
        return None

    def acquire_donor(
        self, key: RuntimeKey, now: float, reuse: str
    ) -> Optional[Container]:
        """Claim an idle container of ``key`` for a *different* target key.

        Serves the relaxed-fallback and repurpose paths: same
        earliest-registered pop as :meth:`acquire`, but the reuse lands
        in ``relaxed_hits`` / ``repurposed`` instead of ``hits`` — the
        requester's own exact-key miss has already been counted, so
        neither a hit nor a second miss is recorded against the donor
        key.  Returns ``None`` when the donor key has nothing idle.
        Tainted (SUSPECT) containers are never donated: a failing
        container must not contaminate another key.
        """
        if reuse not in ("relaxed", "repurpose"):
            raise ValueError(f"reuse must be 'relaxed' or 'repurpose', got {reuse!r}")
        avail = self._avail_lists.get(key)
        skipped = None
        while avail:
            item = avail.pop()
            entry = item[1]
            if not (entry.available and entry.in_pool):
                continue  # stale copy left by remove()-while-available
            if entry.container.tainted:
                if skipped is None:
                    skipped = []
                skipped.append(item)
                continue
            entry.available = False
            entry.stamp += 1
            entry.last_used_at = now
            entry.counts[0] -= 1
            self._total_available -= 1
            if skipped:
                avail.extend(reversed(skipped))
            if reuse == "relaxed":
                self.stats.relaxed_hits += 1
            else:
                self.stats.repurposed += 1
            if self.obs is not None and reuse == "relaxed":
                self.obs.emit(
                    EventKind.POOL_RELAXED_HIT,
                    t=now,
                    host=self._obs_host,
                    key=str(key),
                )
                self.obs.counter(
                    "pool_relaxed_hits_total",
                    help="Acquires served by reconfiguring a relaxed-key match",
                    host=self._obs_host,
                    key=str(key),
                ).inc()
            return entry.container
        if skipped:
            avail.extend(reversed(skipped))
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
            available=False,
            added_at=now,
            last_used_at=now,
            seq=self._seq,
        )
        self._seq += 1
        self._entries.setdefault(key, {})[container.container_id] = entry
        self._by_container[container.container_id] = entry
        counts = self._counts.setdefault(key, [0, 0])
        counts[1] += 1
        entry.counts = counts
        entry.avail_list = self._avail_lists.setdefault(key, [])
        entry.avail_item = (-entry.seq, entry)
        self.stats.registered += 1
        if available:
            self._make_available(entry)
        return entry

    def release(self, container: Container, now: float) -> None:
        """Mark a busy container available again (Algorithm 2's ++).

        This is the hot half of every warm invocation, so the body of
        :meth:`_make_available` is inlined here.
        """
        try:
            entry = self._by_container[container.container_id]
        except KeyError:
            raise KeyError(
                f"container {container.container_id} is not in the pool"
            ) from None
        if entry.available:
            raise ValueError(
                f"container {container.container_id} is already available"
            )
        entry.last_used_at = now
        entry.available = True
        entry.counts[0] += 1
        self._total_available += 1
        insort(entry.avail_list, entry.avail_item)
        if not entry.evict_pending:
            entry.evict_pending = True
            self._evict_pending.append(entry)

    def remove(self, container: Container) -> PoolEntry:
        """Forget a container (being stopped/evicted)."""
        entry = self._entry_of(container)
        self.stats.retired += 1
        self._unlink(entry)
        return entry

    def quarantine(self, container: Container) -> PoolEntry:
        """Pull a pooled container out of every availability index.

        The entry leaves the exact/relaxed/repurpose indices, the
        eviction heap and donor candidacy exactly like :meth:`remove`,
        but stays tracked in the quarantine set until
        :meth:`mark_recycled` closes it out — so conservation holds:
        ``registered == live + quarantine set + recycled + retired``.
        """
        entry = self._entry_of(container)
        self._quarantined[container.container_id] = entry
        self.stats.quarantined += 1
        self._unlink(entry)
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

    def _unlink(self, entry: PoolEntry) -> None:
        # Shared tail of remove()/quarantine(): drop the entry from
        # every index.
        container = entry.container
        entry.in_pool = False
        entry.stamp += 1
        del self._by_container[container.container_id]
        siblings = self._entries[entry.key]
        del siblings[container.container_id]
        counts = self._counts[entry.key]
        counts[1] -= 1
        if entry.available:
            counts[0] -= 1
            self._total_available -= 1
        if siblings:
            self._maybe_compact_avail(entry.key)
        else:
            del self._entries[entry.key]
            del self._counts[entry.key]
            self._avail_lists.pop(entry.key, None)
        self._maybe_compact_evictions()

    def discard_dead(
        self, container: Container, reuse: str = "hit"
    ) -> Optional[PoolEntry]:
        """Forget a just-acquired container that turned out dead.

        The preceding :meth:`acquire` / :meth:`acquire_donor` counted a
        reuse (selected by ``reuse``) for an entry that cannot serve the
        request; un-count it and record the discard so the ratios
        reflect lookups actually served (the caller's retry then counts
        the lookup exactly once).

        The donor paths yield a re-spec timeout between the claim and
        the liveness check, so a host-failover drain may have already
        removed the entry — in that case only the counters are adjusted
        and ``None`` is returned.
        """
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

    def is_available(self, container: Container) -> bool:
        """Whether the container is pooled *and* idle-available."""
        entry = self._by_container.get(container.container_id)
        return entry is not None and entry.available

    def reset(self) -> int:
        """Forget every entry and index: a control-plane crash.

        Mutates in place (the cleanup worker and HotC hold direct
        references to this pool) and keeps ``_seq`` monotonic so entries
        registered by a later recovery sweep never collide with stale
        availability-list or eviction-heap tuples still referenced by
        in-flight generators.  Stats survive — they are externally
        scraped counters, not recoverable state.  Returns the number of
        entries forgotten.
        """
        lost = len(self._by_container)
        for entry in self._by_container.values():
            entry.in_pool = False
            entry.stamp += 1
        self._entries.clear()
        self._by_container.clear()
        self._counts.clear()
        self._avail_lists.clear()
        # The quarantine set is in-memory control-plane state too; the
        # physical containers still carry ``condemned``, so the recovery
        # sweep retires them instead of re-adopting.
        self._quarantined.clear()
        self._evict_heap.clear()
        for entry in self._evict_pending:
            entry.evict_pending = False
        self._evict_pending.clear()
        self._total_available = 0
        return lost

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
        return self._total_available

    def keys(self) -> Tuple[RuntimeKey, ...]:
        """Keys with at least one pooled container."""
        return tuple(self._entries)

    def snapshot(self) -> Dict[RuntimeKey, Tuple[int, int]]:
        """Per-key ``(available, total)`` counts — predictor input."""
        return {
            key: (self._counts[key][0], self._counts[key][1])
            for key in self._entries
        }

    # -- eviction ----------------------------------------------------------
    def over_capacity(self) -> bool:
        """Whether the container-count cap is exceeded."""
        return self.total_live > self.limits.max_containers

    def eviction_candidate(self) -> Optional[PoolEntry]:
        """Pick the next victim among *available* entries.

        ``oldest``: smallest ``added_at`` (the paper's rule: "the oldest
        live container is forcibly terminated").
        ``lru``: smallest ``last_used_at``.
        ``largest``: biggest configured memory limit.
        Busy containers are never evicted.  Ties break on container id
        so eviction is deterministic: the candidate is the minimum over
        every live available entry under the strategy's sort key, which
        is independent of when its heap copy was pushed — so the
        deferred flush below cannot change the selection.
        """
        self._flush_pending_evictions()
        heap = self._evict_heap
        while heap:
            item = heap[0]
            entry, stamp = item[-1], item[-2]
            if entry.in_pool and entry.available and entry.stamp == stamp:
                return entry
            heapq.heappop(heap)
        return None

    def available_entries(self, key: RuntimeKey) -> Tuple[PoolEntry, ...]:
        """Idle entries of one key, oldest first (for scale-down)."""
        return tuple(
            sorted(
                (
                    e
                    for e in self._entries.get(key, {}).values()
                    if e.available
                ),
                key=lambda e: (e.added_at, e.container.container_id),
            )
        )

    def entries(self) -> Tuple[PoolEntry, ...]:
        """Snapshot of every pooled entry (busy and available).

        Returned as a tuple so callers can remove entries while
        iterating — HotC's dead-container drain does exactly that.
        """
        return tuple(self._by_container.values())

    def check_consistency(self) -> None:
        """Recount everything from the entry tables and compare.

        Raises ``AssertionError`` on any mismatch between the
        incrementally maintained counters and ground truth — the chaos
        tests call this to prove fault paths never corrupt bookkeeping.
        """
        recount: Dict[RuntimeKey, List[int]] = {}
        for key, siblings in self._entries.items():
            counts = recount.setdefault(key, [0, 0])
            for entry in siblings.values():
                assert entry.in_pool, f"removed entry still indexed: {entry}"
                assert (
                    self._by_container.get(entry.container.container_id)
                    is entry
                ), f"entry missing from by-container index: {entry}"
                counts[1] += 1
                if entry.available:
                    counts[0] += 1
        assert recount == self._counts, (
            f"per-key counters drifted: cached={self._counts} "
            f"actual={recount}"
        )
        total_avail = sum(c[0] for c in recount.values())
        assert total_avail == self._total_available, (
            f"total_available drifted: cached={self._total_available} "
            f"actual={total_avail}"
        )
        total = sum(c[1] for c in recount.values())
        assert total == len(self._by_container), (
            f"by-container index drifted: indexed={len(self._by_container)} "
            f"actual={total}"
        )
        # Quarantine-set disjointness from every availability index.
        for container_id, entry in self._quarantined.items():
            assert container_id not in self._by_container, (
                f"quarantined container {container_id} still pooled"
            )
            assert not entry.in_pool, (
                f"quarantined entry still flagged in-pool: {entry}"
            )
        for key, avail in self._avail_lists.items():
            for item in avail:
                entry = item[1]
                if entry.available and entry.in_pool:
                    assert (
                        entry.container.container_id not in self._quarantined
                    ), (
                        f"quarantined container "
                        f"{entry.container.container_id} still in the "
                        f"avail list of {key}"
                    )
        for item in self._evict_heap:
            entry = item[-1]
            if entry.in_pool and entry.available and entry.stamp == item[-2]:
                assert (
                    entry.container.container_id not in self._quarantined
                ), (
                    f"quarantined container {entry.container.container_id} "
                    "still live on the eviction heap"
                )

    # -- heap maintenance ---------------------------------------------------
    def _make_available(self, entry: PoolEntry) -> None:
        # The avail heap only goes stale via remove(), so compaction is
        # checked there.  Eviction bookkeeping is deferred: release only
        # records an (entry, stamp) pair; building the strategy sort
        # tuple (primary-key lambda, container-id string tie-breaker)
        # and the O(log n) heap push happen lazily in
        # eviction_candidate, which is called orders of magnitude less
        # often than release on the request hot path.
        entry.available = True
        entry.counts[0] += 1
        self._total_available += 1
        insort(entry.avail_list, entry.avail_item)
        if not entry.evict_pending:
            entry.evict_pending = True
            self._evict_pending.append(entry)

    def _flush_pending_evictions(self) -> None:
        # The heap copy is built with the entry's flush-time stamp and
        # sort fields; those are frozen while the entry stays available,
        # so the copy is ordered exactly as an eager release-time push
        # would have been.  Entries acquired or removed since their
        # release are simply skipped — their next release re-queues them.
        pending = self._evict_pending
        if not pending:
            return
        heap = self._evict_heap
        push = heappush
        for entry in pending:
            entry.evict_pending = False
            if entry.in_pool and entry.available:
                push(heap, self._evict_item(entry))
        pending.clear()
        self._maybe_compact_evictions()

    def _evict_item(self, entry: PoolEntry) -> Tuple:
        # seq precedes the entry so the tuple never compares entries.
        return (
            self._evict_primary(entry),
            entry.container.container_id,
            entry.seq,
            entry.stamp,
            entry,
        )

    @staticmethod
    def _live_copies(heap: List[Tuple]) -> List[Tuple]:
        return [
            item
            for item in heap
            if item[-1].in_pool
            and item[-1].available
            and item[-1].stamp == item[-2]
        ]

    def _maybe_compact_avail(self, key: RuntimeKey) -> None:
        avail = self._avail_lists.get(key)
        if avail and len(avail) > _COMPACT_MIN and len(avail) > 2 * self._counts[key][0]:
            # In place, not rebound (every PoolEntry of this key holds a
            # direct reference to this list); filtering preserves the
            # descending-seq sort order.
            avail[:] = [
                item for item in avail if item[1].available and item[1].in_pool
            ]

    def _maybe_compact_evictions(self) -> None:
        heap = self._evict_heap
        if len(heap) > _COMPACT_MIN and len(heap) > 2 * self._total_available:
            live = self._live_copies(heap)
            heapq.heapify(live)
            self._evict_heap = live
