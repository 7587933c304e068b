"""Unit tests for the container runtime pool (Fig 7 / Algorithms 1-2)."""

import pytest
from hypothesis import given, strategies as st

from repro.containers import Container, ContainerConfig
from repro.core import PoolLimits, runtime_key
from repro.core.pool import (
    AVAILABLE,
    NOT_AVAILABLE,
    NOT_EXISTING,
    ContainerRuntimePool,
)


def make_container(cid, image="python:3.6", mem_mb=128.0):
    return Container(cid, ContainerConfig(image=image, mem_mb=mem_mb), created_at=0.0)


def key_for(image="python:3.6", mem_mb=128.0):
    return runtime_key(ContainerConfig(image=image, mem_mb=mem_mb))


@pytest.fixture
def pool():
    return ContainerRuntimePool()


class TestTriState:
    def test_not_existing(self, pool):
        assert pool.state_of(key_for()) == NOT_EXISTING == -1

    def test_not_available_when_all_busy(self, pool):
        key = key_for()
        pool.register(make_container("c1"), key, now=0.0, available=False)
        assert pool.state_of(key) == NOT_AVAILABLE == 0

    def test_available(self, pool):
        key = key_for()
        pool.register(make_container("c1"), key, now=0.0, available=True)
        assert pool.state_of(key) == AVAILABLE == 1

    def test_transitions_match_fig7(self, pool):
        """-1 -> 0 (boot, busy) -> 1 (release) -> 0 (acquire) -> -1 (remove)."""
        key = key_for()
        container = make_container("c1")
        assert pool.state_of(key) == -1
        pool.register(container, key, now=0.0, available=False)
        assert pool.state_of(key) == 0
        pool.release(container, now=1.0)
        assert pool.state_of(key) == 1
        assert pool.acquire(key, now=2.0) is container
        assert pool.state_of(key) == 0
        pool.remove(container)
        assert pool.state_of(key) == -1


class TestAcquireRelease:
    def test_acquire_miss_returns_none(self, pool):
        assert pool.acquire(key_for(), now=0.0) is None
        assert pool.stats.misses == 1

    def test_acquire_hit_first_available(self, pool):
        key = key_for()
        first = make_container("c1")
        second = make_container("c2")
        pool.register(first, key, now=0.0, available=True)
        pool.register(second, key, now=0.0, available=True)
        assert pool.acquire(key, now=1.0) is first
        assert pool.stats.hits == 1
        assert pool.num_available(key) == 1

    def test_busy_containers_not_returned(self, pool):
        key = key_for()
        pool.register(make_container("c1"), key, now=0.0, available=False)
        assert pool.acquire(key, now=1.0) is None

    def test_num_avail_bookkeeping(self, pool):
        """Algorithm 1: num_avail-- on reuse; Algorithm 2: ++ on cleanup."""
        key = key_for()
        container = make_container("c1")
        pool.register(container, key, now=0.0, available=True)
        assert pool.num_available(key) == 1
        pool.acquire(key, now=1.0)
        assert pool.num_available(key) == 0
        pool.release(container, now=2.0)
        assert pool.num_available(key) == 1

    def test_double_release_rejected(self, pool):
        key = key_for()
        container = make_container("c1")
        pool.register(container, key, now=0.0, available=True)
        with pytest.raises(ValueError, match="already available"):
            pool.release(container, now=1.0)

    def test_release_unknown_rejected(self, pool):
        with pytest.raises(KeyError):
            pool.release(make_container("ghost"), now=0.0)

    def test_double_register_rejected(self, pool):
        key = key_for()
        container = make_container("c1")
        pool.register(container, key, now=0.0)
        with pytest.raises(ValueError, match="already pooled"):
            pool.register(container, key, now=0.0)

    def test_keys_isolated(self, pool):
        pool.register(make_container("c1"), key_for("a:1"), now=0.0, available=True)
        assert pool.acquire(key_for("b:1"), now=1.0) is None
        assert pool.num_available(key_for("a:1")) == 1


class TestAggregates:
    def test_totals_and_snapshot(self, pool):
        key_a, key_b = key_for("a:1"), key_for("b:1")
        pool.register(make_container("a1"), key_a, now=0.0, available=True)
        pool.register(make_container("a2"), key_a, now=0.0, available=False)
        pool.register(make_container("b1"), key_b, now=0.0, available=True)
        assert pool.total_live == 3
        assert pool.total_available == 2
        assert pool.snapshot() == {key_a: (1, 2), key_b: (1, 1)}
        assert set(pool.keys()) == {key_a, key_b}

    def test_hit_ratio(self, pool):
        key = key_for()
        container = make_container("c1")
        pool.register(container, key, now=0.0, available=True)
        pool.acquire(key, now=1.0)          # hit
        pool.acquire(key_for("x:1"), now=1.0)  # miss
        assert pool.stats.hit_ratio == pytest.approx(0.5)

    def test_empty_hit_ratio(self, pool):
        assert pool.stats.hit_ratio == 0.0


class TestLimits:
    def test_limit_validation(self):
        with pytest.raises(ValueError):
            PoolLimits(max_containers=-1)
        with pytest.raises(ValueError):
            PoolLimits(memory_threshold=0.0)
        with pytest.raises(ValueError):
            PoolLimits(memory_threshold=1.5)

    def test_paper_defaults(self):
        """Section IV-B: 500 live containers max, 80% memory threshold."""
        limits = PoolLimits()
        assert limits.max_containers == 500
        assert limits.memory_threshold == 0.8

    def test_over_capacity(self):
        pool = ContainerRuntimePool(limits=PoolLimits(max_containers=1))
        key = key_for()
        pool.register(make_container("c1"), key, now=0.0)
        assert not pool.over_capacity()
        pool.register(make_container("c2"), key, now=0.0)
        assert pool.over_capacity()


class TestEviction:
    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            ContainerRuntimePool(eviction="random")

    def test_oldest_strategy_picks_first_added(self):
        pool = ContainerRuntimePool(eviction="oldest")
        key = key_for()
        old = make_container("c-old")
        new = make_container("c-new")
        pool.register(old, key, now=0.0, available=True)
        pool.register(new, key, now=10.0, available=True)
        # Recent use must not protect the oldest-added container.
        pool.acquire(key, now=20.0)
        pool.release(old, now=30.0)
        assert pool.eviction_candidate().container is old

    def test_lru_strategy_picks_least_recent(self):
        pool = ContainerRuntimePool(eviction="lru")
        key = key_for()
        first = make_container("c1")
        second = make_container("c2")
        pool.register(first, key, now=0.0, available=True)
        pool.register(second, key, now=1.0, available=True)
        pool.acquire(key, now=50.0)  # touches first
        pool.release(first, now=60.0)
        assert pool.eviction_candidate().container is second

    def test_largest_strategy_picks_biggest(self):
        pool = ContainerRuntimePool(eviction="largest")
        small = make_container("c-small", image="a:1", mem_mb=64)
        big = make_container("c-big", image="b:1", mem_mb=512)
        pool.register(small, key_for("a:1", 64), now=0.0, available=True)
        pool.register(big, key_for("b:1", 512), now=1.0, available=True)
        assert pool.eviction_candidate().container is big

    def test_busy_containers_never_evicted(self):
        pool = ContainerRuntimePool()
        key = key_for()
        pool.register(make_container("c1"), key, now=0.0, available=False)
        assert pool.eviction_candidate() is None

    def test_available_entries_oldest_first(self, pool):
        key = key_for()
        ids = ["c3", "c1", "c2"]
        for index, cid in enumerate(ids):
            pool.register(make_container(cid), key, now=float(index), available=True)
        ordered = [e.container.container_id for e in pool.available_entries(key)]
        assert ordered == ["c3", "c1", "c2"]  # by added_at, not id


class TestDeferredEvictionList:
    """Retired entries must not pile up on the deferred-eviction list
    when nothing ever asks for an eviction candidate."""

    def test_register_release_remove_stays_bounded(self, pool):
        key = key_for()
        for index in range(5_000):
            container = make_container(f"c{index}")
            pool.register(container, key, now=float(index), available=False)
            pool.release(container, now=float(index))
            pool.remove(container)
            assert len(pool._evict_pending) <= 2 * pool.total_live + 64
        assert pool.total_live == 0
        assert pool.stats.retired == 5_000
        pool.check_consistency()

    def test_candidate_unchanged_by_dropping_retired_entries(self, pool):
        key = key_for()
        kept = []
        for index in range(400):
            container = make_container(f"c{index:03d}")
            pool.register(container, key, now=float(index), available=True)
            if index % 100 == 50:
                kept.append(container)
        for entry in pool.entries():
            if entry.container not in kept:
                pool.remove(entry.container)
        assert len(pool._evict_pending) <= 2 * pool.total_live + 64
        pool.check_consistency()
        assert pool.eviction_candidate().container is kept[0]


class TestDeadDiscards:
    def test_discard_dead_uncounts_hit(self, pool):
        key = key_for()
        container = make_container("c1")
        pool.register(container, key, now=0.0, available=True)
        assert pool.acquire(key, now=1.0) is container
        pool.discard_dead(container)
        assert pool.stats.hits == 0
        assert pool.stats.dead_discards == 1
        assert pool.stats.retired == 1
        assert not pool.contains(container)
        # The retry is then the only lookup on record.
        assert pool.acquire(key, now=2.0) is None
        assert pool.stats.misses == 1
        assert pool.stats.hit_ratio == 0.0


class TestPoolInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["register", "acquire", "release", "remove"]),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=60,
        )
    )
    def test_counts_always_consistent(self, operations):
        """Property: total_available <= total_live and per-key counts sum."""
        pool = ContainerRuntimePool()
        keys = [key_for(f"img{i}:1") for i in range(5)]
        containers = {}
        counter = 0
        now = 0.0
        for op, key_index in operations:
            now += 1.0
            key = keys[key_index]
            if op == "register":
                container = make_container(f"c{counter}", image=f"img{key_index}:1")
                counter += 1
                pool.register(container, key, now=now, available=True)
                containers[container.container_id] = (container, key)
            elif op == "acquire":
                pool.acquire(key, now=now)
            elif op == "release":
                for container, container_key in containers.values():
                    if container_key == key and pool.contains(container):
                        try:
                            pool.release(container, now=now)
                        except ValueError:
                            pass
                        break
            elif op == "remove":
                for cid, (container, container_key) in list(containers.items()):
                    if container_key == key and pool.contains(container):
                        pool.remove(container)
                        del containers[cid]
                        break
            assert pool.total_available <= pool.total_live
            assert pool.total_live == sum(
                pool.num_total(k) for k in pool.keys()
            )
            assert pool.total_available == sum(
                pool.num_available(k) for k in pool.keys()
            )
            for k in pool.keys():
                state = pool.state_of(k)
                if pool.num_available(k) > 0:
                    assert state == AVAILABLE
                else:
                    assert state == NOT_AVAILABLE
