"""Quarantine-set semantics and the container conservation law.

The pool's quarantine set is the mechanism behind the health plane's
QUARANTINED state: an entry leaves every availability index (exact,
donor, eviction) but stays accounted for until its recycle completes.
These tests pin the index-disjointness invariants and the conservation
property

    registered == live + quarantined + recycled + retired

across randomized operation sequences and a host-failover drain.
"""

import random

import pytest

from repro.containers import Container, ContainerConfig
from repro.core import runtime_key
from repro.core.pool import ContainerRuntimePool


def make_container(cid, image="img0:1", mem_mb=64.0):
    return Container(cid, ContainerConfig(image=image, mem_mb=mem_mb), created_at=0.0)


def make_key(image="img0:1", mem_mb=64.0):
    return runtime_key(ContainerConfig(image=image, mem_mb=mem_mb))


def assert_conservation(pool):
    stats = pool.stats
    assert stats.registered == (
        pool.total_live
        + pool.total_quarantined
        + stats.recycled
        + stats.retired
    ), (
        f"conservation violated: registered={stats.registered} "
        f"live={pool.total_live} quarantined={pool.total_quarantined} "
        f"recycled={stats.recycled} retired={stats.retired}"
    )


class TestQuarantineSemantics:
    def test_quarantine_leaves_every_index(self):
        pool = ContainerRuntimePool()
        key = make_key()
        container = make_container("c0")
        pool.register(container, key, now=0.0, available=True)
        pool.quarantine(container)
        assert pool.is_quarantined(container)
        assert pool.total_quarantined == 1
        assert not pool.contains(container)
        assert pool.acquire(key, now=1.0) is None
        assert pool.acquire_donor(key, now=1.0, reuse="repurpose") is None
        assert pool.eviction_candidate() is None
        assert pool.num_available(key) == 0
        assert pool.num_total(key) == 0
        pool.check_consistency()

    def test_quarantine_busy_entry(self):
        """A busy (acquired) container can be quarantined at release time."""
        pool = ContainerRuntimePool()
        key = make_key()
        container = make_container("c0")
        pool.register(container, key, now=0.0, available=False)
        pool.quarantine(container)
        assert pool.total_quarantined == 1
        assert pool.total_live == 0
        pool.check_consistency()

    def test_mark_recycled_closes_out(self):
        pool = ContainerRuntimePool()
        key = make_key()
        container = make_container("c0")
        pool.register(container, key, now=0.0, available=True)
        pool.quarantine(container)
        entry = pool.mark_recycled(container)
        assert entry.container is container
        assert pool.total_quarantined == 0
        assert pool.stats.recycled == 1
        assert_conservation(pool)
        pool.check_consistency()

    def test_mark_recycled_requires_quarantine(self):
        pool = ContainerRuntimePool()
        key = make_key()
        container = make_container("c0")
        pool.register(container, key, now=0.0, available=True)
        with pytest.raises(KeyError):
            pool.mark_recycled(container)

    def test_tainted_skipped_by_acquire_and_donor(self):
        """SUSPECT containers serve nobody but stay pooled (satellite fix)."""
        pool = ContainerRuntimePool()
        key = make_key()
        bad = make_container("bad")
        bad.tainted = True
        good = make_container("good")
        pool.register(bad, key, now=0.0, available=True)
        pool.register(good, key, now=1.0, available=True)
        # Exact acquire must skip the tainted entry and serve the good
        # one, even though the tainted one is older (earlier seq).
        got = pool.acquire(key, now=2.0)
        assert got is good
        pool.release(good, now=3.0)
        got = pool.acquire_donor(key, now=4.0, reuse="repurpose")
        assert got is good
        # Only the tainted entry left: both paths come up empty.
        assert pool.acquire(key, now=5.0) is None
        assert pool.acquire_donor(key, now=5.0, reuse="relaxed") is None
        # The skip must not corrupt the availability accounting.
        pool.check_consistency()
        # Clearing the taint restores the entry without re-registering.
        bad.tainted = False
        assert pool.acquire(key, now=6.0) is bad

    def test_reset_clears_quarantine_set(self):
        pool = ContainerRuntimePool()
        key = make_key()
        container = make_container("c0")
        container.condemned = True
        pool.register(container, key, now=0.0, available=True)
        pool.quarantine(container)
        pool.reset()
        assert pool.total_quarantined == 0
        # The verdict itself survives on the container (ground truth
        # for the recovery sweep).
        assert container.condemned
        pool.check_consistency()


class TestConservationProperty:
    @pytest.mark.parametrize("seed", [7, 19, 41])
    def test_random_sequences_conserve_containers(self, seed):
        rng = random.Random(seed)
        pool = ContainerRuntimePool()
        keys = [make_key(f"img{i}:1", 64.0 * (i + 1)) for i in range(4)]
        pooled = {}
        quarantined = {}
        counter = [0]

        def op_register():
            index = rng.randrange(len(keys))
            cid = f"c{counter[0]}"
            counter[0] += 1
            container = make_container(cid, f"img{index}:1", 64.0 * (index + 1))
            pool.register(
                container, keys[index], now=0.0, available=rng.random() < 0.6
            )
            pooled[cid] = container

        def op_acquire_release():
            container = pool.acquire(rng.choice(keys), now=1.0)
            if container is not None:
                pool.release(container, now=2.0)

        def op_remove():
            if not pooled:
                return
            cid = rng.choice(sorted(pooled))
            pool.remove(pooled.pop(cid))

        def op_quarantine():
            if not pooled:
                return
            cid = rng.choice(sorted(pooled))
            container = pooled.pop(cid)
            container.tainted = container.condemned = True
            pool.quarantine(container)
            quarantined[cid] = container

        def op_recycle():
            if not quarantined:
                return
            cid = rng.choice(sorted(quarantined))
            pool.mark_recycled(quarantined.pop(cid))

        ops = (
            [op_register] * 6
            + [op_acquire_release] * 4
            + [op_remove] * 2
            + [op_quarantine] * 3
            + [op_recycle] * 2
        )
        for step in range(2_000):
            rng.choice(ops)()
            assert_conservation(pool)
            if step % 200 == 0:
                pool.check_consistency()
        pool.check_consistency()

    def test_conservation_across_host_failover(self):
        """A failover drain retires dead entries without leaking any.

        Mirrors what ``HotC.drain_lost`` does when the cluster declares
        a host lost: every entry whose container died is removed; the
        quarantine set (its containers also dead) is closed out by the
        in-flight recycles.  Nothing may go missing from the ledger.
        """
        pool = ContainerRuntimePool()
        key = make_key()
        containers = [make_container(f"c{i}") for i in range(8)]
        for index, container in enumerate(containers):
            pool.register(container, key, now=float(index), available=True)
        # Two verdicts land before the outage.
        for container in containers[:2]:
            container.tainted = container.condemned = True
            pool.quarantine(container)
        assert_conservation(pool)
        # Host dies: the drain removes every remaining entry…
        for container in containers[2:]:
            pool.remove(container)
        # …and the queued recycles close out the quarantined ones.
        for container in containers[:2]:
            pool.mark_recycled(container)
        assert pool.total_live == 0
        assert pool.total_quarantined == 0
        assert pool.stats.registered == 8
        assert pool.stats.retired == 6
        assert pool.stats.recycled == 2
        assert_conservation(pool)
        pool.check_consistency()
