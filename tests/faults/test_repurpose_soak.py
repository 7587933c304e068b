"""Chaos soak for inter-key repurposing under fault storms.

Marked ``chaos`` (opt in with ``--chaos`` / ``REPRO_CHAOS=1``): drives a
seeded workload of same-base (repurposable) functions through a cluster
while a randomized :class:`~repro.faults.FaultPlan` kills boots, pooled
containers and whole hosts, and asserts on top of the usual soak
invariants that no donor container is ever double-claimed — the
repurpose path yields a re-spec timeout between claiming a donor and
handing it out, and a host-failover drain racing that window must never
let a second request walk off with the same container.
"""

import numpy as np
import pytest

from repro.containers import Registry, derive_image, make_base_image
from repro.core import HotCConfig, KeyPolicy, PoolLimits, make_cluster_platform
from repro.core import hotc as hotc_module
from repro.faas import FunctionSpec
from repro.faults import FaultPlan
from repro.sim.rng import derive_seed
from tests.cluster_checks import assert_no_requests_held

SEEDS = [1, 2, 3, 4, 5]
DURATION_MS = 60_000.0
N_REQUESTS = 250

PY_BASE = make_base_image("python", "3.6", size_mb=330, language="python")
NODE_BASE = make_base_image("node", "10", size_mb=290, language="node")


def build_registry_and_functions():
    """Six functions over two shared bases, each with its own image.

    Distinct derived images mean exact and relaxed keys never match
    across functions — every warm reuse between functions must go
    through the repurpose path.
    """
    images, specs = [PY_BASE, NODE_BASE], []
    for index in range(6):
        base = PY_BASE if index % 2 == 0 else NODE_BASE
        image = derive_image(
            base, name=f"app/fn-{index}", tag="1", extra_mb=10.0 + 2.0 * index
        )
        images.append(image)
        specs.append(
            FunctionSpec(
                name=f"fn-{index}",
                image=image.reference,
                language=base.language,
                exec_ms=80.0,
            )
        )
    return Registry(images), specs


@pytest.fixture(autouse=True)
def no_prewarm(monkeypatch):
    """Prewarm off: the controller's scale-down otherwise pins every
    key's pool at exactly its forecast need, leaving no donation
    headroom — this soak wants idle donors to accumulate so the
    repurpose claim window actually races the fault storm.  The
    control loop still runs: its observations drive the donor veto."""
    monkeypatch.setattr(hotc_module, "PREWARM", False)


def hotc_config():
    return HotCConfig(
        control_interval_ms=1_000.0,
        limits=PoolLimits(max_containers=12),
        fallback_key_policy=KeyPolicy.RELAXED,
        repurpose=True,
    )


def submit_workload(platform, seed, functions):
    """Phase-shifted demand: popularity moves between same-base functions.

    The first third hammers one function per base; demand then shifts
    to the *other* functions of each base, so the decaying forecasts of
    the phase-1 keys free their now-idle containers for donation — the
    exact over-provisioning the repurpose path is meant to harvest.
    """
    rng = np.random.default_rng(derive_seed(seed, "repurpose-chaos"))
    phase1 = functions[:2]
    phase2 = functions[2:]
    t = 0.0
    for index in range(N_REQUESTS):
        t += float(rng.exponential(DURATION_MS / N_REQUESTS))
        if t < DURATION_MS / 3:
            pool = phase1
        elif t < 2 * DURATION_MS / 3:
            pool = phase2
        else:
            pool = functions
        name = pool[int(rng.integers(len(pool)))]
        platform.submit(name, delay=t)
    return t


def wrap_claim_tracking(hosts):
    """Track every container handed out by any host's pool.

    A container is *claimed* when ``acquire``/``acquire_donor`` returns
    it and unclaimed when it re-enters pool bookkeeping (release,
    re-registration after a donor adoption, removal, or a dead
    discard).  Claiming an already-claimed container is the
    double-claim bug the donor re-spec window could introduce.
    """
    claimed = {}

    def claim(container, how, host_name):
        cid = container.container_id
        assert cid not in claimed, (
            f"container {cid} double-claimed via {how} on {host_name}; "
            f"outstanding claim: {claimed[cid]}"
        )
        claimed[cid] = (how, host_name)

    for host in hosts:
        pool = host.pool
        name = host.engine.name

        def acquire(key, now, _orig=pool.acquire, _name=name):
            container = _orig(key, now=now)
            if container is not None:
                claim(container, "acquire", _name)
            return container

        def acquire_donor(key, now, reuse, _orig=pool.acquire_donor, _name=name):
            container = _orig(key, now=now, reuse=reuse)
            if container is not None:
                claim(container, f"acquire_donor:{reuse}", _name)
            return container

        def release(container, now, _orig=pool.release):
            claimed.pop(container.container_id, None)
            return _orig(container, now=now)

        def register(container, key, now, available=False, _orig=pool.register):
            claimed.pop(container.container_id, None)
            return _orig(container, key, now=now, available=available)

        def remove(container, _orig=pool.remove):
            claimed.pop(container.container_id, None)
            return _orig(container)

        def discard_dead(container, reuse="hit", _orig=pool.discard_dead):
            claimed.pop(container.container_id, None)
            return _orig(container, reuse=reuse)

        pool.acquire = acquire
        pool.acquire_donor = acquire_donor
        pool.release = release
        pool.register = register
        pool.remove = remove
        pool.discard_dead = discard_dead
    return claimed


def spawn_invariant_monitor(platform, hosts, interval_ms=500.0, provider=None):
    def monitor():
        while True:
            yield platform.sim.timeout(interval_ms)
            if provider is not None:
                provider.check_consistency()
            for host in hosts:
                host.pool.check_consistency()
                cap = host.config.limits.max_containers
                live = host.pool.total_live
                pending = host._pending_total()
                assert live + pending <= cap, (
                    f"{host.engine.name}: {live} live + {pending} pending "
                    f"boots exceeds cap {cap} at t={platform.sim.now}"
                )

    platform.sim.process(monitor(), name="invariant-monitor")


def assert_quiescent(platform, hosts):
    for host in hosts:
        host.pool.check_consistency()
        assert all(s.busy == 0 for s in host._keys.values()), (
            f"{host.engine.name}: busy leak"
        )
        assert host._pending_boots == {}, (
            f"{host.engine.name}: pending-boot leak {host._pending_boots}"
        )
    assert platform.traces.all_terminal()


def drain_and_shutdown(platform, cluster):
    cluster.stop_control_loops()
    platform.run(until=platform.sim.now + 120_000.0)
    platform.sim.process(cluster.shutdown())
    platform.run(until=platform.sim.now + 60_000.0)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
class TestRepurposeChaos:
    def test_soak(self, seed, chaos_report):
        registry, specs = build_registry_and_functions()
        platform = make_cluster_platform(
            registry,
            n_hosts=3,
            seed=seed,
            hotc_config=hotc_config(),
        )
        for spec in specs:
            platform.deploy(spec)
        cluster = platform.provider
        claimed = wrap_claim_tracking(cluster.hosts)
        spawn_invariant_monitor(platform, cluster.hosts, provider=cluster)

        plan = FaultPlan.random(
            seed=seed,
            duration_ms=DURATION_MS,
            hosts=tuple(h.engine.name for h in cluster.hosts),
            pool_deaths=4,
            outages=2,
        )
        plan.install(platform.sim, [h.engine for h in cluster.hosts])
        cluster.start_control_loops()

        last = submit_workload(platform, seed, [s.name for s in specs])
        platform.run(until=last + 30_000.0)
        drain_and_shutdown(platform, cluster)

        assert len(platform.traces) == N_REQUESTS
        assert_quiescent(platform, cluster.hosts)
        cluster.check_consistency()
        assert_no_requests_held(cluster)
        assert claimed == {}, f"claims leaked past shutdown: {claimed}"
        assert plan.stats.total > 0, "the storm injected nothing"
        repurposed = sum(h.pool.stats.repurposed for h in cluster.hosts)
        relaxed = sum(h.pool.stats.relaxed_hits for h in cluster.hosts)
        assert repurposed > 0, "the repurpose path never engaged"
        # The cluster's routing copy agrees with the per-host pool counts.
        assert cluster.stats.repurposes == repurposed
        assert cluster.stats.relaxed_hits == relaxed
        # The counters the drain race could corrupt stayed sane.
        for host in cluster.hosts:
            stats = host.pool.stats
            assert stats.repurposed >= 0
            assert stats.relaxed_hits >= 0
            assert stats.hits >= 0
        chaos_report(
            seed=seed,
            plan=plan,
            platform=platform,
            repurposed=repurposed,
            relaxed_hits=relaxed,
            hosts_lost=cluster.stats.hosts_lost,
            failovers=cluster.stats.failovers,
        )

    def test_soak_reproducible(self, seed):
        """Same seed, same storm: reuse counters must match exactly."""

        def run_once():
            registry, specs = build_registry_and_functions()
            platform = make_cluster_platform(
                registry,
                n_hosts=3,
                seed=seed,
                hotc_config=hotc_config(),
            )
            for spec in specs:
                platform.deploy(spec)
            cluster = platform.provider
            plan = FaultPlan.random(
                seed=seed,
                duration_ms=DURATION_MS,
                hosts=tuple(h.engine.name for h in cluster.hosts),
                pool_deaths=4,
                outages=2,
            )
            plan.install(platform.sim, [h.engine for h in cluster.hosts])
            cluster.start_control_loops()
            last = submit_workload(platform, seed, [s.name for s in specs])
            platform.run(until=last + 30_000.0)
            drain_and_shutdown(platform, cluster)
            return (
                plan.stats.as_dict(),
                platform.traces.outcome_counts(),
                tuple(
                    (h.pool.stats.repurposed, h.pool.stats.relaxed_hits)
                    for h in cluster.hosts
                ),
            )

        assert run_once() == run_once()
