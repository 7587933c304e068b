"""Recovery soak: controller crashes mid-storm must conserve requests.

Marked ``chaos`` (opt in with ``--chaos`` / ``REPRO_CHAOS=1``): a
3-host cluster with admission, health monitoring and crash/recovery all
attached rides out a storm that mixes the classic fault kinds with the
gray-failure ones (slowdowns, partitions, heartbeat loss) and at least
three control-plane crashes.  After the dust settles:

* **conservation** — every submitted request reaches exactly one
  terminal outcome (shed + done + missed + failed == submitted),
* **no leaked busy slots** — demand accounting and the cluster's
  in-flight routing map drain to zero,
* **no double-claimed containers** — a lease wrapper asserts no
  container is ever handed to two requests at once, across crashes,
* **reconciliation closed** — every recovery's post-verify sweep found
  nothing it could not repair (``manager.unrepaired == []``).
"""

import numpy as np
import pytest

from repro.admission import AdmissionConfig, AdmissionController, AIMDConfig
from repro.admission import aimd
from repro.core import HotCConfig, PoolLimits, make_cluster_platform
from repro.faults import FaultPlan
from repro.health import HealthMonitor
from repro.recovery import RecoveryManager
from repro.recovery import manager as recovery_manager
from repro.sim.rng import derive_seed
from tests.cluster_checks import assert_no_requests_held

SEEDS = [1, 2, 3, 4, 5]
DURATION_MS = 60_000.0
N_REQUESTS = 250
CRASHES = 3


def hotc_config():
    return HotCConfig(
        control_interval_ms=1_000.0,
        limits=PoolLimits(max_containers=12),
    )


@pytest.fixture(autouse=True)
def aimd_ceiling(monkeypatch):
    """Cap every AIMD limit at 32 (the default ceiling is 1,024)."""
    monkeypatch.setattr(aimd, "MAX_LIMIT", 32.0)


@pytest.fixture(autouse=True)
def checkpoint_cadence(monkeypatch):
    """Checkpoint every third control tick (the default is every fifth)."""
    monkeypatch.setattr(recovery_manager, "CHECKPOINT_EVERY_TICKS", 3)


def admission_config():
    return AdmissionConfig(
        max_queue_depth=32,
        aimd=AIMDConfig(initial_limit=8.0),
        default_deadline_ms=45_000.0,
    )


def fault_plan(seed, hosts):
    return FaultPlan.random(
        seed=seed,
        duration_ms=DURATION_MS,
        hosts=hosts,
        pool_deaths=4,
        outages=1,
        gray_slowdowns=2,
        partitions=1,
        heartbeat_losses=2,
        controller_crashes=CRASHES,
    )


def submit_workload(platform, seed, functions):
    rng = np.random.default_rng(derive_seed(seed, "recovery-workload"))
    t = 0.0
    for _ in range(N_REQUESTS):
        t += float(rng.exponential(DURATION_MS / N_REQUESTS))
        name = functions[int(rng.integers(len(functions)))]
        platform.submit(name, delay=t)
    return t


def wrap_with_lease_tracker(cluster):
    """Assert no container is ever claimed by two requests at once."""
    outstanding = set()
    original_acquire = cluster.acquire
    original_release = cluster.release
    original_discard = cluster.discard

    def acquire(config):
        container, cold = yield from original_acquire(config)
        cid = container.container_id
        assert cid not in outstanding, f"double-claimed {cid}"
        outstanding.add(cid)
        return container, cold

    def release(container):
        outstanding.discard(container.container_id)
        return original_release(container)

    def discard(container):
        outstanding.discard(container.container_id)
        return original_discard(container)

    cluster.acquire = acquire
    cluster.release = release
    cluster.discard = discard
    return outstanding


def build(registry, fn_python, fn_go, seed):
    platform = make_cluster_platform(
        registry, n_hosts=3, seed=seed, hotc_config=hotc_config()
    )
    for fn in (fn_python, fn_go):
        platform.deploy(fn.with_overrides(exec_ms=80.0))
    cluster = platform.provider
    platform.attach_admission(AdmissionController(admission_config()))
    monitor = HealthMonitor(platform.sim)
    monitor.attach(cluster.hosts)
    manager = RecoveryManager(cluster)
    return platform, cluster, monitor, manager


def run_storm(platform, cluster, monitor, manager, seed, functions):
    plan = fault_plan(seed, tuple(h.engine.name for h in cluster.hosts))
    plan.install(platform.sim, [h.engine for h in cluster.hosts])
    monitor.start()
    cluster.start_control_loops()
    last = submit_workload(platform, seed, functions)
    platform.run(until=max(last, DURATION_MS) + 30_000.0)
    cluster.stop_control_loops()
    monitor.stop()
    platform.run(until=platform.sim.now + 120_000.0)
    platform.sim.process(cluster.shutdown())
    platform.run(until=platform.sim.now + 60_000.0)
    return plan


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
class TestRecoverySoak:
    def test_soak(self, registry, fn_python, fn_go, seed, chaos_report):
        platform, cluster, monitor, manager = build(
            registry, fn_python, fn_go, seed
        )
        outstanding = wrap_with_lease_tracker(cluster)
        plan = run_storm(
            platform,
            cluster,
            monitor,
            manager,
            seed,
            [fn_python.name, fn_go.name],
        )

        # Conservation: every request reached exactly one terminal state.
        assert len(platform.traces) == N_REQUESTS
        assert platform.traces.all_terminal()
        outcomes = platform.traces.outcome_counts()
        assert sum(outcomes.values()) == N_REQUESTS

        # The storm really crashed the controller and it came back.
        assert plan.stats.controller_crashes >= CRASHES
        assert manager.stats.crashes == plan.stats.controller_crashes
        assert manager.stats.recoveries == manager.stats.crashes
        assert manager.stats.checkpoints_taken >= 1
        assert not manager.crashed

        # Reconciliation closed every divergence it found.
        assert manager.unrepaired == []

        # No leaked busy slots or dangling routing state.
        assert outstanding == set()
        assert_no_requests_held(cluster)
        for host in cluster.hosts:
            assert all(s.busy == 0 for s in host._keys.values()), (
                f"{host.engine.name}: busy leak"
            )
            assert host._pending_boots == {}, (
                f"{host.engine.name}: pending-boot leak"
            )
        cluster.check_consistency()

        chaos_report(
            seed=seed,
            plan=plan,
            platform=platform,
            crashes=manager.stats.crashes,
            recoveries=manager.stats.recoveries,
            repairs=manager.stats.repairs,
            phantoms=manager.stats.phantoms_purged,
            checkpoints=manager.stats.checkpoints_taken,
        )

    def test_soak_reproducible(self, registry, fn_python, fn_go, seed):
        """Same seed, same storm, same recoveries — bit for bit."""

        def run_once():
            platform, cluster, monitor, manager = build(
                registry, fn_python, fn_go, seed
            )
            plan = run_storm(
                platform,
                cluster,
                monitor,
                manager,
                seed,
                [fn_python.name, fn_go.name],
            )
            return (
                plan.stats.as_dict(),
                platform.traces.outcome_counts(),
                manager.stats.crashes,
                manager.stats.repairs,
                tuple(manager.store.versions()),
            )

        assert run_once() == run_once()
