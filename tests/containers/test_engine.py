"""Unit tests for the container engine (sim-process API)."""

import gc
import weakref

import pytest

from repro.containers import (
    Container,
    ContainerConfig,
    ContainerEngine,
    ContainerError,
    ContainerState,
    ExecSpec,
    NetworkConfig,
    Registry,
    make_base_image,
)
from repro.faults import BootFailure, ExecCrash, FaultInjector, HostDownError
from repro.hardware import RASPBERRY_PI3, T430_SERVER
from repro.sim import Simulator


@pytest.fixture
def registry():
    return Registry(
        [
            make_base_image("alpine", "3.8", size_mb=5),
            make_base_image("python", "3.6", size_mb=330, language="python"),
            make_base_image("golang", "1.11", size_mb=310, language="go"),
        ]
    )


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def engine(sim, registry):
    return ContainerEngine(sim, registry, profile=T430_SERVER, rng=None)


def run_process(sim, generator):
    proc = sim.process(generator)
    sim.run()
    if not proc.ok:
        raise proc.value
    return proc.value


def boot(sim, engine, image="python:3.6", **overrides):
    config = ContainerConfig(image=image, **overrides)
    return run_process(sim, engine.boot_container(config))


class TestBoot:
    def test_boot_produces_running_container(self, sim, engine):
        container = boot(sim, engine)
        assert container.state is ContainerState.RUNNING
        assert container.is_reusable
        assert container.volume is not None
        assert engine.live_count == 1
        assert engine.stats.boots == 1

    def test_boot_takes_time(self, sim, engine):
        boot(sim, engine)
        assert sim.now > 0

    def test_first_boot_pulls_image(self, sim, engine):
        boot(sim, engine)
        assert engine.stats.image_pulls == 1
        assert engine.has_image("python:3.6")

    def test_second_boot_uses_cache(self, sim, engine):
        boot(sim, engine)
        t_first = sim.now
        boot(sim, engine)
        t_second = sim.now - t_first
        assert engine.stats.image_pulls == 1
        assert t_second < t_first  # no pull the second time

    def test_overlay_network_is_expensive(self, registry):
        def boot_time(mode):
            sim = Simulator()
            engine = ContainerEngine(sim, registry, rng=None)
            # Warm the image cache so only boot cost is measured.
            run_process(sim, engine.ensure_image("python:3.6"))
            start = sim.now
            run_process(
                sim,
                engine.boot_container(
                    ContainerConfig(
                        image="python:3.6", network=NetworkConfig(mode=mode)
                    )
                ),
            )
            return sim.now - start

        host_time = boot_time("multihost-host")
        overlay_time = boot_time("overlay")
        # Fig 4c: overlay startup far beyond host mode networking.
        assert overlay_time > 3 * host_time

    def test_container_mode_needs_live_peer(self, sim, engine):
        proxy = boot(sim, engine)
        joined = run_process(
            sim,
            engine.boot_container(
                ContainerConfig(
                    image="python:3.6",
                    network=NetworkConfig(
                        mode="container", peer=proxy.container_id
                    ),
                )
            ),
        )
        assert joined.state is ContainerState.RUNNING

    def test_container_mode_missing_peer_raises(self, sim, engine):
        with pytest.raises(ContainerError, match="no such container"):
            run_process(
                sim,
                engine.boot_container(
                    ContainerConfig(
                        image="python:3.6",
                        network=NetworkConfig(mode="container", peer="ghost"),
                    )
                ),
            )


class TestExecute:
    def test_first_exec_is_cold(self, sim, engine):
        container = boot(sim, engine)
        result = run_process(
            sim, engine.execute(container, ExecSpec(app_id="fn", exec_ms=50))
        )
        assert result.cold_start
        assert result.runtime_init_ms > 0
        assert engine.stats.cold_execs == 1

    def test_second_exec_is_warm_and_faster(self, sim, engine):
        container = boot(sim, engine)
        cold = run_process(
            sim, engine.execute(container, ExecSpec(app_id="fn", exec_ms=50))
        )
        warm = run_process(
            sim, engine.execute(container, ExecSpec(app_id="fn", exec_ms=50))
        )
        assert not warm.cold_start
        assert warm.total_ms < cold.total_ms
        assert engine.stats.warm_execs == 1
        assert engine.stats.reuse_ratio == pytest.approx(0.5)

    def test_app_init_skipped_on_same_app(self, sim, engine):
        container = boot(sim, engine)
        spec = ExecSpec(app_id="model", exec_ms=50, app_init_ms=500)
        first = run_process(sim, engine.execute(container, spec))
        second = run_process(sim, engine.execute(container, spec))
        assert first.app_init_ms > 0
        assert second.app_init_ms == 0

    def test_app_init_paid_when_app_changes(self, sim, engine):
        container = boot(sim, engine)
        run_process(
            sim, engine.execute(container, ExecSpec(app_id="a", exec_ms=10, app_init_ms=100))
        )
        other = run_process(
            sim, engine.execute(container, ExecSpec(app_id="b", exec_ms=10, app_init_ms=100))
        )
        assert other.app_init_ms > 0

    def test_exec_on_busy_container_rejected(self, sim, engine):
        container = boot(sim, engine)
        proc = sim.process(engine.execute(container, ExecSpec(app_id="x", exec_ms=1000)))
        sim.run(until=sim.now + 1)  # container now EXECUTING
        with pytest.raises(ContainerError, match="not running"):
            next(engine.execute(container, ExecSpec(app_id="y")))
        sim.run()
        assert proc.ok

    def test_language_mismatch_rejected(self, sim, engine):
        container = boot(sim, engine)
        with pytest.raises(ContainerError, match="python"):
            next(engine.execute(container, ExecSpec(app_id="x", language="go")))

    def test_payload_runs_and_returns(self, sim, engine):
        container = boot(sim, engine)
        result = run_process(
            sim,
            engine.execute(
                container,
                ExecSpec(app_id="calc", exec_ms=1, payload=lambda: 6 * 7),
            ),
        )
        assert result.output == 42

    def test_exec_writes_to_volume(self, sim, engine):
        container = boot(sim, engine)
        run_process(
            sim, engine.execute(container, ExecSpec(app_id="w", exec_ms=1, write_mb=3.0))
        )
        assert container.volume.bytes_mb == pytest.approx(3.0)

    def test_exec_resources_released(self, sim, engine):
        container = boot(sim, engine)
        before = engine.resources.cpu_used_millicores
        run_process(sim, engine.execute(container, ExecSpec(app_id="x", exec_ms=5)))
        assert engine.resources.cpu_used_millicores == pytest.approx(before)

    def test_capacity_backpressure_serializes_execs(self, registry):
        """When the host cannot fit two execs, the second waits."""
        sim = Simulator()
        engine = ContainerEngine(sim, registry, profile=RASPBERRY_PI3, rng=None)
        c1 = run_process(
            sim,
            engine.boot_container(
                ContainerConfig(image="alpine:3.8", cpu_millicores=3000, mem_mb=100)
            ),
        )
        c2 = run_process(
            sim,
            engine.boot_container(
                ContainerConfig(image="alpine:3.8", cpu_millicores=3000, mem_mb=100)
            ),
        )
        # Pi has 4000 millicores: the two 3000m execs cannot overlap.
        p1 = sim.process(engine.execute(c1, ExecSpec(app_id="a", exec_ms=100)))
        p2 = sim.process(engine.execute(c2, ExecSpec(app_id="b", exec_ms=100)))
        sim.run()
        assert p1.ok and p2.ok
        a, b = p1.value, p2.value
        overlap = min(a.finished_at, b.finished_at) - max(a.started_at, b.started_at)
        # The waiting exec holds EXECUTING state while queued, so compare
        # actual execution windows via resource non-overlap: total time
        # must be at least the sum of both runtime phases.
        assert (
            max(a.finished_at, b.finished_at) - min(a.started_at, b.started_at)
            >= (a.exec_ms + b.exec_ms)
        )


class TestCleanup:
    def test_clean_swaps_volume(self, sim, engine):
        container = boot(sim, engine)
        run_process(
            sim, engine.execute(container, ExecSpec(app_id="w", exec_ms=1, write_mb=2.0))
        )
        old_volume = container.volume
        fresh = run_process(sim, engine.clean_container(container))
        assert container.volume is fresh
        assert fresh is not old_volume
        assert old_volume.deleted
        assert fresh.bytes_mb == 0
        assert engine.stats.volume_wipes == 1

    def test_clean_keeps_runtime_hot(self, sim, engine):
        container = boot(sim, engine)
        run_process(sim, engine.execute(container, ExecSpec(app_id="x", exec_ms=1)))
        run_process(sim, engine.clean_container(container))
        result = run_process(
            sim, engine.execute(container, ExecSpec(app_id="x", exec_ms=1))
        )
        assert not result.cold_start

    def test_clean_cycles_leave_one_volume(self, sim, engine):
        container = boot(sim, engine)
        first = weakref.ref(container.volume)

        def cycles():
            for _ in range(10_000):
                yield from engine.clean_container(container)

        run_process(sim, cycles())
        assert len(engine.volumes) == 1
        assert engine.volumes.live_volumes() == (container.volume,)
        # The store keeps no deleted volume alive.
        gc.collect()
        assert first() is None

    def test_clean_busy_container_rejected(self, sim, engine):
        container = boot(sim, engine)
        container.transition(ContainerState.EXECUTING)
        with pytest.raises(ContainerError):
            next(engine.clean_container(container))


class TestStopRemove:
    def test_stop_releases_footprint_and_volume(self, sim, engine):
        container = boot(sim, engine)
        assert engine.resources.used_mem_mb > 0
        run_process(sim, engine.stop_container(container))
        assert container.state is ContainerState.STOPPED
        assert engine.resources.used_mem_mb == pytest.approx(0)
        assert container.volume is None
        assert engine.live_count == 0

    def test_stop_not_live_rejected(self, sim, engine):
        container = boot(sim, engine)
        run_process(sim, engine.stop_container(container))
        with pytest.raises(ContainerError):
            next(engine.stop_container(container))

    def test_remove_after_stop(self, sim, engine):
        container = boot(sim, engine)
        run_process(sim, engine.stop_container(container))
        run_process(sim, engine.remove_container(container))
        with pytest.raises(ContainerError):
            engine.get(container.container_id)
        assert engine.stats.removes == 1

    def test_remove_running_rejected(self, sim, engine):
        container = boot(sim, engine)
        with pytest.raises(ContainerError):
            next(engine.remove_container(container))


class TestIdleFootprint:
    def test_idle_containers_cost_little(self, sim, engine):
        """Fig 15a: ten live containers cost <1% CPU, ~0.7MB each."""
        for _ in range(10):
            boot(sim, engine, image="alpine:3.8")
        assert engine.resources.cpu_fraction < 0.01
        assert engine.resources.used_mem_mb == pytest.approx(7.0, rel=0.01)

    def test_live_containers_listing_sorted(self, sim, engine):
        ids = [boot(sim, engine).container_id for _ in range(3)]
        assert [c.container_id for c in engine.live_containers()] == sorted(ids)

    def test_listing_sorted_when_boots_land_out_of_order(self, sim, engine):
        run_process(sim, engine.ensure_image("python:3.6"))
        slow = sim.process(
            engine.boot_container(
                ContainerConfig(image="python:3.6", network=NetworkConfig(mode="overlay"))
            )
        )
        fast = sim.process(engine.boot_container(ContainerConfig(image="python:3.6")))
        sim.run()
        assert slow.value.container_id < fast.value.container_id
        assert list(engine._live) == [fast.value.container_id, slow.value.container_id]
        assert engine.live_containers() == (slow.value, fast.value)


def live_ids(engine):
    return [c.container_id for c in engine.live_containers()]


class TestLiveIndex:
    """The live set is kept at the FSM's edges, not rescanned per read."""

    @pytest.fixture
    def injector(self, engine):
        injector = FaultInjector()
        engine.attach_fault_injector(injector)
        return injector

    def test_enters_on_boot(self, sim, engine):
        container = boot(sim, engine)
        assert live_ids(engine) == [container.container_id]
        assert engine.live_count == 1
        engine.check_consistency()

    def test_leaves_on_stop_at_the_stopping_edge(self, sim, engine):
        container = boot(sim, engine)
        proc = sim.process(engine.stop_container(container))
        sim.step()  # start the stop: the container is now STOPPING
        assert container.state is ContainerState.STOPPING
        assert engine.live_count == 0
        engine.check_consistency()
        sim.run()
        assert proc.ok
        assert live_ids(engine) == []
        engine.check_consistency()

    def test_leaves_on_kill(self, sim, engine):
        keep, victim = boot(sim, engine), boot(sim, engine)
        engine.kill_container(victim)
        assert live_ids(engine) == [keep.container_id]
        engine.check_consistency()

    def test_leaves_on_exec_crash(self, sim, engine, injector):
        container = boot(sim, engine)
        injector.crash_next_execs(1)
        with pytest.raises(ExecCrash):
            run_process(sim, engine.execute(container, ExecSpec(app_id="x", exec_ms=50)))
        assert container.state is ContainerState.REMOVED
        assert engine.live_count == 0
        engine.check_consistency()

    def test_leaves_when_host_dies_under_an_exec(self, sim, engine, injector):
        keep, victim = boot(sim, engine), boot(sim, engine)
        proc = sim.process(
            engine.execute(victim, ExecSpec(app_id="x", exec_ms=1_000))
        )
        sim.run(until=sim.now + 100)
        assert victim.state is ContainerState.EXECUTING
        assert engine.live_count == 2
        injector.down = True
        sim.run()
        assert not proc.ok and isinstance(proc.value, HostDownError)
        assert victim.state is ContainerState.REMOVED
        assert live_ids(engine) == [keep.container_id]
        engine.check_consistency()

    def test_boot_killed_by_host_outage_leaves(self, sim, engine, injector):
        boot(sim, engine)  # image cached: the next boot pulls nothing
        proc = sim.process(
            engine.boot_container(
                ContainerConfig(image="python:3.6"), warm_runtime=True
            )
        )
        while engine.live_count < 2:
            sim.step()
        injector.down = True  # lands during the warm runtime init
        sim.run()
        assert not proc.ok and isinstance(proc.value, HostDownError)
        assert engine.live_count == 1
        assert engine.stats.kills == 1
        engine.check_consistency()

    def test_boot_failing_before_running_never_enters(self, sim, engine, injector):
        injector.fail_next_boots(1)
        with pytest.raises(BootFailure):
            boot(sim, engine)
        proc = sim.process(engine.boot_container(ContainerConfig(image="python:3.6")))
        while not engine._containers:
            sim.step()
        proc.interrupt("aborted")  # dies in CREATED, before RUNNING
        sim.run()
        assert not proc.ok
        assert len(engine._containers) == 1
        assert engine.live_count == 0
        assert engine.live_containers() == ()
        engine.check_consistency()

    def test_live_count_does_not_scan(self, sim, engine, monkeypatch):
        def boots():
            for _ in range(1_000):
                sim.process(engine.boot_container(ContainerConfig(image="alpine:3.8")))
            yield sim.timeout(0)

        run_process(sim, boots())
        engine.check_consistency()

        def no_scan(self):
            raise AssertionError("live_count scanned the containers")

        monkeypatch.setattr(Container, "is_live", property(no_scan))
        assert engine.live_count == 1_000


class TestDeterminism:
    def test_identical_seeds_identical_timelines(self, registry):
        def run_once():
            import numpy as np

            sim = Simulator()
            engine = ContainerEngine(
                sim, registry, rng=np.random.default_rng(7), jitter_sigma=0.1
            )
            container = run_process(
                sim, engine.boot_container(ContainerConfig(image="python:3.6"))
            )
            result = run_process(
                sim, engine.execute(container, ExecSpec(app_id="fn", exec_ms=42))
            )
            return sim.now, result.total_ms

        assert run_once() == run_once()
