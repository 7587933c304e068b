"""Unit tests for the heartbeat monitor and its lifecycle machine."""

import pytest

from repro.containers import ContainerEngine, Registry, make_base_image
from repro.faults import FaultPlan
from repro.health import HealthConfig, HealthMonitor, HostState, lifecycle
from repro.obs import EventKind, Observatory
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def engine(sim):
    registry = Registry([make_base_image("python", "3.6", size_mb=330)])
    return ContainerEngine(sim, registry)


@pytest.fixture
def injector(sim, engine):
    return FaultPlan.none().install(sim, [engine])["host-0"]


def make_monitor(sim, engine, **overrides):
    monitor = HealthMonitor(sim, HealthConfig(**overrides))
    monitor.register_host(engine.name, engine)
    return monitor


class TestBasics:
    def test_unregistered_hosts_default_healthy(self, sim):
        monitor = HealthMonitor(sim)
        assert monitor.state("nope") is HostState.HEALTHY
        assert monitor.routable("nope")
        assert monitor.routing_weight("nope") == 1.0

    def test_register_is_idempotent(self, sim, engine):
        monitor = make_monitor(sim, engine)
        first = monitor.hosts[engine.name]
        monitor.register_host(engine.name, engine)
        assert monitor.hosts[engine.name] is first

    def test_healthy_host_stays_healthy(self, sim, engine, injector):
        monitor = make_monitor(sim, engine)
        monitor.start()
        sim.run(until=20_000.0)
        assert monitor.state(engine.name) is HostState.HEALTHY
        assert monitor.hosts[engine.name].transitions == []

    def test_stop_halts_the_pumps(self, sim, engine, injector):
        monitor = make_monitor(sim, engine)
        monitor.start()
        sim.run(until=5_000.0)
        monitor.stop()
        beats = monitor.hosts[engine.name].detector.n_intervals
        sim.run(until=30_000.0)
        assert monitor.hosts[engine.name].detector.n_intervals == beats


class TestSilence:
    def test_silence_escalates_through_the_states(self, sim, engine, injector):
        monitor = make_monitor(sim, engine)
        drained = []
        monitor.register_host(engine.name, engine, on_drain=lambda: drained.append(sim.now))
        monitor.start()
        sim.run(until=5_000.0)
        sim.schedule(0.0, lambda: setattr(injector, "heartbeats_lost", True))
        sim.run(until=5_900.0)
        assert monitor.state(engine.name) is HostState.HEALTHY
        sim.run(until=6_100.0)  # ~1s of silence
        assert monitor.state(engine.name) is HostState.SUSPECT
        sim.run(until=6_600.0)  # ~1.5s
        assert monitor.state(engine.name) is HostState.QUARANTINED
        assert not monitor.routable(engine.name)
        sim.run(until=7_100.0)  # ~2s: presumed lost
        assert monitor.state(engine.name) is HostState.DRAINING
        assert len(drained) == 1

    def test_recovery_goes_through_probation(
        self, sim, engine, injector, monkeypatch
    ):
        monkeypatch.setattr(lifecycle, "PROBATION_HEARTBEATS", 4)
        monitor = make_monitor(sim, engine)
        monitor.start()
        sim.run(until=5_000.0)
        sim.schedule(0.0, lambda: setattr(injector, "heartbeats_lost", True))
        sim.schedule(3_000.0, lambda: setattr(injector, "heartbeats_lost", False))
        sim.run(until=8_600.0)  # first beat after the flap
        assert monitor.state(engine.name) is HostState.PROBATION
        weight = monitor.routing_weight(engine.name)
        assert 0.0 < weight < 1.0
        sim.run(until=9_600.0)  # ramp continues beat by beat
        assert monitor.routing_weight(engine.name) > weight
        sim.run(until=12_000.0)
        assert monitor.state(engine.name) is HostState.HEALTHY
        assert monitor.routing_weight(engine.name) == 1.0

    def test_short_flap_only_reaches_suspect(self, sim, engine, injector):
        monitor = make_monitor(sim, engine)
        monitor.start()
        sim.run(until=5_000.0)
        sim.schedule(0.0, lambda: setattr(injector, "heartbeats_lost", True))
        sim.schedule(1_200.0, lambda: setattr(injector, "heartbeats_lost", False))
        sim.run(until=6_200.0)
        assert monitor.state(engine.name) is HostState.SUSPECT
        sim.run(until=12_000.0)
        # A suspect that never quarantined rejoins directly (no ramp).
        assert monitor.state(engine.name) is HostState.HEALTHY
        states = [new for (_, _, new) in monitor.hosts[engine.name].transitions]
        assert HostState.PROBATION not in states


class TestGraySlowdown:
    def test_slow_heartbeats_mark_the_host_suspect(self, sim, engine, injector):
        monitor = make_monitor(sim, engine, window=8)
        monitor.start()
        sim.run(until=5_000.0)
        sim.schedule(0.0, lambda: setattr(injector, "latency_multiplier", 3.0))
        sim.run(until=20_000.0)
        # Heartbeats still arrive — just 3x late — and that alone is
        # enough evidence: the learned mean blows the SLOW_FACTOR gate.
        assert monitor.state(engine.name) is HostState.SUSPECT
        assert monitor.hosts[engine.name].is_slow
        sim.schedule(0.0, lambda: setattr(injector, "latency_multiplier", 1.0))
        sim.run(until=40_000.0)
        assert monitor.state(engine.name) is HostState.HEALTHY


class TestPartition:
    def test_partition_reads_as_silence(self, sim, engine, injector):
        monitor = make_monitor(sim, engine)
        monitor.start()
        sim.run(until=5_000.0)
        sim.schedule(0.0, lambda: setattr(injector, "partitioned", True))
        sim.run(until=7_200.0)
        assert monitor.state(engine.name) is HostState.DRAINING


class TestHooks:
    def test_on_host_down_fast_path(self, sim, engine):
        drained = []
        monitor = make_monitor(sim, engine)
        monitor.register_host(engine.name, engine, on_drain=lambda: drained.append(1))
        monitor.on_host_down(engine.name)
        assert monitor.state(engine.name) is HostState.DRAINING
        # The cluster already drained the host; the hook must not refire.
        assert drained == []
        monitor.on_host_down(engine.name)  # idempotent
        assert len(monitor.hosts[engine.name].transitions) == 1

    def test_events_and_gauge_emitted(self, sim, engine, injector):
        obs = Observatory()
        monitor = make_monitor(sim, engine)
        sim.obs = obs
        monitor.start()
        sim.run(until=5_000.0)
        sim.schedule(0.0, lambda: setattr(injector, "heartbeats_lost", True))
        sim.schedule(3_000.0, lambda: setattr(injector, "heartbeats_lost", False))
        sim.run(until=20_000.0)
        kinds = obs.events.counts_by_kind()
        assert kinds.get("host_suspect", 0) >= 1
        assert kinds.get("host_quarantined", 0) >= 2  # quarantined + draining
        assert kinds.get("host_recovered", 0) >= 2  # probation + healthy
        states = [
            dict(e.data)["state"]
            for e in obs.events
            if e.kind is EventKind.HOST_RECOVERED
        ]
        assert "probation" in states and "healthy" in states
        gauge = obs.gauge("host_lifecycle_state", host=engine.name)
        assert gauge.value == HostState.HEALTHY.code
