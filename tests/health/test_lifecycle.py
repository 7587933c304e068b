"""Unit tests for host lifecycle states and per-host bookkeeping."""

import pytest

from repro.containers import ContainerEngine, Registry, make_base_image
from repro.health import HealthConfig, HostHealth, HostState, lifecycle
from repro.sim import Simulator


@pytest.fixture
def engine():
    registry = Registry([make_base_image("python", "3.6", size_mb=330)])
    return ContainerEngine(Simulator(), registry)


def make_health(engine, **overrides):
    return HostHealth("host-0", engine, HealthConfig(**overrides))


class TestConfig:
    def test_defaults_valid(self):
        HealthConfig()


class TestStates:
    def test_codes_are_stable(self):
        assert [s.code for s in HostState] == [0, 1, 2, 3, 4]

    def test_only_healthy_and_probation_routable(self):
        routable = {s for s in HostState if s.routable}
        assert routable == {HostState.HEALTHY, HostState.PROBATION}


class TestHostHealth:
    def test_transitions_are_logged(self, engine):
        health = make_health(engine)
        old = health.transition_to(HostState.SUSPECT, now=100.0)
        assert old is HostState.HEALTHY
        health.transition_to(HostState.QUARANTINED, now=200.0)
        assert health.transitions == [
            (100.0, HostState.HEALTHY, HostState.SUSPECT),
            (200.0, HostState.SUSPECT, HostState.QUARANTINED),
        ]

    def test_self_transition_is_a_noop(self, engine):
        health = make_health(engine)
        health.transition_to(HostState.HEALTHY, now=50.0)
        assert health.transitions == []

    def test_probation_weight_ramps_linearly(self, engine, monkeypatch):
        monkeypatch.setattr(lifecycle, "PROBATION_HEARTBEATS", 4)
        health = make_health(engine)
        health.transition_to(HostState.PROBATION, now=0.0)
        weights = []
        for _ in range(4):
            weights.append(health.routing_weight())
            health.probation_progress += 1
        assert weights == [1 / 5, 2 / 5, 3 / 5, 4 / 5]
        assert weights == sorted(weights)

    def test_weight_by_state(self, engine):
        health = make_health(engine)
        assert health.routing_weight() == 1.0
        for state in (
            HostState.SUSPECT,
            HostState.QUARANTINED,
            HostState.DRAINING,
        ):
            health.transition_to(state, now=0.0)
            assert health.routing_weight() == 0.0

    def test_probation_entry_resets_progress(self, engine):
        health = make_health(engine)
        health.probation_progress = 7
        health.transition_to(HostState.PROBATION, now=0.0)
        assert health.probation_progress == 0

    def test_is_slow_needs_data_and_a_stretched_mean(self, engine):
        assert lifecycle.SLOW_FACTOR == 2.0
        health = make_health(engine)
        assert not health.is_slow  # no intervals yet
        t = 0.0
        health.detector.heartbeat(t)
        for _ in range(4):
            t += 1_500.0  # 3x the 500ms interval
            health.detector.heartbeat(t)
        assert health.is_slow
