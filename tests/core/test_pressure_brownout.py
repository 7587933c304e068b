"""Memory-pressure eviction ordering and the brownout state machine.

Post-release pressure eviction must follow the paper's rule — "the oldest live
container is forcibly terminated" — no matter in which order requests
released their containers; the brownout mode wrapped around it must
enter exactly at the memory threshold and exit only below the
hysteresis margin.
"""

import pytest

from repro.admission import AdmissionConfig, AdmissionController
from repro.core import HotC, HotCConfig, PoolLimits, make_cluster_platform
from repro.faas import FaasPlatform
from repro.faas.tracing import RequestOutcome
from repro.obs import Observatory
from repro.obs.events import EventKind
from repro.sim.resources import HostResources


def make_platform(registry, config=None, seed=0):
    return FaasPlatform(
        registry,
        seed=seed,
        jitter_sigma=0.0,
        provider_factory=lambda engine: HotC(engine, config),
    )


def boot_pooled(platform, hotc, spec, ages):
    """Boot one container per entry of ``ages`` and pool each as idle
    with that ``added_at`` stamp (simulating interleaved past releases)."""
    config = spec.container_config()
    key = hotc.key_of(config)
    containers = []

    def setup():
        for _ in ages:
            container = yield from platform.engine.boot_container(config)
            containers.append(container)

    platform.sim.process(setup(), name="setup")
    platform.run()
    for container, age in zip(containers, ages):
        hotc.pool.register(container, key, now=age, available=True)
    return containers


class TestRelievePressureOrdering:
    def test_evicts_oldest_first_under_interleaved_releases(
        self, registry, fn_python, monkeypatch
    ):
        platform = make_platform(registry)
        hotc = platform.provider
        # Pool three idle containers whose ages are *not* in boot order:
        # the middle boot is the oldest, the first boot the newest.
        containers = boot_pooled(
            platform, hotc, fn_python, ages=[300.0, 50.0, 120.0]
        )
        retired = []
        real_retire = hotc.cleanup.retire

        def recording_retire(container):
            retired.append(container.container_id)
            return real_retire(container)

        hotc.cleanup.retire = recording_retire
        # Pressure persists until two containers have been evicted.
        monkeypatch.setattr(
            HostResources,
            "memory_pressure",
            lambda self, threshold=0.8: len(retired) < 2,
        )
        platform.sim.process(
            hotc._evict(hotc._under_pressure, "pressure"), name="relieve"
        )
        platform.run()
        # Oldest (age 50) first, then age 120; the newest survives.
        assert retired == [
            containers[1].container_id,
            containers[2].container_id,
        ]
        assert hotc.pool.total_live == 1
        assert hotc.pool.stats.evictions_pressure == 2
        assert hotc.pool.contains(containers[0])

    def test_stops_when_nothing_idle_remains(
        self, registry, fn_python, monkeypatch
    ):
        platform = make_platform(registry)
        hotc = platform.provider
        boot_pooled(platform, hotc, fn_python, ages=[10.0])
        monkeypatch.setattr(
            HostResources, "memory_pressure", lambda self, threshold=0.8: True
        )
        platform.sim.process(
            hotc._evict(hotc._under_pressure, "pressure"), name="relieve"
        )
        platform.run()
        # The single idle container went; with no candidate left the
        # loop must terminate rather than spin forever.
        assert hotc.pool.total_live == 0
        assert hotc.pool.stats.evictions_pressure == 1


class FractionHolder:
    """Patch point for the host's memory fraction."""

    def __init__(self, value=0.0):
        self.value = value


class TestHotCBrownout:
    @pytest.fixture
    def browned_platform(self, registry, fn_python, monkeypatch):
        config = HotCConfig(limits=PoolLimits(memory_threshold=0.8))
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        ctrl = AdmissionController(AdmissionConfig())
        platform.attach_admission(ctrl)
        frac = FractionHolder(0.0)
        monkeypatch.setattr(
            HostResources, "mem_fraction", property(lambda self: frac.value)
        )
        return platform, platform.provider, ctrl, frac

    def test_hysteresis_enter_and_exit(self, browned_platform):
        platform, hotc, ctrl, frac = browned_platform
        obs = Observatory()
        platform.sim.obs = obs

        frac.value = 0.79
        hotc._update_brownout(ctrl)
        assert not ctrl.brownout_active

        frac.value = 0.80  # exactly at the threshold: enter
        hotc._update_brownout(ctrl)
        assert ctrl.brownout_active
        assert ctrl.browned_out("host-0")

        frac.value = 0.78  # inside the hysteresis band: hold
        hotc._update_brownout(ctrl)
        assert ctrl.brownout_active

        frac.value = 0.74  # below threshold - margin: exit
        hotc._update_brownout(ctrl)
        assert not ctrl.brownout_active
        assert ctrl._brownouts["host-0"].entries == 1
        assert ctrl._brownouts["host-0"].exits == 1
        kinds = obs.events.counts_by_kind()
        assert kinds.get("brownout_enter") == 1
        assert kinds.get("brownout_exit") == 1

    def test_swap_use_trips_the_cap_path(
        self, browned_platform, monkeypatch
    ):
        platform, hotc, ctrl, frac = browned_platform
        monkeypatch.setattr(
            HostResources, "used_swap_mb", property(lambda self: 64.0)
        )
        frac.value = 0.1
        hotc._update_brownout(ctrl)
        assert ctrl.brownout_active  # swap in use == cap tripped

    def test_brownout_pauses_prewarm(self, browned_platform):
        platform, hotc, ctrl, frac = browned_platform
        spec = platform.function("py-fn")
        config = spec.container_config()
        key = hotc.key_of(config)
        hotc._learn(key, config)

        frac.value = 0.9
        hotc._update_brownout(ctrl)
        hotc._spawn_prewarm(key)
        assert hotc._pending_boots == {}  # degraded: no new boots

        frac.value = 0.1
        hotc._update_brownout(ctrl)
        hotc._spawn_prewarm(key)
        assert hotc._pending_boots == {key: 1}

    def test_control_tick_shrinks_target_under_brownout(
        self, registry, fn_python, monkeypatch
    ):
        """While browned out the predictor's pool target is scaled by
        ``BROWNOUT_TARGET_FACTOR`` (0.5) so the pool sheds weight."""
        config = HotCConfig(limits=PoolLimits(memory_threshold=0.8))
        platform = make_platform(registry, config)
        platform.deploy(fn_python)
        ctrl = AdmissionController(AdmissionConfig())
        platform.attach_admission(ctrl)
        hotc = platform.provider
        targets = []
        monkeypatch.setattr(
            HotC,
            "_resize_key",
            lambda self, key, target: targets.append(target),
        )
        # Pin the state machine: this test forces brownout directly.
        monkeypatch.setattr(
            HotC, "_update_brownout", lambda self, admission: False
        )
        # Stable demand history so the target is predictable and > 1.
        spec = platform.function("py-fn")
        key = hotc.key_of(spec.container_config())
        hotc._learn(key, spec.container_config())
        for _ in range(8):
            hotc._keys[key].peak = 8
            hotc.control_tick()
        healthy = targets[-1]
        assert healthy >= 2
        monkeypatch.setattr(
            HotC, "_update_brownout", lambda self, admission: True
        )
        hotc._keys[key].peak = 8
        hotc.control_tick()
        assert targets[-1] == int(healthy * 0.5)


class TestClusterBrownoutIsPerHost:
    """One shared controller, one brownout state per host: pressure on
    host-0 degrades host-0 only, while admission sheds cluster-wide."""

    def test_only_the_pressured_host_degrades(
        self, registry, fn_python, monkeypatch
    ):
        config = HotCConfig(limits=PoolLimits(memory_threshold=0.8))
        platform = make_cluster_platform(
            registry, n_hosts=2, seed=0, jitter_sigma=0.0, hotc_config=config
        )
        platform.deploy(fn_python)
        ctrl = AdmissionController(AdmissionConfig())
        platform.attach_admission(ctrl)
        obs = Observatory()
        platform.sim.obs = obs
        host0, host1 = platform.provider.hosts
        fractions = {id(host0.engine.resources): 0.1,
                     id(host1.engine.resources): 0.1}
        monkeypatch.setattr(
            HostResources,
            "mem_fraction",
            property(lambda self: fractions.get(id(self), 0.0)),
        )
        targets = {host0.engine.name: [], host1.engine.name: []}
        monkeypatch.setattr(
            HotC,
            "_resize_key",
            lambda self, key, target: targets[self.engine.name].append(target),
        )
        spec = platform.function("py-fn")
        key = host0.key_of(spec.container_config())
        for host in (host0, host1):
            host._learn(key, spec.container_config())

        def tick_both():
            for host in (host0, host1):
                host._keys[key].peak = 8
                host.control_tick()

        for _ in range(8):
            tick_both()
        healthy0 = targets["host-0"][-1]
        healthy1 = targets["host-1"][-1]
        assert healthy0 >= 2 and healthy1 >= 2

        fractions[id(host0.engine.resources)] = 0.85
        tick_both()
        assert ctrl.brownout_active
        assert targets["host-0"][-1] == int(healthy0 * 0.5)
        assert targets["host-1"][-1] == healthy1
        host0._spawn_prewarm(key)
        host1._spawn_prewarm(key)
        assert host0._pending_boots == {}  # degraded: no new boots
        assert host1._pending_boots == {key: 1}

        # Admission sheds standard traffic while any host is degraded.
        platform.submit(fn_python.name)
        platform.run()
        trace = platform.traces.traces[-1]
        assert trace.outcome is RequestOutcome.SHED
        assert trace.shed_reason == "brownout"

        fractions[id(host0.engine.resources)] = 0.78  # hysteresis band
        tick_both()
        assert ctrl.brownout_active
        fractions[id(host0.engine.resources)] = 0.74  # below 0.8 - 0.05
        tick_both()
        assert not ctrl.brownout_active
        host0._spawn_prewarm(key)
        assert host0._pending_boots == {key: 1}

        transitions = [
            (event.kind, event.host)
            for event in obs.events
            if event.kind in (EventKind.BROWNOUT_ENTER, EventKind.BROWNOUT_EXIT)
        ]
        assert transitions == [
            (EventKind.BROWNOUT_ENTER, "host-0"),
            (EventKind.BROWNOUT_EXIT, "host-0"),
        ]
