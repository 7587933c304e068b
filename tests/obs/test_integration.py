"""Integration: instrumentation is inert when detached, rich when attached.

The tentpole constraint: attaching an Observatory must not change a
single simulated timestamp — hooks only read state and record, never
schedule sim events (the Snapshotter, which does, is opt-in and not part
of the simulator's ``obs`` slot).
"""


from repro.core.hotc import HotC, HotCConfig
from repro.faas import FaasPlatform
from repro.obs import EventKind, Observatory
from repro.workloads.apps import default_catalog, qr_encoder_app


def run_workload(observatory=None, seed=3, requests=12):
    catalog = default_catalog()

    def provider_factory(engine):
        return HotC(engine, HotCConfig(control_interval_ms=10_000.0))

    platform = FaasPlatform(
        catalog.make_registry(),
        seed=seed,
        provider_factory=provider_factory,
        jitter_sigma=0.05,
    )
    if observatory is not None:
        platform.sim.obs = observatory
    spec = qr_encoder_app(name="qr", language="python")
    platform.deploy(spec)
    platform.sim.process(platform.engine.ensure_image(spec.image))
    platform.run()
    platform.provider.start_control_loop()
    for index in range(requests):
        platform.submit(spec.name, delay=index * 1_500.0)
    platform.run(until=platform.sim.now + requests * 1_500.0 + 60_000.0)
    platform.provider.stop_control_loop()
    platform.run()
    platform.shutdown()
    return platform


def timeline(platform):
    return [
        (
            t.request_id,
            t.t0_client_send,
            t.t1_gateway_in,
            t.t2_watchdog_in,
            t.t3_function_start,
            t.t4_function_stop,
            t.t5_watchdog_out,
            t.t6_client_recv,
            t.cold_start,
            t.container_id,
            t.outcome.value,
        )
        for t in platform.traces
    ]


class TestInertness:
    def test_attached_run_is_bit_identical(self):
        plain = run_workload()
        instrumented = run_workload(observatory=Observatory())
        assert timeline(plain) == timeline(instrumented)

    def test_attached_run_populates_observability(self):
        observatory = Observatory()
        platform = run_workload(observatory=observatory)

        kinds = set(observatory.events.counts_by_kind())
        assert "boot_start" in kinds and "boot_end" in kinds
        assert "request_done" in kinds
        assert "control_tick" in kinds
        assert {"pool_hit", "pool_miss"} & kinds

        names = {c.name for c in observatory.registry.counters()}
        assert "boots_total" in names
        assert "requests_total" in names
        latency = next(
            h
            for h in observatory.registry.histograms()
            if h.name == "request_latency_ms"
        )
        assert latency.count == len(platform.traces)
        # Events are stamped with monotone non-decreasing sim time.
        times = [e.t for e in observatory.events]
        assert times == sorted(times)

    def test_request_done_matches_traces(self):
        observatory = Observatory()
        platform = run_workload(observatory=observatory)
        done = [
            e for e in observatory.events if e.kind is EventKind.REQUEST_DONE
        ]
        assert len(done) == len(platform.traces)

    def test_control_tick_records_forecast_vs_demand(self):
        observatory = Observatory()
        run_workload(observatory=observatory)
        ticks = [
            dict(e.data)
            for e in observatory.events
            if e.kind is EventKind.CONTROL_TICK
        ]
        assert ticks, "control loop must have ticked"
        assert {"demand", "forecast", "target"} <= set(ticks[0])
        # Once a forecast exists, the next tick pairs it with demand.
        later = [t for t in ticks if t.get("prev_forecast") is not None]
        assert later
        assert all(t["demand"] >= 0 for t in ticks)

    def test_unattached_components_hold_no_obs(self):
        platform = run_workload()
        assert platform.sim.obs is None
