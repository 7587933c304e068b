"""Scenario runner behaviour: figure parity, determinism, trace arms."""

import numpy as np
import pytest

from repro.experiments._pattern_harness import run_pattern_arm
from repro.scenarios import (
    AdmissionSpec,
    ArmSpec,
    ClusterSpec,
    FaultsSpec,
    ScenarioSpec,
    TrafficSpec,
    run_scenario,
)
from repro.scenarios.bundled import fig12_serial, fig14_burst
from repro.workloads.patterns import SerialPattern
from repro.workloads.tracegen import TraceConfig


def small_trace_spec(**overrides) -> ScenarioSpec:
    """A ten-minute, ~400-request trace over two hosts (fast to run)."""
    defaults = dict(
        name="small-trace",
        seed=9,
        traffic=TrafficSpec(
            kind="trace",
            trace=TraceConfig(
                n_keys=12,
                n_tenants=3,
                duration_ms=600_000.0,
                slot_ms=60_000.0,
                total_requests=400.0,
                diurnal_period_ms=600_000.0,
                flash_crowds=1,
                flash_duration_ms=120_000.0,
                flash_keys=2,
                churn_fraction=0.2,
                churn_interval_ms=300_000.0,
            ),
        ),
        cluster=ClusterSpec(n_hosts=2),
        arms=(
            ArmSpec(name="default", use_hotc=False),
            ArmSpec(name="hotc", use_hotc=True),
        ),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestFigureParity:
    """Scenario-routed figure arms reproduce the direct harness calls."""

    def test_fig12_serial_bit_identical(self):
        pattern = SerialPattern(n_rounds=6, round_ms=30_000.0)
        report = run_scenario(fig12_serial(seed=4, n_rounds=6))
        for arm_name, use_hotc in (("default", False), ("hotc", True)):
            direct, _ = run_pattern_arm(pattern, use_hotc=use_hotc, seed=4)
            routed = report.arm(arm_name).workload_result
            assert np.array_equal(routed.latencies(), direct.latencies())
            assert routed.total_cold() == direct.total_cold()
            assert routed.total_failed() == direct.total_failed()

    def test_fig14_burst_adaptive_bit_identical(self):
        spec = fig14_burst(seed=2, n_rounds=6)
        report = run_scenario(spec)
        direct, _ = run_pattern_arm(
            spec.traffic.pattern,
            use_hotc=True,
            seed=2,
            adaptive=True,
            control_interval_ms=30_000.0,
        )
        routed = report.arm("hotc").workload_result
        assert np.array_equal(routed.latencies(), direct.latencies())
        assert routed.total_cold() == direct.total_cold()

    def test_pattern_arm_report_quantiles_match_result(self):
        report = run_scenario(fig12_serial(seed=0, n_rounds=5))
        arm = report.arm("hotc")
        latencies = arm.workload_result.latencies()
        assert arm.requests == latencies.size
        assert arm.p50_ms == pytest.approx(float(np.percentile(latencies, 50)))
        assert arm.kind == "pattern"


class TestDeterminism:
    def test_serial_runs_byte_identical(self):
        spec = small_trace_spec()
        assert run_scenario(spec).to_json() == run_scenario(spec).to_json()

    def test_parallel_jobs_byte_identical_to_serial(self):
        spec = small_trace_spec()
        serial = run_scenario(spec, jobs=1)
        parallel = run_scenario(spec, jobs=2)
        assert parallel.to_json() == serial.to_json()

    def test_seed_changes_report(self):
        a = run_scenario(small_trace_spec(seed=1)).to_json()
        b = run_scenario(small_trace_spec(seed=2)).to_json()
        assert a != b

    def test_report_artifacts_written(self, tmp_path):
        spec = small_trace_spec(arms=(ArmSpec(name="hotc", use_hotc=True),))
        report = run_scenario(spec, out_dir=str(tmp_path))
        assert (tmp_path / "report.json").read_text() == report.to_json()
        assert (tmp_path / "report.txt").read_text() == report.render()


class TestTraceArms:
    def test_hotc_beats_cold_baseline(self):
        report = run_scenario(small_trace_spec())
        default = report.arm("default")
        hotc = report.arm("hotc")
        assert default.requests > 0 and hotc.requests > 0
        # The baseline cold-boots every request; HotC reuses runtimes.
        assert default.cold == default.requests
        assert hotc.cold < default.cold
        assert hotc.mean_ms < default.mean_ms

    def test_tenant_rows_sum_to_arm_totals(self):
        report = run_scenario(small_trace_spec())
        for arm in report.arms:
            assert arm.kind == "trace"
            assert len(arm.tenants) == 3
            assert sum(row.n for row in arm.tenants) == arm.requests
            assert sum(row.cold for row in arm.tenants) == arm.cold
            assert sum(row.failed for row in arm.tenants) == arm.failed
            assert sum(row.shed for row in arm.tenants) == arm.shed

    def test_hotc_arm_reports_cluster_counters(self):
        report = run_scenario(small_trace_spec())
        counters = report.arm("hotc").counters
        assert counters["reuse_routed"] > 0
        assert counters["cold_routed"] > 0
        assert report.arm("default").counters == {}

    def test_adaptive_arm_runs(self):
        spec = small_trace_spec(
            arms=(
                ArmSpec(
                    name="hotc",
                    use_hotc=True,
                    adaptive=True,
                    control_interval_ms=60_000.0,
                ),
            )
        )
        arm = run_scenario(spec).arm("hotc")
        assert arm.requests > 0
        assert arm.failed == 0

    def test_zero_traffic_tenants_get_explicit_n0_rows(self):
        """Tenants whose keys are churned out for the whole trace see no
        requests — they still get rows, with n=0 and NaN/null stats."""
        spec = small_trace_spec(
            traffic=TrafficSpec(
                kind="trace",
                trace=TraceConfig(
                    n_keys=12,
                    n_tenants=12,
                    duration_ms=600_000.0,
                    slot_ms=60_000.0,
                    total_requests=300.0,
                    diurnal_period_ms=600_000.0,
                    flash_crowds=0,
                    churn_fraction=0.5,
                    churn_interval_ms=600_000.0,
                ),
            ),
            arms=(ArmSpec(name="hotc", use_hotc=True),),
        )
        report = run_scenario(spec)
        arm = report.arm("hotc")
        assert len(arm.tenants) == 12
        empty = [row for row in arm.tenants if row.n == 0]
        assert empty  # half the single-key tenants are inactive all trace
        for row in empty:
            assert row.mean_ms != row.mean_ms  # NaN
            assert row.cold_ratio != row.cold_ratio  # NaN
            assert row.to_dict()["p99_ms"] is None
        # Rendering must survive the NaN rows.
        assert "small-trace" in report.render()

    def test_saturated_admission_sheds(self):
        """Requests beyond the concurrency limit shed (depth-0 queue)
        and land in the per-tenant shed column, not the histogram."""
        spec = small_trace_spec(
            traffic=TrafficSpec(
                kind="trace",
                exec_ms=600_000.0,  # every admit holds its slot all trace
                trace=TraceConfig(
                    n_keys=2,
                    n_tenants=2,
                    duration_ms=600_000.0,
                    slot_ms=60_000.0,
                    total_requests=400.0,
                    diurnal_period_ms=600_000.0,
                    flash_crowds=0,
                    churn_fraction=0.0,
                ),
            ),
            admission=AdmissionSpec(max_queue_depth=0, default_deadline_ms=None),
            arms=(ArmSpec(name="hotc", use_hotc=True),),
        )
        arm = run_scenario(spec).arm("hotc")
        assert arm.shed > 0
        assert arm.requests + arm.failed > 0
        assert sum(row.shed for row in arm.tenants) == arm.shed

    def test_adaptive_trace_arm_ticks_admission(self, monkeypatch):
        """An adaptive arm's host control ticks drive the attached
        admission controller's AIMD interval, as on the platform."""
        from repro.admission.controller import AdmissionController

        ticks = []
        tick = AdmissionController.tick

        def record_tick(self, now):
            ticks.append(now)
            tick(self, now)

        monkeypatch.setattr(AdmissionController, "tick", record_tick)
        run_scenario(
            small_trace_spec(
                admission=AdmissionSpec(),
                arms=(ArmSpec(name="hotc", use_hotc=True, adaptive=True),),
            )
        )
        assert ticks

    def test_faulted_trace_arm_stays_accounted(self):
        spec = small_trace_spec(
            faults=FaultsSpec(outages=1, outage_ms=30_000.0),
            arms=(ArmSpec(name="hotc", use_hotc=True),),
        )
        arm = run_scenario(spec).arm("hotc")
        assert arm.requests + arm.failed + arm.shed > 0

    def test_scheduled_outage_starts_after_first_arrival(self, monkeypatch):
        """The image-pull drain runs the queue empty, so a fault plan
        installed before it fired its whole schedule before the first
        request.  The outage must land inside the trace."""
        from repro.core.cluster import ClusterHotC
        from repro.faults.plan import FaultPlan

        outages, arrivals = [], []
        begin_outage = FaultPlan._begin_outage
        acquire = ClusterHotC.acquire

        def record_outage(self, engine, injector):
            outages.append(engine.sim.now)
            begin_outage(self, engine, injector)

        def record_acquire(self, config):
            arrivals.append(self.sim.now)
            return (yield from acquire(self, config))

        monkeypatch.setattr(FaultPlan, "_begin_outage", record_outage)
        monkeypatch.setattr(ClusterHotC, "acquire", record_acquire)
        run_scenario(
            small_trace_spec(
                faults=FaultsSpec(outages=1),
                arms=(ArmSpec(name="hotc", use_hotc=True),),
            )
        )
        assert len(outages) == 1
        assert arrivals[0] < outages[0] < arrivals[-1]


class TestGuards:
    def test_pattern_traffic_rejects_faults(self):
        spec = small_trace_spec(
            name="bad",
            traffic=TrafficSpec(
                kind="pattern", pattern=SerialPattern(n_rounds=2)
            ),
            faults=FaultsSpec(outages=1),
        )
        with pytest.raises(ValueError, match="fault/admission"):
            run_scenario(spec)

    def test_pattern_traffic_rejects_admission(self):
        spec = small_trace_spec(
            name="bad",
            traffic=TrafficSpec(
                kind="pattern", pattern=SerialPattern(n_rounds=2)
            ),
            admission=AdmissionSpec(),
        )
        with pytest.raises(ValueError, match="fault/admission"):
            run_scenario(spec)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_scenario(small_trace_spec(), jobs=0)
