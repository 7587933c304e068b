"""Quality gate: the simulation event loop must keep its fast path.

Runs ``benchmarks/bench_sim_hotpath.py --check`` (the fast mode) inside
the tier-1 suite so a future PR that quietly regresses the engine's
timeout fast path back to the seed implementation's per-event costs
fails CI.  The gate compares the optimized engine against
``repro.sim.naive`` (the seed engine, kept as an executable baseline),
so it measures relative complexity, not absolute machine speed.
"""

import importlib.util
import json
import pathlib

import pytest

pytestmark = pytest.mark.quality_gate

_BENCH_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "bench_sim_hotpath.py"
)


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_sim_hotpath", _BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSimHotPathGate:
    def test_check_mode_clears_speedup_floor(self):
        bench = _load_bench()
        comparison = bench.run_check()
        speedup = comparison["speedup"]
        assert (
            speedup["timeout_hotloop_events_per_sec"]
            >= bench.MIN_HOTLOOP_SPEEDUP
        )
        assert speedup["timeout_churn_events_per_sec"] >= 1.0

    def test_committed_comparison_shows_hotloop_speedup(self):
        """BENCH_sim.json (committed full run) must show the >= 3x
        timeout-hotloop speedup the fast path promises, and the parallel
        runner section must record byte-identical figures."""
        path = _BENCH_PATH.parents[1] / "BENCH_sim.json"
        comparison = json.loads(path.read_text())
        # Gate scale (what --check enforces): >= 3x on the timeout loop.
        gate = comparison["check_gate"]
        assert gate["speedup"]["timeout_hotloop_events_per_sec"] >= 3.0
        # Full scale: larger heaps dilute the per-event wins into the
        # shared O(log n) heap cost, so the floor is lower there.
        assert comparison["speedup"]["timeout_hotloop_events_per_sec"] >= 2.5
        assert comparison["speedup"]["timeout_churn_events_per_sec"] >= 1.0
        runner = comparison["experiment_runner"]
        assert runner["output_identical"] is True
        # Any parallel run checks the byte-identity; the committed run
        # uses as many workers as its host has cores.
        assert runner["jobs"] >= 2
        # The wall-clock speedup needs spare cores; on a single-core
        # host (like this CI box) spawn overhead makes jobs>1 slower,
        # so the committed number is only gated when cores were there.
        if runner["host_cpus"] and runner["host_cpus"] >= 4:
            assert runner["speedup"] >= 2.0
