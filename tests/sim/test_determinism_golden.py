"""Golden determinism tests for the optimized simulation engine.

The fast-path rebuild of ``repro.sim`` (PR 4) must keep the
``(time, priority, seq)`` ordering contract bit-for-bit: the golden
traces under ``tests/sim/golden/`` were recorded from the
pre-optimisation engine and every future engine must reproduce them
exactly — event order, timestamps, and step counts.

Set ``REPRO_REGEN_GOLDEN=1`` to rewrite the goldens (only when an
ordering change is intentional; say so in the PR).
"""

import json
import os

import pytest

from tests.sim import golden_scenarios as scenarios

REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


def check_golden(name: str, produced) -> None:
    path = scenarios.GOLDEN_DIR / f"{name}.json"
    if REGEN:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(produced, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    expected = json.loads(path.read_text())
    assert produced == expected, (
        f"engine no longer reproduces the golden trace {path.name}; if the "
        "ordering change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


class TestGoldenEventOrder:
    def test_mixed_scenario_matches_golden(self):
        check_golden("mixed", scenarios.scenario_mixed())

    @pytest.mark.parametrize("seed", scenarios.SEED_MATRIX)
    def test_seed_matrix_matches_golden(self, seed):
        check_golden(f"seeded_{seed}", scenarios.scenario_seeded(seed))

    def test_observatory_log_matches_golden(self):
        check_golden("observatory", scenarios.scenario_observatory())

    def test_gateway_request_path_matches_golden(self):
        check_golden("gateway", scenarios.scenario_gateway())

    def test_hotc_paths_match_golden(self):
        check_golden("hotc_paths", scenarios.scenario_hotc_paths())

    def test_metric_output_matches_golden(self):
        check_golden("metrics", scenarios.scenario_metrics())

    def test_leaky_day_report_matches_golden(self):
        check_golden("leaky_day", scenarios.scenario_leaky_day())

    def test_run_report_matches_golden(self):
        check_golden("run_report", scenarios.scenario_run_report())


class TestEngineSelfConsistency:
    """Invariants that hold regardless of golden freshness."""

    def test_mixed_scenario_is_repeatable(self):
        assert scenarios.scenario_mixed() == scenarios.scenario_mixed()

    def test_seeded_scenario_is_repeatable(self):
        assert scenarios.scenario_seeded(7) == scenarios.scenario_seeded(7)

    def test_different_seeds_differ(self):
        assert scenarios.scenario_seeded(0) != scenarios.scenario_seeded(1)
