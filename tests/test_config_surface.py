"""The settable surface of the configs and constructors.

Each option doubles the configurations that tests and benches would
have to cover, so adding or removing one is a deliberate change: it
fails here until the tables below say so.  A value that only a test
varies belongs in a module constant that the test patches instead.
"""

import dataclasses
import inspect

import pytest

import repro.recovery
from repro.admission import AdmissionConfig, AIMDConfig
from repro.core import CombinedPredictor, HotCConfig, KeySimilarityModel
from repro.core.pool import ContainerRuntimePool
from repro.core.predictor.controller import AdaptivePoolController
from repro.faas.gateway import Gateway
from repro.faas.platform import FaasPlatform
from repro.faas.watchdog import Watchdog
from repro.health import ContainerHealthConfig, HealthConfig
from repro.obs import EventLog, Observatory, write_run_report
from repro.recovery import RecoveryManager

#: Fields of each config dataclass, in declaration order.
CONFIG_FIELDS = {
    HotCConfig: (
        "key_policy",
        "limits",
        "control_interval_ms",
        "markov_correction",
        "fallback_key_policy",
        "repurpose",
        "breaker_threshold",
        "container_health",
    ),
    ContainerHealthConfig: ("max_reuses", "leak_slope_mb"),
    HealthConfig: ("window",),
    AdmissionConfig: ("max_queue_depth", "aimd", "default_deadline_ms"),
    AIMDConfig: ("initial_limit",),
}

#: Parameters of each constructor, in signature order.
CONSTRUCTOR_PARAMETERS = {
    FaasPlatform: (
        "registry",
        "seed",
        "profile",
        "provider_factory",
        "jitter_sigma",
        "gateway_concurrency",
        "gateway_instances",
    ),
    Gateway: ("sim", "engine", "provider", "concurrency"),
    Watchdog: ("sim", "engine", "provider"),
    KeySimilarityModel: ("registry",),
    RecoveryManager: ("provider",),
    Observatory: (),
    EventLog: (),
    AdaptivePoolController: ("min_history", "max_target"),
    CombinedPredictor: ("alpha", "init", "min_history"),
    write_run_report: (
        "out_dir",
        "observatory",
        "traces",
        "snapshotter",
        "accuracy_window",
    ),
    ContainerRuntimePool: ("limits", "eviction"),
}


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda cls: cls.__name__)
def test_config_fields(config):
    fields = tuple(field.name for field in dataclasses.fields(config))
    assert fields == CONFIG_FIELDS[config]


@pytest.mark.parametrize(
    "constructor", CONSTRUCTOR_PARAMETERS, ids=lambda cls: cls.__name__
)
def test_constructor_parameters(constructor):
    parameters = tuple(inspect.signature(constructor).parameters)
    assert parameters == CONSTRUCTOR_PARAMETERS[constructor]


def test_recovery_has_no_config():
    assert not hasattr(repro.recovery, "RecoveryConfig")


def test_predictor_keeps_no_history():
    """Forecast accuracy comes from the control-tick events, so the bank
    keeps no demand or forecast series and HotC builds no spec copy."""
    for name in ("history", "forecast_history"):
        assert not hasattr(AdaptivePoolController, name)
    assert not hasattr(HotCConfig, "make_predictor")
