"""Unit tests for FunctionSpec."""

import pytest

from repro.containers import NetworkConfig
from repro.faas import FaasPlatform, FunctionSpec


class TestFunctionSpec:
    def test_minimal(self):
        spec = FunctionSpec(name="fn", image="python:3.6")
        assert spec.language == "python"

    def test_name_required(self):
        with pytest.raises(ValueError):
            FunctionSpec(name="", image="x")

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            FunctionSpec(name="f", image="x", exec_ms=-1)
        with pytest.raises(ValueError):
            FunctionSpec(name="f", image="x", app_init_ms=-1)

    def test_container_config_carries_parameters(self):
        spec = FunctionSpec(
            name="fn",
            image="python:3.6",
            network=NetworkConfig(mode="host"),
            uts_mode="host",
            env=(("A", "1"),),
            cpu_millicores=500,
            mem_mb=256,
        )
        config = spec.container_config()
        assert config.image == "python:3.6"
        assert config.network.mode == "host"
        assert config.uts_mode == "host"
        assert config.env == (("A", "1"),)
        assert config.cpu_millicores == 500

    def test_exec_spec_carries_costs(self):
        payload = lambda: "out"
        spec = FunctionSpec(
            name="fn",
            image="python:3.6",
            exec_ms=123,
            app_init_ms=45,
            write_mb=6,
            payload=payload,
        )
        exec_spec = spec.exec_spec()
        assert exec_spec.app_id == "fn"
        assert exec_spec.exec_ms == 123
        assert exec_spec.app_init_ms == 45
        assert exec_spec.write_mb == 6
        assert exec_spec.payload is payload

    def test_with_overrides(self):
        spec = FunctionSpec(name="fn", image="python:3.6", exec_ms=10)
        faster = spec.with_overrides(exec_ms=5)
        assert faster.exec_ms == 5
        assert faster.name == "fn"
        assert spec.exec_ms == 10  # original untouched

    def test_specs_hashable(self):
        a = FunctionSpec(name="fn", image="python:3.6")
        b = FunctionSpec(name="fn", image="python:3.6")
        assert a == b and hash(a) == hash(b)


class TestRequestPlan:
    """The config and exec spec are built once per function, not per request."""

    def test_requests_share_one_config_and_exec_spec(self, registry):
        from repro.core import HotC

        seen = []

        class Recording(HotC):
            def acquire(self, config):
                seen.append(config)
                return (yield from super().acquire(config))

        platform = FaasPlatform(
            registry, seed=1, jitter_sigma=0.0, provider_factory=Recording
        )
        spec = FunctionSpec(name="fn", image="python:3.6", exec_ms=1.0)
        platform.deploy(spec)
        for i in range(3):
            platform.submit("fn", delay=i * 1_000.0)
        platform.run()
        assert len(seen) == 3
        assert all(config is spec.container_config() for config in seen)
        assert spec.exec_spec() is spec.exec_spec()

    def test_runtime_key_derived_once_per_function(self, registry, monkeypatch):
        from repro.core import HotC, keys

        built = []
        real = keys.RuntimeKey

        def counting(*args, **kwargs):
            built.append(kwargs.get("fields"))
            return real(*args, **kwargs)

        monkeypatch.setattr(keys, "RuntimeKey", counting)
        platform = FaasPlatform(
            registry, seed=1, jitter_sigma=0.0, provider_factory=HotC
        )
        for name in ("a", "b"):
            platform.deploy(
                FunctionSpec(name=name, image="python:3.6", env=(("F", name),))
            )
        for i in range(10):
            platform.submit("ab"[i % 2], delay=i * 500.0)
        platform.run()
        assert platform.traces.failed_count() == 0
        assert len(built) == 2

    def test_with_overrides_builds_a_new_plan(self):
        spec = FunctionSpec(name="fn", image="python:3.6", mem_mb=128.0)
        config, exec_spec = spec.container_config(), spec.exec_spec()
        bigger = spec.with_overrides(mem_mb=256.0, exec_ms=7.0)
        assert bigger.container_config() is not config
        assert bigger.container_config().mem_mb == 256.0
        assert bigger.exec_spec().exec_ms == 7.0
        assert spec.container_config() is config
        assert spec.exec_spec() is exec_spec
        # The kept plan is not part of the spec's value.
        assert spec == FunctionSpec(name="fn", image="python:3.6", mem_mb=128.0)
