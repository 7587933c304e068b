"""Tests for inter-key repurposing ("zygote" sharing, à la Pagurus).

Two functions built on the same base image share a long layer prefix;
after a full-key and relaxed-key miss, HotC may re-specialize an idle
donor container of another key when the similarity-priced re-spec cost
beats the predicted cold boot and the donor key's forecast says the
container will not be missed.  Strictly opt-in: with ``repurpose``
off (the default) runs are bit-identical to the pre-feature behaviour.
"""

import json

import pytest

from repro.containers import (
    ContainerConfig,
    Registry,
    derive_image,
    make_base_image,
    shared_layer_prefix,
)
from repro.core import HotC, HotCConfig, KeySimilarityModel, runtime_key
from repro.core import similarity
from repro.core.keys import KeyPolicy
from repro.faas import FaasPlatform, FunctionSpec
from repro.obs import Observatory, chrome_trace

PY_BASE = make_base_image("python", "3.6", size_mb=330, language="python")
UBUNTU_BASE = make_base_image("ubuntu", "16.04", size_mb=120.0, os_family="ubuntu")

APP_A = derive_image(PY_BASE, "app/a", tag="1", extra_mb=12.0)
APP_B = derive_image(PY_BASE, "app/b", tag="1", extra_mb=14.0)


def sibling_registry():
    return Registry([PY_BASE, APP_A, APP_B])


def make_platform(registry, repurpose=True, seed=0, **overrides):
    config = HotCConfig(
        control_interval_ms=0.0, repurpose=repurpose, **overrides
    )
    return FaasPlatform(
        registry,
        seed=seed,
        jitter_sigma=0.0,
        provider_factory=lambda engine: HotC(engine, config),
    )


def sibling_functions():
    return (
        FunctionSpec(name="fn-a", image=APP_A.reference, exec_ms=20.0),
        FunctionSpec(name="fn-b", image=APP_B.reference, exec_ms=20.0),
    )


def run_sibling_pair(repurpose):
    platform = make_platform(sibling_registry(), repurpose=repurpose)
    for spec in sibling_functions():
        platform.deploy(spec)
    platform.submit("fn-a")
    platform.run()
    platform.submit("fn-b")
    platform.run()
    return platform


class TestConfigValidation:
    def test_disabled_by_default(self):
        assert HotCConfig().repurpose is False

    def test_similarity_model_only_built_when_opted_in(self):
        off = make_platform(sibling_registry(), repurpose=False)
        on = make_platform(sibling_registry(), repurpose=True)
        assert off.provider.similarity is None
        assert on.provider.similarity is not None


class TestSharedLayers:
    def test_derived_siblings_share_base_prefix(self):
        shared = shared_layer_prefix(APP_A, APP_B)
        assert shared == PY_BASE.layers
        assert APP_A.layers[: len(shared)] == shared

    def test_unrelated_bases_share_nothing(self):
        assert shared_layer_prefix(PY_BASE, UBUNTU_BASE) == ()

    def test_derive_image_keeps_language_and_adds_one_layer(self):
        assert APP_A.language == "python"
        assert len(APP_A.layers) == len(PY_BASE.layers) + 1
        assert APP_A.size_mb == pytest.approx(PY_BASE.size_mb + 12.0)

    def test_derive_image_validation(self):
        with pytest.raises(ValueError, match="extra_mb"):
            derive_image(PY_BASE, "x", extra_mb=-1.0)
        with pytest.raises(ValueError, match="compression_ratio"):
            derive_image(PY_BASE, "x", compression_ratio=0.0)


class TestRuntimeKeyImage:
    def test_image_is_first_field_under_every_policy(self):
        config = ContainerConfig(image=APP_A.reference, mem_mb=128.0)
        for policy in KeyPolicy:
            assert runtime_key(config, policy).image == APP_A.reference


class TestSimilarityModel:
    def make_model(self):
        return KeySimilarityModel(registry=sibling_registry())

    def test_identical_config_scores_one(self):
        model = self.make_model()
        config = ContainerConfig(image=APP_A.reference, mem_mb=128.0)
        assert model.score(config, config) == pytest.approx(1.0)

    def test_sibling_images_score_high(self):
        model = self.make_model()
        a = ContainerConfig(image=APP_A.reference, mem_mb=128.0)
        b = ContainerConfig(image=APP_B.reference, mem_mb=128.0)
        score = model.score(a, b)
        # Network + memory match fully; the image share is the base's
        # compressed fraction of the target (large for a thin app layer).
        assert 0.9 < score < 1.0

    def test_image_affinity_bounds(self):
        model = self.make_model()
        assert model.image_affinity(APP_A.reference, APP_A.reference) == 1.0
        affinity = model.image_affinity(APP_A.reference, APP_B.reference)
        assert 0.0 < affinity < 1.0
        assert model.image_affinity(APP_A.reference, "ghost:1") == 0.0

    def test_no_registry_vetoes_cross_image(self):
        model = KeySimilarityModel(registry=None)
        assert model.image_affinity(APP_A.reference, APP_B.reference) == 0.0

    def test_memory_affinity(self):
        affinity = KeySimilarityModel.memory_affinity
        assert affinity(128.0, 128.0) == 1.0
        assert affinity(0.0, 256.0) == 0.0
        assert affinity(0.0, 0.0) == 1.0
        assert affinity(64.0, 128.0) == pytest.approx(0.5)

    def test_respec_fraction_maps_score_linearly(self, monkeypatch):
        monkeypatch.setattr(similarity, "MIN_FRACTION", 0.1)
        monkeypatch.setattr(similarity, "MAX_FRACTION", 0.9)
        model = KeySimilarityModel()
        assert model.respec_fraction(1.0) == pytest.approx(0.1)
        assert model.respec_fraction(0.0) == pytest.approx(0.9)
        assert model.respec_fraction(0.5) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            model.respec_fraction(1.5)

    def test_respec_cost_none_when_not_beating_cold(self, monkeypatch):
        monkeypatch.setattr(similarity, "MIN_FRACTION", 0.5)
        monkeypatch.setattr(similarity, "MAX_FRACTION", 1.0)
        model = KeySimilarityModel()
        assert model.respec_cost_ms(0.0, 100.0) is None
        assert model.respec_cost_ms(1.0, 100.0) == pytest.approx(50.0)


class TestRepurpose:
    def test_sibling_donor_eliminates_cold_boot(self):
        platform = run_sibling_pair(repurpose=True)
        assert platform.traces.cold_count() == 1
        stats = platform.provider.pool.stats
        assert stats.repurposed == 1
        assert stats.cold_starts_eliminated == 1
        assert platform.engine.stats.boots == 1

    def test_disabled_run_cold_boots_twice(self):
        platform = run_sibling_pair(repurpose=False)
        assert platform.traces.cold_count() == 2
        assert platform.provider.pool.stats.repurposed == 0
        assert platform.engine.stats.boots == 2

    def test_repurpose_cheaper_than_cold(self):
        on = run_sibling_pair(repurpose=True)
        off = run_sibling_pair(repurpose=False)
        cold, repurposed = on.traces.latencies()
        assert repurposed < cold
        # Strictly cheaper than the cold boot the disabled run pays.
        assert repurposed < off.traces.latencies()[1]

    def test_hit_ratio_stays_exact_key(self):
        """Both lookups miss on the exact key; the repurpose neither
        counts as a hit nor as a second miss."""
        platform = run_sibling_pair(repurpose=True)
        stats = platform.provider.pool.stats
        assert stats.hits == 0
        assert stats.misses == 2
        assert stats.lookups == 2
        assert stats.hit_ratio == 0.0
        assert stats.relaxed_hits == 0

    def test_trace_stamps_reuse_and_respec(self):
        platform = run_sibling_pair(repurpose=True)
        first, second = list(platform.traces)
        assert first.reuse == ""
        assert first.respec_ms == 0.0
        assert second.reuse == "repurpose"
        assert second.respec_ms > 0.0
        assert second.respec_ms < first.total_latency

    def test_chrome_trace_emits_respec_span(self):
        platform = run_sibling_pair(repurpose=True)
        document = chrome_trace(platform.traces)
        names = {event["name"] for event in document["traceEvents"]}
        assert "respec" in names
        reuse_args = [
            event["args"]["reuse"]
            for event in document["traceEvents"]
            if event.get("args", {}).get("reuse")
        ]
        assert reuse_args == ["repurpose"]

    def test_repurposed_container_rekeyed_under_target(self):
        platform = run_sibling_pair(repurpose=True)
        provider = platform.provider
        spec_a, spec_b = sibling_functions()
        key_a = provider.key_of(spec_a.container_config())
        key_b = provider.key_of(spec_b.container_config())
        assert provider.pool.num_total(key_a) == 0
        assert provider.pool.num_available(key_b) == 1

    def test_same_language_zygote_keeps_runtime_warm(self):
        """A same-language donor keeps the initialized interpreter —
        the repurposed request executes warm."""
        platform = run_sibling_pair(repurpose=True)
        assert platform.engine.stats.cold_execs == 1
        assert platform.engine.stats.warm_execs == 1

    def test_different_language_target_reinitializes(self):
        """Shared-base images with different language runtimes: the
        container is repurposed but the runtime must re-init honestly."""
        app_py = derive_image(UBUNTU_BASE, "app/py", tag="1", language="python")
        app_node = derive_image(UBUNTU_BASE, "app/node", tag="1", language="node")
        registry = Registry([UBUNTU_BASE, app_py, app_node])
        platform = make_platform(registry, repurpose=True)
        platform.deploy(
            FunctionSpec(name="fn-py", image=app_py.reference, exec_ms=20.0)
        )
        platform.deploy(
            FunctionSpec(
                name="fn-node",
                image=app_node.reference,
                language="node",
                exec_ms=20.0,
            )
        )
        platform.submit("fn-py")
        platform.run()
        platform.submit("fn-node")
        platform.run()
        assert platform.provider.pool.stats.repurposed == 1
        assert platform.engine.stats.cold_execs == 2
        assert platform.engine.stats.warm_execs == 0

    def test_dissimilar_keys_never_repurposed(self):
        """Different bases share no layers: the score stays below the
        threshold and both requests cold-boot."""
        go_base = make_base_image("golang", "1.11", size_mb=310, language="go")
        registry = Registry([PY_BASE, go_base])
        platform = make_platform(registry, repurpose=True)
        platform.deploy(FunctionSpec(name="py", image=PY_BASE.reference, exec_ms=20.0))
        platform.deploy(
            FunctionSpec(
                name="go", image=go_base.reference, language="go", exec_ms=20.0
            )
        )
        platform.submit("py")
        platform.run()
        platform.submit("go")
        platform.run()
        assert platform.traces.cold_count() == 2
        assert platform.provider.pool.stats.repurposed == 0

    def test_donor_policy_vetoes_needed_donor(self):
        """A donor key forecast to need its container refuses to donate."""
        platform = make_platform(sibling_registry(), repurpose=True)
        for spec in sibling_functions():
            platform.deploy(spec)
        platform.submit("fn-a")
        platform.run()
        provider = platform.provider
        spec_a, _ = sibling_functions()
        key_a = provider.key_of(spec_a.container_config())
        # Observed demand says fn-a's one container will be needed.
        for _ in range(8):
            provider.controller.observe([key_a], [2.0])
        platform.submit("fn-b")
        platform.run()
        assert platform.traces.cold_count() == 2
        assert provider.pool.stats.repurposed == 0
        assert provider.pool.num_available(key_a) == 1

    def test_exact_hit_preferred_over_repurposing(self):
        platform = run_sibling_pair(repurpose=True)
        platform.submit("fn-b")
        platform.run()
        stats = platform.provider.pool.stats
        assert stats.hits == 1
        assert stats.repurposed == 1  # unchanged by the third request


class TestOptInBitIdentical:
    def run_instrumented(self, repurpose):
        """A workload where repurposing is enabled but never applicable
        (no donor clears the similarity threshold)."""
        go_base = make_base_image("golang", "1.11", size_mb=310, language="go")
        registry = Registry([PY_BASE, go_base])
        platform = make_platform(registry, repurpose=repurpose)
        observatory = Observatory()
        platform.sim.obs = observatory
        platform.deploy(FunctionSpec(name="py", image=PY_BASE.reference, exec_ms=20.0))
        platform.deploy(
            FunctionSpec(
                name="go", image=go_base.reference, language="go", exec_ms=20.0
            )
        )
        for delay, name in ((0.0, "py"), (500.0, "go"), (2_000.0, "py")):
            platform.submit(name, delay=delay)
        platform.run()
        platform.shutdown()
        return platform, observatory

    def test_event_log_and_traces_byte_identical(self):
        off_platform, off_obs = self.run_instrumented(repurpose=False)
        on_platform, on_obs = self.run_instrumented(repurpose=True)
        assert off_obs.events.to_jsonl() == on_obs.events.to_jsonl()
        off_doc = json.dumps(chrome_trace(off_platform.traces), sort_keys=True)
        on_doc = json.dumps(chrome_trace(on_platform.traces), sort_keys=True)
        assert off_doc == on_doc
        assert list(off_platform.traces.latencies()) == list(
            on_platform.traces.latencies()
        )
