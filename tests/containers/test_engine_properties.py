"""Property-based stress tests of the container engine.

Random operation sequences must never corrupt the engine's invariants:
resource ledgers return to zero, volume counts track live containers,
and the lifecycle FSM is always respected.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.containers import (
    ContainerConfig,
    ContainerEngine,
    ContainerError,
    ContainerState,
    ExecSpec,
    Registry,
    make_base_image,
)
from repro.sim import Simulator


def build_engine():
    registry = Registry(
        [
            make_base_image("alpine", "3.8", size_mb=5),
            make_base_image("python", "3.6", size_mb=50, language="python"),
        ]
    )
    sim = Simulator()
    return sim, ContainerEngine(sim, registry, rng=None)


def run(sim, generator):
    proc = sim.process(generator)
    sim.run()
    if not proc.ok:
        raise proc.value
    return proc.value


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["boot", "exec", "clean", "stop", "kill", "remove"]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["alpine:3.8", "python:3.6"]),
    ),
    max_size=40,
)


class TestEngineInvariants:
    @settings(max_examples=40, deadline=None)
    @given(operations=OPERATIONS)
    def test_random_op_sequences_keep_invariants(self, operations):
        sim, engine = build_engine()
        containers = []
        stopped = []

        for op, index, image in operations:
            try:
                if op == "boot":
                    language = "python" if image.startswith("python") else None
                    container = run(
                        sim,
                        engine.boot_container(
                            ContainerConfig(image=image, cpu_millicores=50, mem_mb=16)
                        ),
                    )
                    containers.append(container)
                elif op == "exec" and containers:
                    container = containers[index % len(containers)]
                    language = (
                        "python"
                        if container.config.image.startswith("python")
                        else "python"
                    )
                    if container.config.image.startswith("alpine"):
                        spec = ExecSpec(app_id="fn", language="go", exec_ms=5)
                    else:
                        spec = ExecSpec(app_id="fn", language="python", exec_ms=5)
                    run(sim, engine.execute(container, spec))
                elif op == "clean" and containers:
                    run(sim, engine.clean_container(containers[index % len(containers)]))
                elif op == "stop" and containers:
                    container = containers[index % len(containers)]
                    run(sim, engine.stop_container(container))
                    containers.remove(container)
                    stopped.append(container)
                elif op == "kill" and containers:
                    container = containers[index % len(containers)]
                    engine.kill_container(container)
                    containers.remove(container)
                elif op == "remove" and stopped:
                    container = stopped[index % len(stopped)]
                    run(sim, engine.remove_container(container))
                    stopped.remove(container)
            except ContainerError:
                # Illegal ops (wrong language, wrong state) must not
                # corrupt anything; invariants are checked below anyway.
                pass

            # --- invariants after every step ---
            # The live index against an independent scan of the FSM.
            scanned = tuple(
                c
                for _, c in sorted(engine._containers.items())
                if c.state in (ContainerState.RUNNING, ContainerState.EXECUTING)
            )
            live = engine.live_containers()
            assert live == scanned
            assert engine.live_count == len(scanned)
            # One mounted volume per live container, none dangling.
            assert len(engine.volumes) == len(live)
            for container in live:
                assert container.volume is not None
                assert container.volume.mounted_by == container.container_id
            # Idle footprint accounting is exact.
            expected_mem = len(live) * engine.latency.ops.idle_container_mem_mb
            assert engine.resources.used_mem_mb == pytest.approx(expected_mem)

        # Drain everything and verify the ledgers return to zero.
        for container in list(containers):
            if container.is_reusable:
                run(sim, engine.stop_container(container))
                run(sim, engine.remove_container(container))
        for container in list(stopped):
            run(sim, engine.remove_container(container))
        assert engine.resources.cpu_used_millicores == pytest.approx(0)
        assert engine.resources.used_mem_mb == pytest.approx(0)
        assert len(engine.volumes) == 0

    @settings(max_examples=20, deadline=None)
    @given(
        n_containers=st.integers(min_value=1, max_value=8),
        n_execs=st.integers(min_value=1, max_value=10),
    )
    def test_exec_counters_consistent(self, n_containers, n_execs):
        sim, engine = build_engine()
        containers = [
            run(sim, engine.boot_container(ContainerConfig(image="python:3.6")))
            for _ in range(n_containers)
        ]
        for index in range(n_execs):
            container = containers[index % n_containers]
            run(
                sim,
                engine.execute(
                    container, ExecSpec(app_id="fn", language="python", exec_ms=1)
                ),
            )
        assert engine.stats.total_execs == n_execs
        assert engine.stats.cold_execs == min(n_execs, n_containers)
        assert sum(c.exec_count for c in containers) == n_execs
