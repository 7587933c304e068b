"""Conservation property: every submitted request reaches exactly one
terminal outcome and no admission state leaks.

10k randomized requests (mixed functions, QoS classes, deadlines, hold
times and arrival gaps) run through one controller while AIMD ticks and
brownout flips happen concurrently.  At quiescence::

    admitted_done + shed + deadline_missed == submitted

and every per-function inflight/queue counter is back to zero.
"""

import itertools

import numpy as np

from repro.admission import AdmissionConfig, AdmissionController, AIMDConfig
from repro.admission import aimd
from repro.faas import FunctionSpec
from repro.faas.tracing import RequestOutcome, RequestTrace
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed

N_REQUESTS = 10_000
TICK_MS = 100.0


def build_specs():
    return [
        FunctionSpec(name="fast", image="python:3.6", exec_ms=5.0),
        FunctionSpec(
            name="slow", image="python:3.6", exec_ms=40.0, deadline_ms=60.0
        ),
        FunctionSpec(
            name="vip", image="python:3.6", exec_ms=10.0, qos="critical"
        ),
    ]


def test_shed_plus_done_plus_missed_equals_submitted(monkeypatch):
    monkeypatch.setattr(aimd, "MAX_LIMIT", 32.0)
    sim = Simulator()
    ctrl = AdmissionController(
        AdmissionConfig(
            max_queue_depth=8,
            aimd=AIMDConfig(initial_limit=4.0),
            default_deadline_ms=80.0,
        )
    )
    ctrl.attach(sim)
    specs = build_specs()
    rng = np.random.default_rng(derive_seed(17, "admission-property"))
    counts = {"done": 0, "shed": 0, "deadline": 0}
    traces = []
    ids = itertools.count()

    def worker(spec, hold_ms):
        trace = RequestTrace(
            request_id=next(ids), function=spec.name, t0_client_send=sim.now
        )
        traces.append(trace)
        admitted = yield from ctrl.admit(spec, trace)
        if admitted:
            yield sim.timeout(hold_ms)
            trace.outcome = RequestOutcome.SUCCESS
            ctrl.release(spec, trace, sim.now)
            counts["done"] += 1
        elif trace.outcome is RequestOutcome.SHED:
            counts["shed"] += 1
        elif trace.outcome is RequestOutcome.DEADLINE:
            counts["deadline"] += 1
        else:  # pragma: no cover - the property under test
            raise AssertionError(f"non-terminal rejection: {trace.outcome}")

    def source():
        for _ in range(N_REQUESTS):
            yield sim.timeout(float(rng.exponential(2.0)))
            spec = specs[int(rng.integers(len(specs)))]
            hold = float(rng.exponential(15.0))
            sim.process(worker(spec, hold))

    def control_plane():
        # AIMD ticks plus adversarial brownout flapping while the
        # workload runs; both stop so the run can quiesce.
        for i in range(400):
            yield sim.timeout(TICK_MS)
            ctrl.tick(sim.now)
            if i % 7 == 3:  # pressure past the threshold: enter
                ctrl.observe_pressure("host-0", 0.8, 0.9, cap_tripped=False)
            elif i % 7 == 5:  # pressure clear of the margin: exit
                ctrl.observe_pressure("host-0", 0.8, 0.1, cap_tripped=False)
        ctrl.observe_pressure("host-0", 0.8, 0.1, cap_tripped=False)

    sim.process(source(), name="source")
    sim.process(control_plane(), name="control")
    sim.run()

    assert len(traces) == N_REQUESTS
    assert counts["done"] + counts["shed"] + counts["deadline"] == N_REQUESTS
    # Stats agree with the per-request ground truth.
    assert ctrl.stats.admitted == counts["done"]
    assert ctrl.stats.shed_total == counts["shed"]
    assert ctrl.stats.deadline_misses == counts["deadline"]
    assert counts["shed"] > 0 and counts["deadline"] > 0  # exercised
    assert set(ctrl.stats.shed) <= {"queue_full", "brownout"}
    # No leaked admission state anywhere.
    assert ctrl.queue_depth_total() == 0
    for name, state in ctrl._states.items():
        assert state.inflight == 0, f"{name}: inflight leak"
        assert len(state.queue) == 0 and state.cancelled == 0
    assert ctrl.stats.queue_depth_peak <= ctrl.config.max_queue_depth
    # Every trace is terminal and self-consistent.
    for trace in traces:
        assert trace.outcome is not RequestOutcome.PENDING
        if trace.outcome is RequestOutcome.SHED:
            assert trace.shed_reason in ("queue_full", "brownout")
        if trace.outcome is RequestOutcome.DEADLINE:
            assert trace.deadline < float("inf")
