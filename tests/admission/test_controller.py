"""AdmissionController behaviour: queues, sheds, deadlines, shutdown."""

import itertools

import pytest

from repro.admission import AdmissionConfig, AdmissionController, AIMDConfig
from repro.faas import FunctionSpec
from repro.faas.tracing import RequestOutcome, RequestTrace
from repro.sim.engine import Simulator


def make_controller(sim, **overrides):
    kwargs = dict(
        max_queue_depth=2,
        aimd=AIMDConfig(initial_limit=1.0),
        default_deadline_ms=None,
    )
    kwargs.update(overrides)
    ctrl = AdmissionController(AdmissionConfig(**kwargs))
    ctrl.attach(sim)
    return ctrl


def spec_of(**overrides):
    kwargs = dict(name="fn", image="python:3.6", exec_ms=10.0)
    kwargs.update(overrides)
    return FunctionSpec(**kwargs)


class Client:
    """Drives admission-gated worker processes and records outcomes."""

    def __init__(self, sim, ctrl):
        self.sim = sim
        self.ctrl = ctrl
        self.traces = []
        self.finish_order = []
        self._ids = itertools.count()

    def spawn(self, spec, hold_ms=10.0, delay=0.0):
        trace = RequestTrace(
            request_id=next(self._ids),
            function=spec.name,
            t0_client_send=self.sim.now + delay,
        )
        self.traces.append(trace)

        def work():
            if delay > 0:
                yield self.sim.timeout(delay)
            admitted = yield from self.ctrl.admit(spec, trace)
            if admitted:
                yield self.sim.timeout(hold_ms)
                trace.outcome = RequestOutcome.SUCCESS
                self.ctrl.release(spec, trace, self.sim.now)
            self.finish_order.append(trace.request_id)

        return self.sim.process(work(), name=f"req-{trace.request_id}")

    def outcomes(self):
        return [t.outcome for t in self.traces]


class TestAdmission:
    def test_direct_admission_under_limit(self):
        sim = Simulator()
        ctrl = make_controller(sim, aimd=AIMDConfig(initial_limit=2.0))
        client = Client(sim, ctrl)
        spec = spec_of()
        for _ in range(2):
            client.spawn(spec)
        sim.run()
        assert client.outcomes() == [RequestOutcome.SUCCESS] * 2
        assert ctrl.stats.admitted == 2
        assert ctrl.stats.admitted_queued == 0
        assert ctrl.stats.queue_depth_peak == 0
        assert ctrl.inflight("fn") == 0

    def test_queue_grants_in_fifo_order(self):
        sim = Simulator()
        ctrl = make_controller(sim, max_queue_depth=8)
        client = Client(sim, ctrl)
        spec = spec_of()
        for _ in range(4):
            client.spawn(spec, hold_ms=10.0)
        sim.run()
        assert client.finish_order == [0, 1, 2, 3]
        assert client.outcomes() == [RequestOutcome.SUCCESS] * 4
        assert ctrl.stats.admitted == 4
        assert ctrl.stats.admitted_queued == 3
        # Serialized behind a limit of 1: each waits one more hold.
        assert [t.queue_ms for t in client.traces] == [0.0, 10.0, 20.0, 30.0]
        assert sim.now == pytest.approx(40.0)

    def test_queue_full_sheds_with_reason(self):
        sim = Simulator()
        ctrl = make_controller(sim, max_queue_depth=2)
        client = Client(sim, ctrl)
        spec = spec_of()
        for _ in range(5):
            client.spawn(spec, hold_ms=10.0)
        sim.run()
        outcomes = client.outcomes()
        assert outcomes.count(RequestOutcome.SUCCESS) == 3
        assert outcomes.count(RequestOutcome.SHED) == 2
        # The overflow (requests 3 and 4) is shed; the earlier ones keep
        # their queue slots.
        assert [t.outcome for t in client.traces[3:]] == [RequestOutcome.SHED] * 2
        assert all(t.shed_reason == "queue_full" for t in client.traces[3:])
        assert ctrl.stats.shed == {"queue_full": 2}
        assert ctrl.stats.queue_depth_peak == 2

    def test_deadline_while_queued_is_lazily_cancelled(self):
        sim = Simulator()
        ctrl = make_controller(sim, default_deadline_ms=15.0)
        client = Client(sim, ctrl)
        spec = spec_of()
        client.spawn(spec, hold_ms=20.0)
        client.spawn(spec, hold_ms=20.0)
        sim.run()
        first, second = client.traces
        assert first.outcome is RequestOutcome.SUCCESS
        assert second.outcome is RequestOutcome.DEADLINE
        assert second.queue_ms == pytest.approx(15.0)
        assert ctrl.stats.deadline_misses == 1
        assert ctrl.inflight("fn") == 0
        assert ctrl.queue_depth("fn") == 0
        # The lazily cancelled record was swept out of the deque.
        state = ctrl._states["fn"]
        assert len(state.queue) == 0 and state.cancelled == 0

    def test_spec_deadline_overrides_default(self):
        sim = Simulator()
        ctrl = make_controller(sim, default_deadline_ms=1_000.0)
        client = Client(sim, ctrl)
        spec = spec_of(deadline_ms=5.0)
        client.spawn(spec, hold_ms=20.0)
        client.spawn(spec, hold_ms=20.0)
        sim.run()
        assert client.traces[1].outcome is RequestOutcome.DEADLINE
        assert client.traces[1].deadline == pytest.approx(5.0)

    def test_grant_racing_deadline_returns_the_slot(self):
        """Release and deadline land on the same instant: the deadline
        wins (its timer was armed first) and the granted slot is handed
        straight back, so accounting stays exact."""
        sim = Simulator()
        ctrl = make_controller(sim, default_deadline_ms=15.0)
        client = Client(sim, ctrl)
        spec = spec_of()
        client.spawn(spec, hold_ms=15.0)  # releases exactly at t=15
        client.spawn(spec, hold_ms=15.0)  # deadline exactly at t=15
        sim.run()
        assert client.traces[0].outcome is RequestOutcome.SUCCESS
        assert client.traces[1].outcome is RequestOutcome.DEADLINE
        assert ctrl.stats.admitted == 1
        assert ctrl.stats.deadline_misses == 1
        assert ctrl.inflight("fn") == 0
        # The slot is reusable afterwards.
        client.spawn(spec, hold_ms=1.0)
        sim.run()
        assert client.traces[2].outcome is RequestOutcome.SUCCESS

    def test_shutdown_drains_queue_and_rejects_new(self):
        sim = Simulator()
        ctrl = make_controller(sim, max_queue_depth=8)
        client = Client(sim, ctrl)
        spec = spec_of()
        for _ in range(3):
            client.spawn(spec, hold_ms=50.0)
        sim.run(until=1.0)
        assert ctrl.queue_depth("fn") == 2
        ctrl.begin_shutdown()
        ctrl.begin_shutdown()  # idempotent
        assert ctrl.draining
        client.spawn(spec, delay=1.0)  # arrives after the drain began
        sim.run()
        assert client.traces[0].outcome is RequestOutcome.SUCCESS
        assert [t.outcome for t in client.traces[1:]] == [RequestOutcome.SHED] * 3
        assert all(t.shed_reason == "shutdown" for t in client.traces[1:])
        assert ctrl.stats.shed == {"shutdown": 3}
        assert ctrl.queue_depth("fn") == 0

    def test_brownout_sheds_standard_spares_critical(self):
        sim = Simulator()
        ctrl = make_controller(sim, aimd=AIMDConfig(initial_limit=8.0))
        client = Client(sim, ctrl)
        standard = spec_of()
        critical = spec_of(name="vip", qos="critical")
        # Memory fraction 0.9 crosses the 0.8 threshold: enter.
        assert ctrl.observe_pressure("host-0", 0.8, 0.9, cap_tripped=False)
        assert ctrl.brownout_active
        client.spawn(standard, hold_ms=1.0)
        client.spawn(critical, hold_ms=1.0)
        sim.run()
        assert client.traces[0].outcome is RequestOutcome.SHED
        assert client.traces[0].shed_reason == "brownout"
        assert client.traces[1].outcome is RequestOutcome.SUCCESS
        # Brownout cleared: standard traffic flows again.
        # 0.1 is below threshold - margin: exit.
        assert not ctrl.observe_pressure("host-0", 0.8, 0.1, cap_tripped=False)
        assert not ctrl.brownout_active
        client.spawn(standard, hold_ms=1.0)
        sim.run()
        assert client.traces[2].outcome is RequestOutcome.SUCCESS


class TestAIMDIntegration:
    def test_release_outcomes_feed_the_limiter(self):
        sim = Simulator()
        ctrl = make_controller(sim, aimd=AIMDConfig(initial_limit=4.0))
        client = Client(sim, ctrl)
        client.spawn(spec_of(), hold_ms=5.0)
        sim.run()
        limiter = ctrl._states["fn"].limiter
        assert limiter.successes == 1
        # Finishing *after* the deadline counts as a miss even though
        # the execution itself succeeded.
        client.spawn(spec_of(deadline_ms=2.0), hold_ms=10.0)
        sim.run()
        assert limiter.misses == 1

    def test_tick_applies_cut_and_is_idempotent_per_instant(self):
        sim = Simulator()
        ctrl = make_controller(sim, aimd=AIMDConfig(initial_limit=8.0))
        state = ctrl._state_for("fn")
        state.limiter.record_miss()
        ctrl.tick(1_000.0)
        assert ctrl.limit("fn") == 4
        # A second (co-scheduled multi-host) tick at the same instant
        # collapses: no double cut.
        state.limiter.record_miss()
        ctrl.tick(1_000.0)
        assert ctrl.limit("fn") == 4
        ctrl.tick(2_000.0)
        assert ctrl.limit("fn") == 2

    def test_raised_limit_wakes_queued_waiters(self):
        sim = Simulator()
        ctrl = make_controller(sim, max_queue_depth=8)
        client = Client(sim, ctrl)
        spec = spec_of()
        for _ in range(3):
            client.spawn(spec, hold_ms=1_000.0)
        sim.run(until=1.0)
        assert ctrl.inflight("fn") == 1
        assert ctrl.queue_depth("fn") == 2
        # The control tick raises the limit; waiters must not stay
        # parked until the next release frees a slot.
        state = ctrl._states["fn"]
        state.limiter.record_success()
        ctrl.tick(sim.now)
        sim.run(until=2.0)
        assert ctrl.inflight("fn") == 2
        assert ctrl.queue_depth("fn") == 1

    def test_limit_accessor_for_unknown_function(self):
        sim = Simulator()
        ctrl = make_controller(sim, aimd=AIMDConfig(initial_limit=7.0))
        assert ctrl.limit("never-seen") == 7
        assert ctrl.inflight("never-seen") == 0
        assert ctrl.queue_depth("never-seen") == 0
