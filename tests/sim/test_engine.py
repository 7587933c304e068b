"""Unit tests for the process engine (repro.sim.engine)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import AllOf, AnyOf, Interrupt, Simulator


class TestTimeoutAndRun:
    def test_timeout_advances_clock(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(10.0)
            return sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == 10.0
        assert sim.now == 10.0

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_non_finite_timeout_rejected(self):
        sim = Simulator()
        for delay in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                sim.timeout(delay)
        # A rejected delay must not leave a half-scheduled event behind.
        assert len(sim._queue) == 0
        sim.run()
        assert sim.now == 0.0

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        final = sim.run(until=50.0)
        assert final == 50.0
        assert sim.now == 50.0
        # The event at t=100 is still pending.
        sim.run()
        assert sim.now == 100.0

    def test_run_until_past_raises(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_zero_delay_events_run_in_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.0, order.append, 1)
        sim.schedule(0.0, order.append, 2)
        sim.run()
        assert order == [1, 2]

    def test_timeout_cancel(self):
        sim = Simulator()
        t = sim.timeout(5.0)
        t.cancel()
        sim.run()
        assert not t.triggered


class TestProcess:
    def test_process_return_value(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(3.0)
            return "payload"

        def parent(sim):
            value = yield sim.process(child(sim))
            return value + "!"

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == "payload!"

    def test_yield_timeout_value(self):
        sim = Simulator()

        def proc(sim):
            got = yield sim.timeout(1.0, value="tick")
            return got

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "tick"

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def failing(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("inner")

        def outer(sim):
            try:
                yield sim.process(failing(sim))
            except RuntimeError as exc:
                return f"caught {exc}"

        p = sim.process(outer(sim))
        sim.run()
        assert p.value == "caught inner"

    def test_uncaught_exception_fails_process(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1.0)
            raise ValueError("boom")

        p = sim.process(bad(sim))
        sim.run()
        assert p.triggered and not p.ok
        assert isinstance(p.value, ValueError)

    def test_yield_non_event_fails(self):
        sim = Simulator()

        def wrong(sim):
            yield "5"  # type: ignore[misc]

        p = sim.process(wrong(sim))
        sim.run()
        assert not p.ok
        assert isinstance(p.value, TypeError)

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_interrupt_waiting_process(self):
        sim = Simulator()

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
                return "slept"
            except Interrupt as i:
                return f"interrupted:{i.cause}"

        p = sim.process(sleeper(sim))
        sim.schedule(10.0, p.interrupt, "wakeup")
        sim.run()
        assert p.value == "interrupted:wakeup"
        assert sim.now < 100.0

    def test_interrupt_finished_process_raises(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(1.0)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_is_alive(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(1.0)

        p = sim.process(quick(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestSleep:
    """A process may sleep by yielding its delay in ms."""

    @pytest.mark.parametrize("delay", [2.5, 3, np.float64(4.25)])
    def test_number_advances_clock(self, delay):
        sim = Simulator()

        def proc(sim):
            got = yield delay
            return got, sim.now

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == (None, float(delay))
        assert sim.now == float(delay)
        assert type(sim.now) is float

    def test_bool_is_not_a_delay(self):
        sim = Simulator()

        def wrong(sim):
            yield True

        p = sim.process(wrong(sim))
        sim.run()
        assert not p.ok
        assert isinstance(p.value, TypeError)

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf"), -3])
    def test_invalid_delay_raises_inside_generator(self, delay):
        sim = Simulator()
        seen = []

        def proc(sim):
            try:
                yield delay
            except ValueError as error:
                seen.append(sim.now)
                assert len(sim._queue) == 0
                return str(error)

        p = sim.process(proc(sim))
        sim.run()
        assert p.ok and "finite and >= 0" in p.value
        assert seen == [0.0]
        assert len(sim._queue) == 0 and sim.now == 0.0

    def test_int_past_float_range_raises_inside_generator(self):
        sim = Simulator()

        def proc(sim):
            try:
                yield 10**400
            except OverflowError:
                return "caught"

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "caught" and sim.now == 0.0

    def test_invalid_delay_runs_finally_and_fails_process(self):
        sim = Simulator()
        cleaned = []

        def proc(sim):
            try:
                yield 1.0
                yield -1.0
            finally:
                cleaned.append(sim.now)

        p = sim.process(proc(sim))
        sim.run()
        assert cleaned == [1.0]
        assert not p.ok and isinstance(p.value, ValueError)
        assert sim.now == 1.0

    def test_interrupt_cancels_sleep(self):
        sim = Simulator()

        def sleeper(sim):
            try:
                yield 100.0
            except Interrupt as i:
                return f"interrupted:{i.cause}"

        p = sim.process(sleeper(sim))
        sim.schedule(10.0, p.interrupt, "wakeup")
        assert sim.run() == 10.0
        assert p.value == "interrupted:wakeup"
        assert len(sim._queue) == 0

    def test_interrupted_sleeper_sleeps_again(self):
        sim = Simulator()
        log = []

        def sleeper(sim):
            for _ in range(2):
                try:
                    yield 50.0
                    log.append(("woke", sim.now))
                except Interrupt:
                    log.append(("interrupted", sim.now))

        p = sim.process(sleeper(sim))
        sim.schedule(10.0, p.interrupt)
        sim.run()
        assert log == [("interrupted", 10.0), ("woke", 60.0)]
        assert p.ok and sim.now == 60.0


#: Delays drawn for the order-equivalence property: zeros and repeated
#: values make same-instant ties common; ints take the coercion path.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0, 1.0, 2, 2.5]),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)
#: One sleep: its delay and whether the mixed run yields a Timeout for it.
SLEEP = st.tuples(DELAYS, st.booleans())
#: One step of a top-level process: a sleep, then an optional child
#: process (its own list of sleeps) spawned at the wake instant.
STEP = st.tuples(SLEEP, st.none() | st.lists(SLEEP, max_size=3))


def _run_sleepers(plans, mixed):
    """The ``(now, label)`` log and step count of one run of ``plans``.

    With ``mixed`` each sleep yields ``d`` or ``sim.timeout(d)`` as its
    plan says; without it every sleep yields ``sim.timeout(d)``.
    """
    sim = Simulator()
    log = []

    def sleep(label, delay, use_timeout):
        # A nested generator, so every sleep also crosses a yield from.
        if mixed and not use_timeout:
            yield delay
        else:
            yield sim.timeout(delay)
        log.append((sim.now, label))

    def child(name, sleeps):
        for index, (delay, use_timeout) in enumerate(sleeps):
            yield from sleep(f"{name}.{index}", delay, use_timeout)

    def parent(name, steps):
        for index, ((delay, use_timeout), children) in enumerate(steps):
            yield from sleep(f"{name}.{index}", delay, use_timeout)
            if children is not None:
                sim.process(child(f"{name}.{index}c", children))

    for name, steps in enumerate(plans):
        sim.process(parent(f"p{name}", steps))
    sim.run()
    return log, sim.steps


#: One operation of a process in the contention property: a sleep; a
#: hold of one of two capacity-1 resources for a sleep; a wait on one of
#: two shared events followed by a sleep; firing a shared event; an
#: interrupt of a top-level process; or spawning a child of sleeps.
OP = st.one_of(
    st.tuples(st.just("sleep"), SLEEP),
    st.tuples(st.just("hold"), st.integers(0, 1), SLEEP),
    st.tuples(st.just("wait"), st.integers(0, 1), SLEEP),
    st.tuples(st.just("fire"), st.integers(0, 1)),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.tuples(st.just("spawn"), st.lists(SLEEP, max_size=3)),
)


def _run_contended(programs, slices, mixed):
    """The ``(now, label)`` log and step count of one run of ``programs``.

    Sleeps choose ``d`` or ``sim.timeout(d)`` as in :func:`_run_sleepers`.
    The run is driven through ``run(until=t)`` for each slice end in
    ``slices`` (sorted, clamped to the clock), then drained.
    """
    sim = Simulator()
    log = []
    resources = [sim.resource(1, name=f"r{i}") for i in range(2)]
    events = [sim.event(f"e{i}") for i in range(2)]
    procs = []

    def sleep(label, delay, use_timeout):
        if mixed and not use_timeout:
            yield delay
        else:
            yield sim.timeout(delay)
        log.append((sim.now, label))

    def child(name, sleeps):
        for index, (delay, use_timeout) in enumerate(sleeps):
            yield from sleep(f"{name}.{index}", delay, use_timeout)

    def hold(label, resource, sleep_plan):
        request = resource.request()
        try:
            yield request
        except Interrupt:
            if not resource.cancel(request):
                resource.release()
            raise
        log.append((sim.now, label + ":granted"))
        try:
            yield from sleep(label, *sleep_plan)
        finally:
            resource.release()

    def program(name, ops):
        for index, op in enumerate(ops):
            label = f"{name}.{index}"
            try:
                kind = op[0]
                if kind == "sleep":
                    yield from sleep(label, *op[1])
                elif kind == "hold":
                    yield from hold(label, resources[op[1]], op[2])
                elif kind == "wait":
                    value = yield events[op[1]]
                    log.append((sim.now, f"{label}:woke:{value}"))
                    yield from sleep(label, *op[2])
                elif kind == "fire":
                    if not events[op[1]].triggered:
                        events[op[1]].succeed(label)
                elif kind == "interrupt":
                    target = procs[op[1] % len(procs)]
                    if target.is_alive:
                        target.interrupt(label)
                else:
                    sim.process(child(f"{label}c", op[1]))
            except Interrupt as interrupt:
                log.append((sim.now, f"{label}:interrupted:{interrupt.cause}"))

    for name, ops in enumerate(programs):
        procs.append(sim.process(program(f"p{name}", ops)))
    for end in sorted(slices):
        sim.run(until=max(end, sim.now))
        log.append((sim.now, "slice"))
    sim.run()
    log.extend((sim.now, f"{p.name}:{p.ok}:{p.value!r}") for p in procs)
    return log, sim.steps


class TestSleepOrderEquivalence:
    """Timeouts never run ahead, so the all-Timeout run is the oracle
    for every run that sleeps by yielding delays."""

    @settings(max_examples=60, deadline=None)
    @given(plans=st.lists(st.lists(STEP, max_size=6), min_size=1, max_size=5))
    def test_yielded_delays_fire_like_timeouts(self, plans):
        """Yielding ``d`` or ``sim.timeout(d)`` per sleep, chosen at
        random, gives the same ``(now, label)`` log as all-Timeout."""
        assert _run_sleepers(plans, mixed=True) == _run_sleepers(plans, mixed=False)

    @settings(max_examples=80, deadline=None)
    @given(
        programs=st.lists(st.lists(OP, max_size=6), min_size=1, max_size=5),
        slices=st.lists(st.floats(min_value=0.0, max_value=30.0), max_size=4),
    )
    def test_contention_interrupts_and_slices_match_timeouts(self, programs, slices):
        """Resource handoffs, events with several waiters, interrupted
        sleepers and ``run(until=...)`` slices: the ``(now, label)`` log
        and ``steps`` equal the all-Timeout run's."""
        assert _run_contended(programs, slices, mixed=True) == _run_contended(
            programs, slices, mixed=False
        )


class TestRunAhead:
    """A sleep resumed from the drain loop may wake in place when it ends
    before every queued entry; nowhere else may the clock jump."""

    def test_second_waiter_sees_firing_time(self):
        # The first waiter's 5 ms sleep would end before anything queued,
        # but it is scheduled inside the event's dispatch: the second
        # waiter must still run at the firing instant.
        sim = Simulator()
        event = sim.event("e")
        log = []

        def first(sim):
            yield event
            yield 5.0
            log.append(("first", sim.now))

        def second(sim):
            yield event
            log.append(("second", sim.now))

        sim.process(first(sim))
        sim.process(second(sim))
        sim.schedule(10.0, event.succeed)
        sim.run()
        assert log == [("second", 10.0), ("first", 15.0)]

    def test_second_waiter_on_handoff_sees_release_time(self):
        # A Resource.release handoff grants the waiter through the grant
        # event's dispatch; a second watcher of that grant runs after it.
        sim = Simulator()
        slot = sim.resource(1)
        log = []
        grants = []

        def holder(sim):
            yield slot.request()
            yield 10.0
            slot.release()

        def waiter(sim):
            grant = slot.request()
            grants.append(grant)
            yield grant
            yield 5.0
            log.append(("waiter", sim.now))
            slot.release()

        def watcher(sim):
            yield grants[0]
            log.append(("watcher", sim.now))

        sim.process(holder(sim))
        sim.process(waiter(sim))
        sim.process(watcher(sim))
        sim.run()
        assert log == [("watcher", 10.0), ("waiter", 15.0)]
        assert slot.in_use == 0

    def test_zero_sleep_in_dispatch_keeps_waiter_order(self):
        # A zero sleep moves no clock, but waking in place would still
        # run the first waiter's next step before the second waiter's.
        sim = Simulator()
        event = sim.event("e")
        log = []

        def first(sim):
            yield event
            yield 0.0
            log.append(("first", sim.now))

        def second(sim):
            yield event
            log.append(("second", sim.now))

        sim.process(first(sim))
        sim.process(second(sim))
        sim.schedule(10.0, event.succeed)
        sim.run()
        assert log == [("second", 10.0), ("first", 10.0)]

    def test_sleep_ending_at_until_runs_in_that_call(self):
        sim = Simulator()
        log = []

        def sleeper(sim):
            yield 10.0
            log.append(sim.now)
            yield 5.0
            log.append(sim.now)

        sim.process(sleeper(sim))
        assert sim.run(until=10.0) == 10.0
        assert log == [10.0]
        # The 5 ms sleep ends past until=12 and stays queued.
        assert sim.run(until=12.0) == 12.0
        assert log == [10.0] and len(sim._queue) == 1
        sim.run()
        assert log == [10.0, 15.0] and sim.now == 15.0

    def test_step_executes_exactly_one_entry(self):
        sim = Simulator()
        log = []

        def sleeper(sim):
            for _ in range(3):
                yield 1.0
                log.append(sim.now)

        sim.process(sleeper(sim))
        sim.step()  # the start entry: the first sleep is queued, not run
        assert (sim.now, sim.steps, log, len(sim._queue)) == (0.0, 1, [], 1)
        sim.step()
        assert (sim.now, sim.steps, log, len(sim._queue)) == (1.0, 2, [1.0], 1)
        sim.run()
        assert (sim.now, sim.steps, log) == (3.0, 4, [1.0, 2.0, 3.0])

    def test_steps_count_every_wake(self):
        def sleeps(sim):
            for _ in range(50):
                yield 2.0

        def timeouts(sim):
            for _ in range(50):
                yield sim.timeout(2.0)

        counts = []
        for body in (sleeps, timeouts):
            sim = Simulator()
            sim.process(body(sim))
            sim.run()
            assert sim.now == 100.0
            counts.append((sim.steps, sim._queue._seq))
        # The start entry plus 50 wakes, and one seq per wake, either way.
        assert counts == [(51, 51), (51, 51)]

    def test_interrupt_at_spawn_instant_skips_the_body(self):
        sim = Simulator()
        ran = []

        def body(sim):
            ran.append(sim.now)
            yield 1.0

        p = sim.process(body(sim))
        p.interrupt("early")
        sim.run()
        assert ran == []
        assert not p.ok and isinstance(p.value, Interrupt)
        assert p.value.cause == "early"

    def test_zero_sleep_never_jumps_a_queued_entry(self):
        sim = Simulator()
        log = []

        def a(sim):
            log.append("a0")
            sim.schedule(0.0, log.append, "cb")
            yield 0.0
            log.append("a1")
            yield 0
            log.append("a2")

        def b(sim):
            log.append("b")
            yield 0.0
            log.append("b1")

        sim.process(a(sim))
        sim.process(b(sim))
        sim.run()
        assert log == ["a0", "b", "cb", "a1", "b1", "a2"]
        assert sim.now == 0.0


class TestEvery:
    def test_ticks_once_per_period_starting_one_period_out(self):
        sim = Simulator()
        ticks = []
        loop = sim.every(10.0, lambda: ticks.append(sim.now), name="tick")
        sim.run(until=35.0)
        loop.stop()
        sim.run()
        assert ticks == [10.0, 20.0, 30.0]
        # The stopped loop's pending wake exits at 40 without ticking.
        assert sim.now == 40.0

    def test_restart_within_a_period_leaves_no_stale_loop(self):
        sim = Simulator()
        ticks = []
        loop = sim.every(10.0, lambda: ticks.append(("old", sim.now)))
        sim.run(until=15.0)
        loop.stop()
        loop = sim.every(10.0, lambda: ticks.append(("new", sim.now)))
        sim.run(until=40.0)
        loop.stop()
        sim.run()
        assert ticks == [("old", 10.0), ("new", 25.0), ("new", 35.0)]

    def test_tick_that_stops_its_loop_ends_it_at_once(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            loop.stop()

        loop = sim.every(10.0, tick)
        sim.run()
        assert ticks == [10.0]
        assert sim.now == 10.0

    @pytest.mark.parametrize("period", [0.0, -1.0, float("inf")])
    def test_rejects_a_period_not_finite_and_positive(self, period):
        with pytest.raises(ValueError):
            Simulator().every(period, lambda: None)


class TestComposites:
    def test_all_of_collects_values(self):
        sim = Simulator()

        def proc(sim):
            values = yield AllOf([sim.timeout(3.0, "a"), sim.timeout(1.0, "b")])
            return (sim.now, values)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == (3.0, ["a", "b"])

    def test_all_of_empty_fires_immediately(self):
        event = AllOf([])
        assert event.triggered and event.value == []

    def test_any_of_returns_first(self):
        sim = Simulator()

        def proc(sim):
            index, value = yield AnyOf([sim.timeout(9.0, "slow"), sim.timeout(2.0, "fast")])
            return (sim.now, index, value)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == (2.0, 1, "fast")

    def test_any_of_empty_raises(self):
        with pytest.raises(ValueError):
            AnyOf([])


class TestResource:
    def test_fifo_granting(self):
        sim = Simulator()
        res = sim.resource(capacity=1)
        log = []

        def worker(sim, name, hold):
            yield res.request()
            log.append((sim.now, name, "start"))
            yield sim.timeout(hold)
            res.release()
            log.append((sim.now, name, "end"))

        sim.process(worker(sim, "a", 5.0))
        sim.process(worker(sim, "b", 5.0))
        sim.run()
        assert log == [
            (0.0, "a", "start"),
            (5.0, "a", "end"),
            (5.0, "b", "start"),
            (10.0, "b", "end"),
        ]

    def test_capacity_allows_parallelism(self):
        sim = Simulator()
        res = sim.resource(capacity=2)
        starts = []

        def worker(sim):
            yield res.request()
            starts.append(sim.now)
            yield sim.timeout(10.0)
            res.release()

        for _ in range(3):
            sim.process(worker(sim))
        sim.run()
        assert starts == [0.0, 0.0, 10.0]

    def test_try_request_takes_only_a_free_slot(self):
        sim = Simulator()
        res = sim.resource(capacity=1)
        assert res.try_request() is True
        assert (res.in_use, res.queued) == (1, 0)
        # Full: nothing is taken and nothing queues.
        assert res.try_request() is False
        assert (res.in_use, res.queued) == (1, 0)
        grant = res.request()
        assert not grant.triggered and res.queued == 1
        # The release hands the slot to the queued request, so a free
        # slot never appears for try_request() to jump the waiter.
        res.release()
        assert res.try_request() is False
        sim.run()
        assert grant.triggered and res.in_use == 1

    def test_release_idle_raises(self):
        sim = Simulator()
        res = sim.resource(capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.resource(capacity=0)

    def test_queued_counter(self):
        sim = Simulator()
        res = sim.resource(capacity=1)
        res.request()
        res.request()
        assert res.in_use == 1
        assert res.queued == 1

    def test_cancel_removes_pending_waiter(self):
        sim = Simulator()
        res = sim.resource(capacity=1)
        res.request()
        pending = res.request()
        assert res.queued == 1
        assert res.cancel(pending) is True
        assert res.queued == 0
        # The abandoned waiter cannot absorb this release: the slot
        # frees up for the next request instead.
        res.release()
        assert res.in_use == 0
        grant = res.request()
        assert grant.triggered

    def test_cancel_after_grant_returns_false(self):
        sim = Simulator()
        res = sim.resource(capacity=1)
        grant = res.request()
        assert grant.triggered
        # Already holding a slot: the caller keeps ownership.
        assert res.cancel(grant) is False
        res.release()
        assert res.in_use == 0

    def test_cancel_mid_transfer_returns_false(self):
        """A release hands the slot over via the simulator queue; a
        cancel landing inside that window must report ownership so the
        caller releases the slot it was just given."""
        sim = Simulator()
        res = sim.resource(capacity=1)
        res.request()
        waiter = res.request()
        res.release()  # transfer scheduled, not yet delivered
        assert not waiter.triggered
        assert res.cancel(waiter) is False
        assert res.in_use == 1  # the transfer kept the slot occupied
        res.release()
        assert res.in_use == 0


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = sim.store()
        store.put("x")

        def getter(sim):
            item = yield store.get()
            return item

        p = sim.process(getter(sim))
        sim.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = sim.store()

        def getter(sim):
            item = yield store.get()
            return (sim.now, item)

        p = sim.process(getter(sim))
        sim.schedule(7.0, store.put, "late")
        sim.run()
        assert p.value == (7.0, "late")

    def test_fifo_order(self):
        sim = Simulator()
        store = sim.store()
        store.put(1)
        store.put(2)
        got = []

        def getter(sim):
            a = yield store.get()
            b = yield store.get()
            got.extend([a, b])

        sim.process(getter(sim))
        sim.run()
        assert got == [1, 2]

    def test_len(self):
        sim = Simulator()
        store = sim.store()
        store.put("a")
        assert len(store) == 1


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(sim, name, period):
                for _ in range(5):
                    yield sim.timeout(period)
                    trace.append((sim.now, name))

            sim.process(worker(sim, "x", 3.0))
            sim.process(worker(sim, "y", 3.0))
            sim.process(worker(sim, "z", 2.0))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()
