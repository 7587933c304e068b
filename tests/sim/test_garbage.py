"""The kernel leaves no cyclic garbage: refcounting frees every finished
process and every fired composite event.

Each scenario runs with the cyclic collector off after a full
collection; the collection that follows must find nothing unreachable.
A process that finished would otherwise keep itself alive through its
cached wake callbacks, its generator and the kernel frame in its
failure's traceback; a failure a waiter handled, through the waiter's
frame added to that traceback; and a composite through the callbacks
its unfired children still hold.
"""

import gc
import traceback

import pytest

from repro.sim.engine import AllOf, AnyOf, Interrupt, Simulator


def unreachable_after(scenario) -> int:
    """Run ``scenario`` with the collector off; count what it left to it."""
    gc.collect()
    gc.disable()
    try:
        scenario()
        return gc.collect()
    finally:
        gc.enable()


def wait(sim, kind):
    """Process body fragment: one wait of the given kind."""
    if kind == "sleep":
        yield 1.0
    elif kind == "timeout":
        yield sim.timeout(1.0)
    else:
        event = sim.event()
        sim.schedule(1.0, event.succeed)
        yield event


WAITS = ("sleep", "timeout", "event")


class TestProcessFinishes:
    @pytest.mark.parametrize("kind", WAITS)
    def test_return(self, kind):
        def scenario():
            sim = Simulator()

            def worker():
                yield from wait(sim, kind)
                return "done"

            def waiter(proc):
                value = yield proc
                return value

            proc = sim.process(worker())
            watcher = sim.process(waiter(proc))
            sim.run()
            assert watcher.value == "done"

        assert unreachable_after(scenario) == 0

    @pytest.mark.parametrize("kind", WAITS)
    def test_raise(self, kind):
        def scenario():
            sim = Simulator()

            def worker():
                yield from wait(sim, kind)
                raise ValueError("boom")

            def waiter(proc):
                try:
                    yield proc
                except ValueError:
                    return "caught"

            proc = sim.process(worker())
            watcher = sim.process(waiter(proc))
            unwatched = sim.process(worker())
            sim.run()
            assert watcher.value == "caught"
            assert isinstance(unwatched.value, ValueError)

        assert unreachable_after(scenario) == 0

    @pytest.mark.parametrize("kind", WAITS)
    def test_interrupt(self, kind):
        def scenario():
            sim = Simulator()

            def worker():
                yield from wait(sim, kind)
                yield from wait(sim, kind)

            def catcher():
                try:
                    yield from wait(sim, kind)
                except Interrupt as interrupt:
                    return interrupt.cause

            uncaught = sim.process(worker())
            caught = sim.process(catcher())
            sim.schedule(0.5, uncaught.interrupt, "stop")
            sim.schedule(0.5, caught.interrupt, "stop")
            sim.run()
            assert isinstance(uncaught.value, Interrupt)
            assert caught.value == "stop"

        assert unreachable_after(scenario) == 0

    @pytest.mark.parametrize("kind", WAITS)
    def test_bad_yield(self, kind):
        def scenario():
            sim = Simulator()

            def worker():
                yield from wait(sim, kind)
                yield "not an event"

            proc = sim.process(worker())
            sim.run()
            assert isinstance(proc.value, TypeError)

        assert unreachable_after(scenario) == 0

    def test_failure_keeps_the_frames_it_was_raised_in(self):
        sim = Simulator()

        def raiser():
            yield 1.0
            raise ValueError("boom")

        def worker():
            yield from raiser()

        def catcher(proc):
            try:
                yield proc
            except ValueError:
                return "caught"

        def passer(proc):
            yield proc

        proc = sim.process(worker())
        sim.process(catcher(proc))
        passed = sim.process(worker())
        sim.process(passer(passed))
        sim.run()

        def names(error):
            return [frame.name for frame in traceback.extract_tb(error.__traceback__)]

        # The kernel's own frame is gone; a waiter that handled the
        # failure left it as it was, and one that let it through is in it.
        assert names(proc.value) == ["worker", "raiser"]
        assert names(passed.value) == ["passer", "worker", "raiser"]


class TestCompositeWaits:
    def test_any_of_deadline_wait(self):
        # The admission queue's wait: a grant event raced against a
        # deadline timeout that is cancelled once the grant wins.
        def scenario():
            sim = Simulator()

            def waiter(grant):
                deadline = sim.timeout(100.0)
                index, value = yield AnyOf([grant, deadline])
                if index == 0:
                    deadline.cancel()
                return value

            grant = sim.event()
            proc = sim.process(waiter(grant))
            sim.schedule(1.0, grant.succeed, "granted")
            sim.run(until=50.0)
            assert proc.value == "granted"

        assert unreachable_after(scenario) == 0

    def test_all_of_fails_fast(self):
        # The second child never fires, so its callback keeps pointing
        # at the composite after the failure fired it.
        def scenario():
            sim = Simulator()

            def failing():
                yield 1.0
                raise ValueError("boom")

            def waiter():
                try:
                    yield AllOf([sim.process(failing()), sim.event()])
                except ValueError:
                    return "failed fast"

            proc = sim.process(waiter())
            sim.run()
            assert proc.value == "failed fast"

        assert unreachable_after(scenario) == 0
