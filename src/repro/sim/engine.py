"""Generator-based process engine on top of the event queue.

The engine is a deliberately small subset of the SimPy model: processes
are Python generators that ``yield`` waitable :class:`~repro.sim.events.Event`
objects (timeouts, other processes, composite events, resource requests)
or a plain delay in milliseconds, which sleeps the process without
building any event.  A process is itself an event that fires when its
generator returns, so processes compose.

The hot loop (``Simulator.run``) is written for throughput: it binds the
heap and ``heappop`` to locals, skips the per-step method-call overhead
of ``step()``, recycles executed entries through the queue's free list,
and never formats an event name (see :mod:`repro.sim.events` and
DESIGN.md §9).  The seed implementation is preserved verbatim in
:mod:`repro.sim.naive` as an executable baseline; golden traces under
``tests/sim/`` pin that both engines fire events in bit-identical order.

Example
-------
>>> sim = Simulator()
>>> def worker(sim):
...     yield 5.0
...     return "done"
>>> proc = sim.process(worker(sim))
>>> sim.run()
5.0
>>> proc.value
'done'
>>> sim.now
5.0
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from numbers import Real
from typing import Any, Callable, Deque, Generator, Iterable, Optional

from repro.sim.events import _FREE_MAX, Event, EventQueue, PENDING, ScheduledEvent

__all__ = [
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Periodic",
    "Process",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
]

ProcessGenerator = Generator[Event, Any, Any]

_INF = math.inf


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Timeout(Event):
    """An event that fires ``delay`` milliseconds after creation.

    The constructor is the hottest allocation site in the repo, so it
    writes the :class:`Event` slots directly (no ``super().__init__``),
    formats its name from ``delay`` only when read, and schedules a
    recyclable queue entry — with no args tuple at all when ``value`` is
    ``None``, the overwhelmingly common case.
    """

    __slots__ = ("delay", "_entry")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # One chained compare rejects negatives, inf, and NaN (every
        # comparison against NaN is False), so non-finite delays can
        # never corrupt the heap ordering.
        if not (0.0 <= delay < _INF):
            raise ValueError(
                f"timeout delay must be finite and >= 0, got {delay}"
            )
        # Pristine timeouts carry no watcher list; Event.add_callback
        # promotes () to a real list on first registration.
        self.callbacks = ()
        self._value = PENDING
        self._ok = True
        self._fired = False
        self._name = "timeout"
        self.delay = delay
        # Inlined EventQueue.push (the single hottest call site in the
        # repo): ``time`` is finite by construction, so the NaN guard is
        # unnecessary, and the entry is recyclable by definition.
        queue = sim._queue
        time = sim._now + delay
        seq = queue._seq
        queue._seq = seq + 1
        free = queue._free
        if free:
            entry = free.pop()
            entry.time = time
            entry.priority = 0
            entry.seq = seq
            entry.callback = self
            entry.args = (value,) if value is not None else ()
            entry.cancelled = False
            entry.queue = queue
        else:
            entry = ScheduledEvent(
                time, 0, seq, self,
                (value,) if value is not None else (), queue, False,
            )
        heappush(queue._heap, (time, 0, seq, entry))
        self._entry: Optional[ScheduledEvent] = entry

    #: Firing the entry calls the timeout itself — no per-timeout bound
    #: method allocation for the overwhelmingly common case.
    __call__ = Event.succeed

    @property
    def name(self) -> str:
        """``timeout(<delay>)``, formatted on read."""
        return f"timeout({self.delay})"

    def cancel(self) -> None:
        """Cancel the pending timeout (no-op once fired or cancelled)."""
        entry = self._entry
        if entry is not None and not self.triggered:
            # Drop our handle first: the cancelled entry may be recycled
            # by the queue, and a second cancel() must not touch it.
            self._entry = None
            entry.cancel()


class Process(Event):
    """A running generator; fires with the generator's return value.

    Yield semantics inside the generator:

    * ``yield event`` — suspend until ``event`` fires; the ``yield``
      expression evaluates to the event's value.  If the event failed,
      the exception is re-raised inside the generator.
    * ``yield delay`` — sleep ``delay`` ms (a ``float``, ``int`` or other
      real number, but not a ``bool``); the ``yield`` evaluates to
      ``None``.  It wakes at the instant, and in the order, that a
      yielded ``sim.timeout(delay)`` would, but builds no event.  A
      negative or non-finite delay raises :class:`ValueError` at the
      ``yield`` and schedules nothing.  A sleep that ends strictly before
      every queued entry (and within the current :meth:`Simulator.run`)
      runs ahead: when the process was woken straight from the drain
      loop, the kernel advances the clock and resumes it in place, with
      no queue entry, in exactly the order the entry would have fired.
    * ``return value`` — finishes the process; waiters receive ``value``.
    """

    __slots__ = ("_sim", "_generator", "_waiting_on", "_on_event_cb", "_wake_cb",
                 "_sleep_cb")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                "process() expects a generator; did you forget to call "
                "the generator function?"
            )
        # The Event slots are written directly, as Timeout does: no
        # watcher list until someone waits on the process.
        self.callbacks = ()
        self._value = PENDING
        self._ok = True
        self._fired = False
        self._name = name or getattr(generator, "__name__", "process")
        self._sim = sim
        self._generator = generator
        #: The awaited event, or the queue entry of a pending sleep.
        self._waiting_on: Any = None
        # One bound method per wake kind for the process's whole life
        # instead of a fresh allocation per wait.
        self._on_event_cb = self._on_event
        self._wake_cb = self._wake
        self._sleep_cb = self._sleep_wake
        # Start the process at the current simulation instant: the
        # inlined EventQueue.push of a recyclable entry.
        queue = sim._queue
        time = sim._now
        seq = queue._seq
        queue._seq = seq + 1
        free = queue._free
        if free:
            entry = free.pop()
            entry.time = time
            entry.priority = 0
            entry.seq = seq
            entry.callback = self._start
            entry.args = ()
            entry.cancelled = False
            entry.queue = queue
        else:
            entry = ScheduledEvent(time, 0, seq, self._start, (), queue, False)
        heappush(queue._heap, (time, 0, seq, entry))

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process that is waiting detaches it from the awaited event.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self!r}")
        self._sim._queue.push(
            self._sim._now, self._resume, (None, Interrupt(cause)), -1, False
        )

    # -- engine internals ------------------------------------------------
    def _wait_for(self, event: Event) -> None:
        self._waiting_on = event
        event.add_callback(self._on_event_cb)

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            # Stale callback after an interrupt re-armed the process.
            return
        self._waiting_on = None
        if event._ok:
            self._resume(event._value, None)
        else:
            self._resume(None, event._value)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._fired:
            return
        abandoned = self._waiting_on
        if abandoned is not None:
            # An interrupt is pre-empting a pending sleep (an entry) or
            # timeout: drop the orphan timer so it cannot keep the
            # simulation alive artificially.
            if type(abandoned) is ScheduledEvent or (
                type(abandoned) is Timeout and not abandoned._fired
            ):
                abandoned.cancel()
            self._waiting_on = None
        if exc is not None:
            self._throw(exc)
            return
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self._done(stop.value, None)
            return
        except BaseException as error:  # noqa: BLE001 - propagate to waiters
            self._done(None, error)
            return
        self._wait_on_target(target)

    def _throw(self, exc: BaseException) -> None:
        # Raise ``exc`` at the yield.  On its way up it collects the
        # frames it passes, but the event that failed with it may hold it
        # too: when the generator handles it, its traceback is put back
        # as it came, so that failure does not point at this process's
        # frame.  When it propagates, the process fails with it and its
        # frames stay in the traceback.
        traceback = exc.__traceback__
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            exc.__traceback__ = traceback
            self._done(stop.value, None)
            return
        except BaseException as error:  # noqa: BLE001 - propagate to waiters
            if error is not exc:
                exc.__traceback__ = traceback
            self._done(None, error)
            return
        exc.__traceback__ = traceback
        self._wait_on_target(target)

    def _done(self, value: Any, error: Optional[BaseException]) -> None:
        # Every finish comes here.  The cached bound methods and the
        # generator (whose frame may hold the process) point back at the
        # process, and so does the kernel frame that caught ``error``, at
        # the head of its traceback.  Dropping them first leaves a
        # finished process in no reference cycle, so refcounting frees
        # it.  Nothing reads them once ``_fired`` is set.
        self._generator = self._on_event_cb = self._wake_cb = self._sleep_cb = None
        if error is None:
            self.succeed(value)
            return
        traceback = error.__traceback__
        if traceback is not None:
            error.__traceback__ = traceback.tb_next
        self.fail(error)

    def _wait_on_target(self, target: Any) -> None:
        """Suspend on whatever the generator just yielded.

        The ``type(target) is Timeout`` arm is the direct-wake fast path:
        a pristine timeout nobody else is watching rewires its queue
        entry to resume this process straight from the drain loop,
        skipping the generic succeed -> callback-dispatch -> _on_event
        chain.  Only the callback changes: :meth:`_wake` finds the
        timeout in ``_waiting_on`` and its value in the entry's args.
        The ``(time, priority, seq)`` key is untouched, so firing order
        is bit-identical; late ``add_callback()`` registrations are
        replayed by :meth:`_wake` after the resume, preserving
        registration order.

        A yielded number is a sleep: the entry ``Timeout.__init__`` would
        have pushed is pushed here instead, straight at
        :meth:`_sleep_wake`.  A process that yields ``sim.timeout(d)``
        pushes nothing between building the timeout and yielding it, so
        ``yield d`` takes the same ``seq`` and fires in the same order.
        The entry stays in ``_waiting_on`` so an interrupt can cancel it.
        """
        if type(target) is Timeout:
            if not target._fired and not target.callbacks:
                entry = target._entry
                if entry is not None and entry.callback is target and not entry.cancelled:
                    self._waiting_on = target
                    entry.callback = self._wake_cb
                    return
        elif type(target) is float:
            if not (0.0 <= target < _INF):
                # What Timeout raises for this delay, thrown in at the
                # yield so the generator's try/finally sees it there.
                self._resume(
                    None,
                    ValueError(f"sleep delay must be finite and >= 0, got {target}"),
                )
                return
            sim = self._sim
            queue = sim._queue
            time = sim._now + target
            seq = queue._seq
            queue._seq = seq + 1
            free = queue._free
            if free:
                entry = free.pop()
                entry.time = time
                entry.priority = 0
                entry.seq = seq
                entry.callback = self._sleep_cb
                entry.args = ()
                entry.cancelled = False
                entry.queue = queue
            else:
                entry = ScheduledEvent(time, 0, seq, self._sleep_cb, (), queue, False)
            heappush(queue._heap, (time, 0, seq, entry))
            self._waiting_on = entry
            return
        elif not isinstance(target, Event):
            if type(target) is bool or not isinstance(target, Real):
                self._generator.close()
                self._done(
                    None,
                    TypeError(
                        f"process {self.name!r} yielded {target!r}; processes "
                        "must yield Event instances or a delay in ms"
                    ),
                )
                return
            # An int or numpy scalar sleeps as its float; an int past the
            # float range raises at the yield, as building a Timeout did.
            try:
                delay = float(target)
            except OverflowError as error:
                # Thrown in without this frame, whose ``self`` is the
                # process: the error is raised at the yield.
                self._resume(None, error.with_traceback(None))
                return
            self._wait_on_target(delay)
            return
        self._waiting_on = target
        if target._fired:
            self._on_event(target)
        else:
            callbacks = target.callbacks
            if type(callbacks) is list:
                callbacks.append(self._on_event_cb)
            else:
                target.callbacks = [self._on_event_cb]

    def _start(self) -> None:
        # The start entry.  An interrupt at the spawn instant (priority
        # -1) fires first and fails the process before its body runs.
        if self._fired:
            return
        self._sleep_wake()

    def _sleep_wake(self) -> None:
        # Fired straight from the drain loop when a sleep's entry comes
        # due (or the process starts).  The entry is forgotten before the
        # generator runs: once executed it may be recycled, and a later
        # interrupt must not cancel whatever reuses it.
        #
        # Run-ahead: nothing else is on the stack, so a sleep that ends
        # strictly before every queued entry, and no later than the
        # current run()'s ``until``, is the entry the drain loop would pop
        # next.  It is taken here instead of pushed: the clock, the step
        # count and ``seq`` move as that push and pop would move them, and
        # the generator resumes again in this loop.
        self._waiting_on = None
        sim = self._sim
        queue = sim._queue
        heap = queue._heap
        generator = self._generator
        while True:
            try:
                target = generator.send(None)
            except StopIteration as stop:
                self._done(stop.value, None)
                return
            except BaseException as error:  # noqa: BLE001 - propagate to waiters
                self._done(None, error)
                return
            if type(target) is not float or not (0.0 <= target < _INF):
                self._wait_on_target(target)
                return
            time = sim._now + target
            if time > sim._until or (heap and heap[0][0] <= time):
                break
            sim._now = time
            sim._step_count += 1
            queue._seq += 1
        # The float arm of _wait_on_target, inlined.
        seq = queue._seq
        queue._seq = seq + 1
        free = queue._free
        if free:
            entry = free.pop()
            entry.time = time
            entry.priority = 0
            entry.seq = seq
            entry.callback = self._sleep_cb
            entry.args = ()
            entry.cancelled = False
            entry.queue = queue
        else:
            entry = ScheduledEvent(time, 0, seq, self._sleep_cb, (), queue, False)
        heappush(heap, (time, 0, seq, entry))
        self._waiting_on = entry

    def _wake(self, value: Any = None) -> None:
        # Partner of the direct-wake fast path in _wait_on_target: fired
        # straight from the drain loop in place of Timeout.succeed().
        # The resume guards are skipped deliberately — a rewired entry
        # can only fire while this (unfinished) process is waiting on
        # exactly this timeout (an interrupt cancels the entry first).
        # The stale ``_entry`` is left as Timeout.succeed() leaves it: a
        # fired timeout's cancel() never reads it.
        timeout = self._waiting_on
        timeout._fired = True
        timeout._value = value
        self._waiting_on = None
        callbacks = timeout.callbacks
        if callbacks:
            # Rare: someone add_callback()ed the timeout after the
            # rewire; take the generic resume and replay the watchers in
            # registration order.
            timeout.callbacks = ()
            self._resume(value, None)
            for callback in callbacks:
                callback(timeout)
            return
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self._done(stop.value, None)
            return
        except BaseException as error:  # noqa: BLE001 - propagate to waiters
            self._done(None, error)
            return
        # The Timeout arm of _wait_on_target, inlined: a process that
        # sleeps on timeouts in a loop (the sim gate's microbench) comes
        # back here on every event, and the call is ~3% of its cost.
        if type(target) is Timeout and not target._fired and not target.callbacks:
            entry = target._entry
            if entry is not None and entry.callback is target and not entry.cancelled:
                self._waiting_on = target
                entry.callback = self._wake_cb
                return
        self._wait_on_target(target)


class AllOf(Event):
    """Fires when all child events have fired; value is the list of values.

    Fails fast with the first child failure.  Once fired it drops its
    children: an unfired child's callback still points back at it, and
    the pair would otherwise form a reference cycle.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, events: Iterable[Event]) -> None:
        super().__init__(name="all_of")
        children = self._children = list(events)
        self._remaining = len(children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self._children = None
            self.fail(child.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            values = [c.value for c in self._children]
            self._children = None
            self.succeed(values)


class AnyOf(Event):
    """Fires as soon as any child fires; value is ``(index, value)``.

    It keeps no link to its children, so the callbacks that unfired
    children hold on it form no reference cycle.
    """

    __slots__ = ()

    def __init__(self, events: Iterable[Event]) -> None:
        super().__init__(name="any_of")
        children = list(events)
        if not children:
            raise ValueError("AnyOf requires at least one event")
        for index, child in enumerate(children):
            child.add_callback(lambda c, i=index: self._on_child(i, c))

    def _on_child(self, index: int, child: Event) -> None:
        if self.triggered:
            return
        if child.ok:
            self.succeed((index, child.value))
        else:
            self.fail(child.value)


class Resource:
    """A counting semaphore with a FIFO wait queue.

    ``request()`` returns an event that fires when a slot is granted; the
    holder must call ``release()`` exactly once per granted request.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters", "name")

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def try_request(self) -> bool:
        """Take a free slot at once, without building an event.

        Returns ``False``, taking nothing, when every slot is held; the
        caller then queues with :meth:`request`.  A free slot means the
        wait queue is empty, so this never jumps a waiter.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def request(self) -> Event:
        """Ask for a slot; the returned event fires on grant."""
        event = Event(name=("request", self.name))
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a slot; wakes the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            # Slot transfers directly to the waiter: _in_use stays put but
            # the grant must happen at the current instant via the queue so
            # the releasing process finishes its step first.
            self.sim._queue.push(self.sim._now, waiter.succeed, (self,), 0, False)
        else:
            self._in_use -= 1

    def cancel(self, request: Event) -> bool:
        """Withdraw a pending :meth:`request` that was never granted.

        Returns ``True`` when the waiter was still queued (it is removed
        and will never receive a slot).  Returns ``False`` when the
        request already holds — or is in the middle of being handed — a
        slot; the caller then owns that slot and must :meth:`release` it.
        A process abandoning a wait (interrupt, deadline) must call this
        so its queue position cannot absorb a future release forever.
        """
        try:
            self._waiters.remove(request)
        except ValueError:
            return False
        return True


class Store:
    """An unbounded FIFO item store with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item once one is available.
    """

    __slots__ = ("sim", "_items", "_getters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; hands it straight to the oldest waiter."""
        if self._getters:
            getter = self._getters.popleft()
            self.sim._queue.push(self.sim._now, getter.succeed, (item,), 0, False)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (immediately if present)."""
        event = Event(name=("get", self.name))
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class Periodic:
    """Handle of a :meth:`Simulator.every` loop."""

    __slots__ = ("stopped",)

    def __init__(self) -> None:
        self.stopped = False

    def stop(self) -> None:
        """End the loop: its pending wake exits without ticking."""
        self.stopped = True


class Simulator:
    """The simulation kernel: clock + event queue + process spawner.

    It also carries the run-wide service slots ``obs``, ``admission``,
    ``recovery`` and ``health`` (DESIGN.md §7): a service is attached
    once, by setting its slot, and never copied onto the components that
    use it.
    """

    __slots__ = ("_queue", "_now", "_step_count", "_until", "obs", "admission",
                 "recovery", "health")

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._step_count = 0
        #: The active run()'s ``until`` (``inf`` when unbounded), and -1.0
        #: outside run(), where no sleep may run ahead.
        self._until = -1.0
        # ``None`` keeps every hook of a service inert.
        #: The run's :class:`~repro.obs.Observatory`.
        self.obs = None
        #: The run's :class:`~repro.admission.AdmissionController`.
        self.admission = None
        #: The run's :class:`~repro.recovery.RecoveryManager`.
        self.recovery = None
        #: The run's host :class:`~repro.health.HealthMonitor`.
        self.health = None

    # -- time -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def steps(self) -> int:
        """Number of queue entries executed so far (diagnostics)."""
        return self._step_count

    # -- primitives ---------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Event firing ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def event(self, name: str = "") -> Event:
        """A bare event for manual triggering."""
        return Event(name=name)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Spawn a process from ``generator`` starting at the current time."""
        return Process(self, generator, name=name)

    def every(
        self, period_ms: float, tick: Callable[[], None], name: str = ""
    ) -> Periodic:
        """Call ``tick()`` every ``period_ms`` ms, first one period from now.

        The loop is a process named ``name``.  Each call starts a loop of
        its own with its own handle, so a stopped loop still waiting on
        its wake exits without ticking, even beside a restarted one.
        """
        if not 0.0 < period_ms < _INF:
            raise ValueError(f"period_ms must be finite and > 0, got {period_ms}")
        handle = Periodic()

        def loop() -> Generator:
            while not handle.stopped:
                yield period_ms
                if handle.stopped:
                    break
                tick()

        self.process(loop(), name=name)
        return handle

    def resource(self, capacity: int, name: str = "") -> Resource:
        """Create a counting-semaphore resource."""
        return Resource(self, capacity, name=name)

    def store(self, name: str = "") -> Store:
        """Create a FIFO store."""
        return Store(self, name=name)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` after ``delay`` ms (plain callback API).

        The returned entry is pinned (never recycled), so holding it and
        cancelling it later — even long after it fired — is always safe.
        """
        if not (0.0 <= delay < _INF):
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        return self._queue.push(self._now + delay, callback, args, priority)

    # -- main loop --------------------------------------------------------
    def step(self) -> None:
        """Execute the next queue entry, advancing the clock.

        Exactly one entry runs: a sleep the resumed process yields is
        queued, never run ahead (that happens only inside :meth:`run`).
        """
        entry = self._queue.pop()
        if entry.time < self._now:
            raise RuntimeError(
                f"event queue went backwards: {entry.time} < {self._now}"
            )
        self._now = entry.time
        self._step_count += 1
        callback, args = entry.callback, entry.args
        self._queue.recycle(entry)
        callback(*args)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final simulated time.  With ``until`` set, the clock
        is advanced to exactly ``until`` even if the last event fired
        earlier, mirroring SimPy semantics.

        This is the batched drain loop: heap access, ``heappop``, and the
        free list are bound to locals, and each live entry is executed
        inline instead of going through :meth:`step`'s pop/peek pair.
        A process woken by this loop may also run its sleeps ahead (see
        :class:`Process`) up to and including ``until``; each such wake
        counts in :attr:`steps` as the entry it replaces would have.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        queue = self._queue
        heap = queue._heap
        free = queue._free
        pop = heappop
        steps = 0
        self._until = _INF if until is None else until
        try:
            if until is None:
                # Unbounded drain (the common case for full-figure runs):
                # pop immediately — no peek, no per-event ``until`` test.
                while heap:
                    time, _, _, entry = pop(heap)
                    if entry.cancelled:
                        queue._ncancelled -= 1
                        entry.queue = None
                        if not entry.pinned and len(free) < _FREE_MAX:
                            entry.callback = entry.args = None
                            free.append(entry)
                        continue
                    if time < self._now:
                        raise RuntimeError(
                            f"event queue went backwards: {time} < {self._now}"
                        )
                    self._now = time
                    steps += 1
                    callback = entry.callback
                    args = entry.args
                    entry.queue = None
                    if not entry.pinned and len(free) < _FREE_MAX:
                        entry.callback = entry.args = None
                        free.append(entry)
                    callback(*args)
            else:
                # Bounded drain: peek before popping so entries past
                # ``until`` stay queued for a later run() call.
                while heap:
                    item = heap[0]
                    entry = item[3]
                    if entry.cancelled:
                        pop(heap)
                        queue._ncancelled -= 1
                        entry.queue = None
                        if not entry.pinned and len(free) < _FREE_MAX:
                            entry.callback = entry.args = None
                            free.append(entry)
                        continue
                    time = item[0]
                    if time > until:
                        break
                    if time < self._now:
                        raise RuntimeError(
                            f"event queue went backwards: {time} < {self._now}"
                        )
                    pop(heap)
                    self._now = time
                    steps += 1
                    callback = entry.callback
                    args = entry.args
                    entry.queue = None
                    if not entry.pinned and len(free) < _FREE_MAX:
                        entry.callback = entry.args = None
                        free.append(entry)
                    callback(*args)
        finally:
            self._step_count += steps
            self._until = -1.0
        if until is not None and until > self._now:
            self._now = until
        return self._now
