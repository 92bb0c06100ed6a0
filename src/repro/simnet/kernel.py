"""Discrete-event simulation kernel.

A from-scratch, dependency-free mini implementation of the process-based
discrete-event style popularized by ``simpy``.  The rest of the reproduction
(the simulated network, the native platform stacks and the uMiddle runtime)
is written as generator *processes* scheduled by a :class:`Kernel`.

Core concepts
-------------

``Kernel``
    Owns the simulated clock and the event queue.  ``kernel.run()`` executes
    events in timestamp order until the queue drains or a deadline passes.

``Event``
    A one-shot occurrence.  Processes wait on events by ``yield``-ing them;
    user code triggers them with :meth:`Event.succeed` or :meth:`Event.fail`.

``Timeout``
    An event that triggers automatically after a simulated delay.

``Process``
    Wraps a generator.  Each ``yield``ed event suspends the process until the
    event triggers; the event's value is sent back into the generator.  A
    process is itself an event that triggers when the generator finishes, so
    processes can wait on each other.

``AnyOf`` / ``AllOf``
    Composite events for disjunction/conjunction waits.

Determinism
-----------

Events scheduled for the same timestamp execute in FIFO order of scheduling
(a monotonically increasing sequence number breaks ties), so simulations are
fully deterministic -- a property the benchmark harness relies on.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "ProcessKilled",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Kernel",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Thrown into a process that was forcibly killed via :meth:`Process.kill`."""


_PENDING = "pending"
_TRIGGERED = "triggered"
_PROCESSED = "processed"


class Event:
    """A one-shot simulation event.

    An event starts *pending*; it becomes *triggered* exactly once, either
    successfully (carrying a value) or with a failure (carrying an
    exception).  Callbacks registered before the trigger run when the kernel
    processes the trigger; callbacks registered afterwards run immediately
    at the current simulated time.
    """

    __slots__ = ("_kernel", "_name", "callbacks", "_value", "_exception",
                 "_state", "defused", "__weakref__")

    PENDING = _PENDING
    TRIGGERED = _TRIGGERED
    PROCESSED = _PROCESSED

    def __init__(self, kernel: "Kernel", name: str = ""):
        self._kernel = kernel
        self._name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = _PENDING
        #: Set True by a waiter that consumed the failure, to suppress the
        #: "unhandled failure" error at kernel level.
        self.defused = False

    # -- inspection ---------------------------------------------------

    @property
    def name(self) -> str:
        """The caller's name, or a default derived only when read."""
        return self._name or self._default_name()

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    def _default_name(self) -> str:
        return self.__class__.__name__

    @property
    def kernel(self) -> "Kernel":
        return self._kernel

    @property
    def triggered(self) -> bool:
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"value of {self.name} is not yet available")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering ---------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self.name} has already been triggered")
        self._value = value
        self._state = _TRIGGERED
        self._kernel._enqueue_trigger(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self.name} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = _TRIGGERED
        self._kernel._enqueue_trigger(self)
        return self

    # -- callbacks ----------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback is scheduled to
        run immediately (at the current simulated time) rather than being
        silently dropped.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            # Already processed: deliver asynchronously but without delay so
            # ordering relative to other immediate events is preserved.
            self._kernel.call_soon(lambda: callback(self))

    def reset(self) -> "Event":
        """Recycle a fully processed event back to *pending*.

        Hot loops (per-peer senders, stream drain barriers) park on one
        event per wait; resetting lets a single-owner waiter reuse the
        same object instead of allocating a fresh event per cycle.  Only
        legal once the previous trigger has been processed -- a pending or
        triggered-but-unprocessed event still owes its waiters a wakeup.
        """
        if self._state != _PROCESSED:
            raise SimulationError(f"cannot reset {self.name!r}: not processed yet")
        self.callbacks = []
        self._value = None
        self._exception = None
        self.defused = False
        self._state = _PENDING
        return self

    def _process_trigger(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = _PROCESSED
        for callback in callbacks or ():
            callback(self)
        if self._exception is not None and not self.defused:
            raise self._exception

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.__class__.__name__} {self.name!r} state={self._state}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` seconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Hottest constructor in the simulator: fill the slots inline and
        # push the heap entry directly.
        self._kernel = kernel
        self._name = ""
        self.callbacks = []
        self._value = value
        self._exception = None
        self._state = _TRIGGERED
        self.defused = False
        self.delay = delay
        kernel._sequence += 1
        heappush(kernel._queue, (kernel._now + delay, kernel._sequence, self))

    def _default_name(self) -> str:
        return f"Timeout({self.delay})"


class _Callback(Event):
    """Internal event behind ``call_soon``/``call_later``: runs ``func()``
    first, then any callbacks added to the returned event."""

    __slots__ = ("_func",)

    def __init__(self, kernel: "Kernel", when: float, seq: int,
                 func: Callable[[], None]):
        Event.__init__(self, kernel)
        self._func = func
        self._state = _TRIGGERED
        heappush(kernel._queue, (when, seq, self))

    def _default_name(self) -> str:
        return f"Callback({getattr(self._func, '__qualname__', 'callback')})"

    def _process_trigger(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = _PROCESSED
        self._func()
        for callback in callbacks:
            callback(self)


class _Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ("_process",)

    def __init__(self, kernel: "Kernel", process: "Process"):
        Event.__init__(self, kernel)
        self._process = process
        self._state = _TRIGGERED
        self.callbacks.append(process._resume)
        kernel._enqueue_trigger(self)

    def _default_name(self) -> str:
        return f"Init({self._process.name})"


class _Throw(_Initialize):
    """Internal event that throws ``exc`` into a process."""

    __slots__ = ()

    def __init__(self, kernel: "Kernel", process: "Process", exc: BaseException):
        super().__init__(kernel, process)
        self._exception = exc
        self.defused = True

    def _default_name(self) -> str:
        return f"Throw({self._process.name})"


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is an :class:`Event` that triggers when the generator
    returns (successfully, with the return value) or raises (as a failure).
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, kernel: "Kernel", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError("Process requires a generator")
        super().__init__(kernel, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        _Initialize(kernel, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        self._throw_in(Interrupt(cause))

    def kill(self, reason: str = "killed") -> None:
        """Forcibly terminate the process with :class:`ProcessKilled`.

        Unlike :meth:`interrupt` the resulting failure is pre-defused, so an
        unhandled kill does not abort the whole simulation.
        """
        self._throw_in(ProcessKilled(reason), defuse=True)

    def _throw_in(self, exc: BaseException, defuse: bool = False) -> None:
        if self.triggered:
            raise SimulationError(f"{self.name} has already terminated")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself this way")
        # Detach from whatever event the process is currently waiting on.
        waited = self._waiting_on
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        if defuse:
            self.defused = True
        _Throw(self._kernel, self, exc)

    # -- generator driving --------------------------------------------

    def _resume(self, event: Event) -> None:
        kernel = self._kernel
        kernel._active_process = self
        generator = self._generator
        try:
            while True:
                try:
                    if event._exception is None:
                        target = generator.send(event._value)
                    else:
                        event.defused = True
                        target = generator.throw(event._exception)
                except StopIteration as stop:
                    self._waiting_on = None
                    self._value = stop.value
                    self._state = _TRIGGERED
                    kernel._enqueue_trigger(self)
                    return
                except BaseException as exc:
                    self._waiting_on = None
                    self._exception = exc
                    self._state = _TRIGGERED
                    kernel._enqueue_trigger(self)
                    return

                if not isinstance(target, Event):
                    event = Event(kernel)
                    event._exception = SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}"
                    )
                    event._state = _TRIGGERED
                    continue
                if target._kernel is not kernel:
                    event = Event(kernel)
                    event._exception = SimulationError(
                        "cannot wait on an event from another kernel"
                    )
                    event._state = _TRIGGERED
                    continue

                callbacks = target.callbacks
                if callbacks is not None:
                    # Pending or triggered-but-unprocessed: park the process.
                    self._waiting_on = target
                    callbacks.append(self._resume)
                    return
                # Already processed: loop and feed its outcome immediately.
                event = target
        finally:
            kernel._active_process = None


class _Condition(Event):
    """Base class for :class:`AnyOf` / :class:`AllOf` composite waits."""

    __slots__ = ("_events",)

    def __init__(self, kernel: "Kernel", events: Iterable[Event], name: str):
        super().__init__(kernel, name=name)
        self._events = list(events)
        for event in self._events:
            if event._kernel is not self._kernel:
                raise SimulationError("all events must belong to the same kernel")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict:
        # ``processed`` (not ``triggered``): a Timeout is born triggered but
        # has not *happened* until the kernel processes it.
        return {
            event: event._value
            for event in self._events
            if event.processed and event._exception is None
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when the first of ``events`` triggers.

    Succeeds with a dict of the already-triggered events and their values;
    fails if the first event to trigger failed.
    """

    __slots__ = ()

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel, events, name="AnyOf")

    def _check(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defused = True
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when every one of ``events`` has triggered.

    Succeeds with a dict of all events and their values; fails fast on the
    first failing constituent.
    """

    __slots__ = ()

    def __init__(self, kernel: "Kernel", events: Iterable[Event]):
        super().__init__(kernel, events, name="AllOf")

    def _check(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defused = True
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
            return
        done = sum(1 for e in self._events if e.processed)
        if done == len(self._events):
            self.succeed(self._collect())


class Kernel:
    """The simulation kernel: clock plus event queue.

    Typical use::

        kernel = Kernel()

        def worker(kernel):
            yield kernel.timeout(1.0)
            return "done"

        proc = kernel.process(worker(kernel))
        kernel.run()
        assert proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._queue: List = []
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self._processed_events = 0

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """The current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for tests/metrics)."""
        return self._processed_events

    # -- event factories ------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_soon(self, func: Callable[[], None]) -> Event:
        """Schedule ``func`` to run at the current simulated time.

        Returns the processed-when-run event; callbacks added to it run
        after ``func``.
        """
        self._sequence += 1
        return _Callback(self, self._now, self._sequence, func)

    def call_later(self, delay: float, func: Callable[[], None]) -> Event:
        """Schedule ``func`` to run ``delay`` seconds in the future."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self._sequence += 1
        return _Callback(self, self._now + delay, self._sequence, func)

    # -- scheduling ------------------------------------------------------

    def _enqueue_trigger(self, event: Event) -> None:
        """Schedule a triggered event for processing at the current time."""
        self._sequence += 1
        heappush(self._queue, (self._now, self._sequence, event))

    def _take_slot(self, delay: float) -> tuple:
        """Kernel-internal: the ``(time, seq)`` heap slot an event scheduled
        ``delay`` seconds from now would take, reserved without scheduling
        anything.  Pass it to :meth:`_call_at` later (see the stream
        retransmit timer) to run at exactly that time and FIFO position."""
        self._sequence += 1
        return (self._now + delay, self._sequence)

    def _call_at(self, slot: tuple, func: Callable[[], None]) -> Event:
        """Kernel-internal: schedule ``func()`` in a slot from :meth:`_take_slot`."""
        when, seq = slot
        if when < self._now:
            raise SimulationError(f"slot {when} is in the past (now={self._now})")
        return _Callback(self, when, seq, func)

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its time."""
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = heappop(queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past (kernel bug)")
        self._now = when
        self._processed_events += 1
        event._process_trigger()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or the clock would pass ``until``.

        When a deadline is given the clock is advanced exactly to it even if
        no event falls on the deadline, matching ``simpy`` semantics.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"deadline {until} is in the past (now={self._now})")
        while self._queue:
            if until is not None and self.peek() > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn ``generator`` and run until it completes.

        Returns the process return value; re-raises its failure.  Other
        queued events continue to be processed while waiting.
        """
        process = self.process(generator, name=name)
        while not process.triggered:
            if not self._queue:
                raise SimulationError(
                    f"deadlock: process {process.name!r} cannot make progress"
                )
            self.step()
        process.defused = True
        return process.value
