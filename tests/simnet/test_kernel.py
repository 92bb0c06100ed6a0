"""Unit tests for the discrete-event kernel."""

import weakref

import pytest

from repro.simnet.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Kernel,
    Process,
    ProcessKilled,
    SimulationError,
    Timeout,
    _Initialize,
    _Throw,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Kernel().now == 0.0

    def test_custom_start_time(self):
        assert Kernel(start_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, kernel):
        kernel.timeout(2.5)
        kernel.run()
        assert kernel.now == 2.5

    def test_run_until_deadline_advances_exactly_to_deadline(self, kernel):
        kernel.timeout(10.0)
        kernel.run(until=4.0)
        assert kernel.now == 4.0

    def test_run_until_past_deadline_rejected(self, kernel):
        kernel.timeout(1.0)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.run(until=0.5)

    def test_negative_timeout_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.timeout(-1.0)

    def test_step_on_empty_queue_raises(self, kernel):
        with pytest.raises(SimulationError):
            kernel.step()


class TestEvent:
    def test_succeed_carries_value(self, kernel):
        event = kernel.event()
        event.succeed(42)
        kernel.run()
        assert event.ok and event.value == 42

    def test_double_succeed_rejected(self, kernel):
        event = kernel.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_then_succeed_rejected(self, kernel):
        event = kernel.event()
        event.fail(ValueError("boom"))
        event.defused = True
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception_instance(self, kernel):
        with pytest.raises(TypeError):
            kernel.event().fail("not an exception")

    def test_value_before_trigger_raises(self, kernel):
        with pytest.raises(SimulationError):
            kernel.event().value

    def test_unhandled_failure_propagates_out_of_run(self, kernel):
        event = kernel.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            kernel.run()

    def test_defused_failure_does_not_propagate(self, kernel):
        event = kernel.event()
        event.fail(RuntimeError("handled"))
        event.defused = True
        kernel.run()
        assert event.exception is not None

    def test_callback_after_processed_still_fires(self, kernel):
        event = kernel.event()
        event.succeed("late")
        kernel.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        kernel.run()
        assert seen == ["late"]

    def test_callbacks_fire_in_registration_order(self, kernel):
        event = kernel.event()
        order = []
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event.succeed()
        kernel.run()
        assert order == [1, 2]


class TestProcess:
    def test_return_value_becomes_event_value(self, kernel):
        def proc(k):
            yield k.timeout(1.0)
            return "done"

        result = kernel.run_process(proc(kernel))
        assert result == "done"
        assert kernel.now == 1.0

    def test_timeout_value_is_sent_back_in(self, kernel):
        def proc(k):
            got = yield k.timeout(0.5, value="tick")
            return got

        assert kernel.run_process(proc(kernel)) == "tick"

    def test_processes_wait_on_each_other(self, kernel):
        def child(k):
            yield k.timeout(3.0)
            return 7

        def parent(k):
            value = yield k.process(child(k))
            return value * 2

        assert kernel.run_process(parent(kernel)) == 14
        assert kernel.now == 3.0

    def test_exception_in_process_fails_the_event(self, kernel):
        def proc(k):
            yield k.timeout(1.0)
            raise ValueError("inner")

        process = kernel.process(proc(kernel))
        process.defused = True
        kernel.run()
        assert isinstance(process.exception, ValueError)

    def test_failure_propagates_to_waiting_process(self, kernel):
        def child(k):
            yield k.timeout(1.0)
            raise ValueError("child failed")

        def parent(k):
            try:
                yield k.process(child(k))
            except ValueError as exc:
                return f"caught: {exc}"

        assert kernel.run_process(parent(kernel)) == "caught: child failed"

    def test_yielding_non_event_fails_process(self, kernel):
        def proc(k):
            yield 42

        process = kernel.process(proc(kernel))
        process.defused = True
        kernel.run()
        assert isinstance(process.exception, SimulationError)

    def test_cross_kernel_event_rejected(self, kernel):
        other = Kernel()

        def proc(k):
            yield other.timeout(1.0)

        process = kernel.process(proc(kernel))
        process.defused = True
        kernel.run()
        assert isinstance(process.exception, SimulationError)

    def test_non_generator_rejected(self, kernel):
        with pytest.raises(SimulationError):
            Process(kernel, lambda: None)

    def test_interrupt_wakes_sleeping_process(self, kernel):
        def sleeper(k):
            try:
                yield k.timeout(100.0)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, k.now)

        process = kernel.process(sleeper(kernel))
        kernel.call_later(2.0, lambda: process.interrupt("wake up"))
        kernel.run()
        assert process.value == ("interrupted", "wake up", 2.0)

    def test_interrupting_dead_process_raises(self, kernel):
        def quick(k):
            yield k.timeout(0.1)

        process = kernel.process(quick(kernel))
        kernel.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_kill_terminates_without_aborting_simulation(self, kernel):
        def sleeper(k):
            yield k.timeout(100.0)

        process = kernel.process(sleeper(kernel))
        kernel.call_later(1.0, lambda: process.kill("shutdown"))
        kernel.run()  # must not raise despite the unhandled ProcessKilled
        assert isinstance(process.exception, ProcessKilled)

    def test_run_process_detects_deadlock(self, kernel):
        def stuck(k):
            yield k.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            kernel.run_process(stuck(kernel))

    def test_immediately_processed_event_resumes_without_parking(self, kernel):
        """Waiting on an already-processed event continues in the same step."""

        def proc(k):
            event = k.event()
            event.succeed("early")
            yield k.timeout(0)  # let the event be processed
            got = yield event
            return got

        assert kernel.run_process(proc(kernel)) == "early"


class TestConditions:
    def test_any_of_returns_first(self, kernel):
        def proc(k):
            fast = k.timeout(1.0, value="fast")
            slow = k.timeout(5.0, value="slow")
            done = yield AnyOf(k, [fast, slow])
            return (list(done.values()), k.now)

        values, now = kernel.run_process(proc(kernel))
        assert values == ["fast"]
        assert now == 1.0

    def test_all_of_waits_for_all(self, kernel):
        def proc(k):
            first = k.timeout(1.0, value=1)
            second = k.timeout(5.0, value=2)
            done = yield AllOf(k, [first, second])
            return (sorted(done.values()), k.now)

        values, now = kernel.run_process(proc(kernel))
        assert values == [1, 2]
        assert now == 5.0

    def test_all_of_fails_fast(self, kernel):
        def proc(k):
            good = k.timeout(10.0)
            bad = k.event()
            k.call_later(1.0, lambda: bad.fail(ValueError("nope")))
            try:
                yield AllOf(k, [good, bad])
            except ValueError:
                return k.now

        assert kernel.run_process(proc(kernel)) == 1.0

    def test_empty_all_of_succeeds_immediately(self, kernel):
        def proc(k):
            result = yield AllOf(k, [])
            return result

        assert kernel.run_process(proc(kernel)) == {}

    def test_any_of_with_already_triggered_event(self, kernel):
        def proc(k):
            done = k.event()
            done.succeed("pre")
            yield k.timeout(0)
            result = yield AnyOf(k, [done, k.timeout(10)])
            return list(result.values())

        assert kernel.run_process(proc(kernel)) == ["pre"]


class TestScheduling:
    def test_same_time_events_fifo(self, kernel):
        order = []
        for i in range(5):
            kernel.call_later(1.0, lambda i=i: order.append(i))
        kernel.run()
        assert order == [0, 1, 2, 3, 4]

    def test_call_soon_runs_at_current_time(self, kernel):
        seen = []
        kernel.call_soon(lambda: seen.append(kernel.now))
        kernel.run()
        assert seen == [0.0]

    def test_peek_reports_next_event_time(self, kernel):
        kernel.timeout(3.0)
        kernel.timeout(1.0)
        assert kernel.peek() == 1.0

    def test_peek_empty_queue_is_infinite(self, kernel):
        assert Kernel().peek() == float("inf")

    def test_processed_events_counter(self, kernel):
        for _ in range(4):
            kernel.timeout(1.0)
        kernel.run()
        assert kernel.processed_events == 4

    def test_nested_scheduling_during_run(self, kernel):
        """Events scheduled by callbacks during run() are also executed."""
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                kernel.call_later(1.0, lambda: chain(depth + 1))

        kernel.call_soon(lambda: chain(0))
        kernel.run()
        assert seen == [0, 1, 2, 3]
        assert kernel.now == 3.0

    def test_mixed_same_instant_runs_in_scheduling_order(self, kernel):
        """call_later(0), a timeout(0) waiter, succeed() and call_soon issued
        at one instant run in the order they were scheduled."""
        order = []
        gate = kernel.event()
        gate.add_callback(lambda _evt: order.append(("succeed", kernel.now)))

        def driver(k):
            yield k.timeout(1.0)
            k.call_later(0, lambda: order.append(("call_later", k.now)))
            wake = k.timeout(0)
            gate.succeed()
            k.call_soon(lambda: order.append(("call_soon", k.now)))
            yield wake
            order.append(("timeout waiter", k.now))

        kernel.process(driver(kernel))
        kernel.run()
        assert order == [
            ("call_later", 1.0),
            ("timeout waiter", 1.0),
            ("succeed", 1.0),
            ("call_soon", 1.0),
        ]

    def test_add_callback_on_call_later_runs_after_function(self, kernel):
        order = []
        event = kernel.call_later(1.0, lambda: order.append("func"))
        event.add_callback(lambda evt: order.append(("callback", kernel.now, evt is event)))
        kernel.run()
        assert order == ["func", ("callback", 1.0, True)]
        assert event.processed

        # Added after processing: runs at the current time, not dropped.
        event.add_callback(lambda evt: order.append(("late", kernel.now)))
        kernel.run()
        assert order[-1] == ("late", 1.0)

    def test_negative_call_later_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.call_later(-0.1, lambda: None)

    def test_reserved_slot_keeps_its_fifo_position(self, kernel):
        """_call_at runs in the slot _take_slot reserved, ahead of events
        scheduled for the same instant after the reservation."""
        order = []
        slot = kernel._take_slot(1.0)
        kernel.call_later(1.0, lambda: order.append("later"))
        kernel._call_at(slot, lambda: order.append("reserved"))
        kernel.run()
        assert order == ["reserved", "later"]
        with pytest.raises(SimulationError):
            kernel._call_at((0.5, 1), lambda: None)


def _sleeper(k):
    yield k.timeout(10.0)


class TestEventNames:
    def test_timeout_default_name(self, kernel):
        assert Timeout(kernel, 0.5).name == "Timeout(0.5)"
        assert kernel.timeout(2).name == "Timeout(2)"

    def test_initialize_and_throw_names_and_repr(self, kernel):
        process = kernel.process(_sleeper(kernel), name="worker")
        (init,) = [e for _, _, e in kernel._queue if isinstance(e, _Initialize)]
        assert init.name == "Init(worker)"
        assert repr(init) == "<_Initialize 'Init(worker)' state=triggered>"
        kernel.run(until=1.0)
        process.interrupt("stop")
        (throw,) = [e for _, _, e in kernel._queue if isinstance(e, _Throw)]
        assert throw.name == "Throw(worker)"
        assert repr(throw) == "<_Throw 'Throw(worker)' state=triggered>"
        with pytest.raises(Interrupt):
            kernel.run()

    def test_explicit_name_survives_and_name_is_settable(self, kernel):
        event = kernel.event(name="gate")
        assert event.name == "gate"
        event.name = "renamed"
        assert event.name == "renamed"
        assert repr(event) == "<Event 'renamed' state=pending>"
        timeout = kernel.timeout(1.0)
        timeout.name = "deadline"
        assert timeout.name == "deadline"
        assert kernel.process(_sleeper(kernel), name="worker").name == "worker"
        assert kernel.process(_sleeper(kernel)).name == "_sleeper"
        assert kernel.event().name == "Event"
        assert AnyOf(kernel, [kernel.event()]).name == "AnyOf"

    def test_events_are_slotted_but_weakly_referenceable(self, kernel):
        for event in (kernel.event(), kernel.timeout(1.0),
                      kernel.call_later(1.0, lambda: None),
                      kernel.process(_sleeper(kernel)),
                      AllOf(kernel, [kernel.event()])):
            assert not hasattr(event, "__dict__")
            assert weakref.ref(event)() is event
