"""The discrete-event kernel: clock, ordering, events, tasks."""

import pytest

from repro.engine import Engine, EngineError


class TestClockAndOrdering:
    def test_time_starts_at_zero_and_advances(self):
        engine = Engine()
        seen = []
        engine.call_after(2.0, lambda: seen.append(engine.now))
        engine.call_after(1.0, lambda: seen.append(engine.now))
        assert engine.now == 0.0
        final = engine.run()
        assert seen == [1.0, 2.0]
        assert final == 2.0

    def test_ties_dispatch_in_insertion_order(self):
        engine = Engine()
        seen = []
        for tag in range(5):
            engine.call_after(1.0, seen.append, tag)
        engine.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_call_at_schedules_absolute_time(self):
        engine = Engine()
        seen = []
        engine.call_after(1.0, lambda: engine.call_at(3.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [3.0]

    def test_cannot_schedule_into_the_past(self):
        engine = Engine()
        with pytest.raises(EngineError):
            engine.call_after(-1.0, lambda: None)
        with pytest.raises(EngineError):
            engine.timeout(-0.5)

    def test_run_until_stops_the_clock_exactly(self):
        engine = Engine()
        seen = []
        engine.call_after(1.0, seen.append, "a")
        engine.call_after(5.0, seen.append, "b")
        assert engine.run(until=2.0) == 2.0
        assert seen == ["a"]
        engine.run()
        assert seen == ["a", "b"]

    def test_max_events_catches_runaway_schedules(self):
        engine = Engine()

        def respawn():
            engine.call_after(0.0, respawn)

        engine.call_after(0.0, respawn)
        with pytest.raises(EngineError, match="without draining"):
            engine.run(max_events=100)

    def test_identical_schedules_dispatch_identically(self):
        def trace():
            engine = Engine()
            order = []
            for tag in ("x", "y", "z"):
                engine.call_after(0.5, lambda t=tag: order.append((engine.now, t)))
            engine.call_after(0.25, lambda: order.append((engine.now, "early")))
            engine.run()
            return order

        assert trace() == trace()


class TestEvents:
    def test_succeed_resumes_with_value(self):
        engine = Engine()
        done = engine.event()
        got = []

        def waiter():
            got.append((yield done))

        engine.process(waiter())
        engine.call_after(1.0, done.succeed, 42)
        engine.run()
        assert got == [42]

    def test_double_trigger_is_an_error(self):
        engine = Engine()
        done = engine.event().succeed(1)
        with pytest.raises(EngineError):
            done.succeed(2)

    def test_late_subscriber_still_observes(self):
        engine = Engine()
        done = engine.event().succeed("fact")
        got = []

        def waiter():
            got.append((yield done))

        engine.process(waiter())
        engine.run()
        assert got == ["fact"]


class TestTasks:
    def test_timeout_advances_the_clock(self):
        engine = Engine()
        stamps = []

        def body():
            yield engine.timeout(1.5)
            stamps.append(engine.now)
            yield engine.timeout(0.5)
            stamps.append(engine.now)

        engine.process(body())
        engine.run()
        assert stamps == [1.5, 2.0]

    def test_task_return_value_becomes_event_value(self):
        engine = Engine()
        got = []

        def child():
            yield engine.timeout(1.0)
            return "payload"

        def parent():
            got.append((yield engine.process(child())))

        engine.process(parent())
        engine.run()
        assert got == ["payload"]

    def test_two_tasks_interleave_deterministically(self):
        engine = Engine()
        order = []

        def ticker(tag, period):
            for _ in range(3):
                yield engine.timeout(period)
                order.append((engine.now, tag))

        engine.process(ticker("a", 1.0))
        engine.process(ticker("b", 1.5))
        engine.run()
        # The t=3.0 tie goes to "b": its timeout was enqueued at t=1.5,
        # before "a" enqueued its own at t=2.0 (insertion-order tie-break).
        assert order == [
            (1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b"), (3.0, "a"), (4.5, "b"),
        ]

    def test_yielding_a_non_event_is_an_error(self):
        engine = Engine()

        def bad():
            yield 42

        engine.process(bad())
        with pytest.raises(EngineError, match="must yield Event"):
            engine.run()

    def test_yielding_a_foreign_event_is_an_error(self):
        engine, other = Engine(), Engine()

        def confused():
            yield other.timeout(1.0)

        engine.process(confused())
        with pytest.raises(EngineError, match="another engine"):
            engine.run()
