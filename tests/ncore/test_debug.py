"""Tests for the debug facilities: event log and performance counters."""

from hypothesis import given
from hypothesis import strategies as st

from repro.ncore import EventLog, PerfCounter


class TestEventLog:
    def test_record_and_drain_in_order(self):
        log = EventLog(capacity=4)
        for i in range(3):
            log.record(cycle=i * 10, tag=i, pc=i)
        events = log.drain()
        assert [e.tag for e in events] == [0, 1, 2]
        assert [e.cycle for e in events] == [0, 10, 20]
        assert len(log) == 0

    def test_wraps_like_a_circular_buffer(self):
        log = EventLog(capacity=4)
        for i in range(6):
            log.record(i, i, i)
        events = log.drain()
        # Oldest two entries were overwritten.
        assert [e.tag for e in events] == [2, 3, 4, 5]
        assert log.dropped == 0  # drained resets the count

    def test_dropped_count(self):
        log = EventLog(capacity=2)
        for i in range(5):
            log.record(i, i, i)
        assert log.dropped == 3

    def test_capacity_is_1024_by_default(self):
        log = EventLog()
        assert log.capacity == 1024

    @given(st.integers(1, 40), st.integers(0, 100))
    def test_drain_returns_most_recent_in_order(self, capacity, count):
        log = EventLog(capacity)
        for i in range(count):
            log.record(i, i, i)
        events = log.drain()
        expected = list(range(count))[-capacity:]
        assert [e.tag for e in events] == expected

    def test_overflowed_property(self):
        log = EventLog(capacity=4)
        for i in range(4):
            log.record(i, i, i)
        assert log.dropped == 0
        log.record(4, 4, 4)
        assert log.dropped == 1

    def test_overflowed_resets_on_drain(self):
        # `dropped` describes the current window: draining hands the
        # buffer back to the hardware, clean.
        log = EventLog(capacity=2)
        for i in range(3):
            log.record(i, i, i)
        assert log.dropped == 1
        log.drain()
        assert log.dropped == 0

    @given(st.integers(1, 40), st.integers(0, 100))
    def test_overflowed_iff_capacity_exceeded(self, capacity, count):
        log = EventLog(capacity)
        for i in range(count):
            log.record(i, i, i)
        assert (log.dropped > 0) == (count > capacity)


class TestPerfCounter:
    def test_counts(self):
        counter = PerfCounter("cycles")
        counter.add(5)
        counter.add(3)
        assert counter.value == 8

    def test_offset_configuration(self):
        counter = PerfCounter("x", bits=8)
        counter.configure(offset=250)
        assert counter.value == 250

    def test_wraparound_detected(self):
        counter = PerfCounter("x", bits=8)
        counter.configure(offset=254)
        assert not counter.wrapped
        counter.add(5)
        assert counter.wrapped
        assert counter.value == 3

    def test_break_on_wrap_fires_once_armed(self):
        counter = PerfCounter("x", bits=8)
        counter.configure(offset=255, break_on_wrap=True)
        assert counter.add(1) is True

    def test_no_break_when_not_armed(self):
        counter = PerfCounter("x", bits=8)
        counter.configure(offset=255, break_on_wrap=False)
        assert counter.add(1) is False
        assert counter.wrapped

    @given(st.lists(st.integers(0, 1000), max_size=50))
    def test_value_is_sum_modulo_width(self, increments):
        counter = PerfCounter("x", bits=16)
        for inc in increments:
            counter.add(inc)
        assert counter.value == sum(increments) % (1 << 16)
