"""Capacity-limited resources: FIFO grants and the worker pool."""

import pytest

from repro.engine import Engine, EngineError, Resource, WorkerPool


class TestResource:
    def test_grants_up_to_capacity_immediately(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        first, second, third = (resource.request() for _ in range(3))
        assert first.triggered and second.triggered
        assert not third.triggered
        assert resource.in_use == 2

    def test_release_grants_the_oldest_waiter(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        order = []

        def worker(tag, hold):
            yield resource.request()
            yield engine.timeout(hold)
            resource.release()
            order.append((engine.now, tag))

        engine.process(worker("a", 1.0))
        engine.process(worker("b", 1.0))
        engine.process(worker("c", 1.0))
        engine.run()
        # Strict FIFO: request order decides service order.
        assert order == [(1.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_release_without_request_is_an_error(self):
        engine = Engine()
        with pytest.raises(EngineError, match="without a matching request"):
            Resource(engine, capacity=1).release()

    def test_capacity_must_be_positive(self):
        with pytest.raises(EngineError):
            Resource(Engine(), capacity=0)

    def test_use_holds_for_the_given_time(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        stamps = []

        def worker():
            yield engine.process(resource.use(2.5))
            stamps.append(engine.now)

        engine.process(worker())
        engine.run()
        assert stamps == [2.5]
        assert resource.in_use == 0


class TestWorkerPool:
    def test_submit_completes_after_the_work_time(self):
        engine = Engine()
        pool = WorkerPool(engine, workers=2)
        done = []

        def client(tag, seconds):
            yield pool.submit(seconds)
            done.append((engine.now, tag))

        engine.process(client("a", 1.0))
        engine.process(client("b", 1.0))
        engine.process(client("c", 1.0))  # queues behind a and b
        engine.run()
        assert done == [(1.0, "a"), (1.0, "b"), (2.0, "c")]

    def test_pool_saturation_serializes_excess_work(self):
        engine = Engine()
        pool = WorkerPool(engine, workers=1)
        done = []

        def client(tag):
            yield pool.submit(1.0)
            done.append((engine.now, tag))

        for tag in range(4):
            engine.process(client(tag))
        engine.run()
        assert done == [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]
