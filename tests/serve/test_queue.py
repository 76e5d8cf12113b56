"""JobQueue: priority order, FIFO fairness, front-of-class requeue."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve import JobQueue, JobSpec


def spec(job_id, priority=0):
    return JobSpec(job_id=job_id, priority=priority)


class TestOrdering:
    def test_higher_priority_dequeues_first(self):
        q = JobQueue()
        q.put(spec("low", priority=0))
        q.put(spec("high", priority=5))
        q.put(spec("mid", priority=2))
        order = [q.get(timeout=0).spec.job_id for _ in range(3)]
        assert order == ["high", "mid", "low"]

    def test_fifo_within_a_priority(self):
        q = JobQueue()
        for i in range(5):
            q.put(spec(f"j{i}", priority=1))
        order = [q.get(timeout=0).spec.job_id for _ in range(5)]
        assert order == [f"j{i}" for i in range(5)]

    def test_requeue_jumps_to_front_of_its_priority(self):
        q = JobQueue()
        q.put(spec("first", priority=1))
        q.put(spec("second", priority=1))
        q.put(spec("urgent", priority=9))
        q.put(spec("recovered", priority=1), attempt=2, front=True)
        order = [(item.spec.job_id, item.attempt) for item in
                 (q.get(timeout=0) for _ in range(4))]
        assert order == [("urgent", 1), ("recovered", 2),
                         ("first", 1), ("second", 1)]

    @given(puts=st.lists(
        st.tuples(st.integers(-3, 3), st.booleans()), max_size=40
    ))
    @settings(max_examples=200, deadline=None)
    def test_dequeue_order_is_the_sorted_model(self, puts):
        """Any interleaving of normal and front puts dequeues as sorted
        by (-priority, front first and latest-first among them, then
        submission order)."""
        q = JobQueue()
        model = []
        for i, (priority, front) in enumerate(puts):
            q.put(spec(f"j{i}", priority=priority), front=front)
            model.append(
                ((-priority, 0, -i) if front else (-priority, 1, i), f"j{i}")
            )
        order = [q.get(timeout=0).spec.job_id for _ in puts]
        assert order == [job_id for _, job_id in sorted(model)]
        assert q.get(timeout=0) is None


class TestLifecycle:
    def test_get_timeout_returns_none(self):
        q = JobQueue()
        assert q.get(timeout=0.01) is None

    def test_closed_queue_rejects_put_but_drains(self):
        q = JobQueue()
        q.put(spec("a"))
        q.close()
        with pytest.raises(ServeError, match="closed"):
            q.put(spec("b"))
        assert q.get(timeout=0).spec.job_id == "a"
        assert q.get(timeout=0) is None  # closed and empty: no waiting

    def test_get_blocks_until_put_from_another_thread(self):
        q = JobQueue()
        got = []

        def consumer():
            got.append(q.get(timeout=5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        q.put(spec("late"))
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got[0].spec.job_id == "late"

    def test_enqueued_at_is_stamped(self):
        q = JobQueue()
        q.put(spec("t"))
        item = q.get(timeout=0)
        assert item.enqueued_at > 0
