"""WorkerPool mechanics: lifecycle, health/heartbeat, crash respawn."""

import contextlib
import multiprocessing as mp
import os
import signal
import struct
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve import JobSpec, WorkerPool
from repro.serve import pool as pool_module
from repro.serve.queue import QueuedJob


def queued(job_id, **spec_kwargs):
    spec_kwargs.setdefault(
        "settings",
        {"n_particles": 16, "n_inactive": 0, "n_active": 1,
         "mode": "event", "pincell": True},
    )
    return QueuedJob(
        JobSpec(job_id=job_id, **spec_kwargs),
        attempt=1,
        enqueued_at=time.monotonic(),
    )


def wait_for(predicate, timeout_s=30.0, poll_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


class TestLifecycle:
    def test_start_twice_rejected(self):
        pool = WorkerPool(1)
        pool.start()
        try:
            with pytest.raises(ServeError, match="already started"):
                pool.start()
        finally:
            pool.stop()

    def test_graceful_stop_joins_all_workers(self):
        pool = WorkerPool(2)
        pool.start()
        assert wait_for(lambda: pool.alive_count() == 2)
        pool.stop(graceful=True)
        assert pool.alive_count() == 0

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ServeError):
            WorkerPool(0)


class TestHealth:
    def test_health_reports_liveness_and_heartbeat(self):
        pool = WorkerPool(1, heartbeat_s=0.05)
        pool.start()
        try:
            assert wait_for(lambda: bool(pool.poll(timeout=0.1)) or
                            pool._workers[0].state == "idle")
            health = pool.health()[0]
            assert health["alive"] is True
            assert health["incarnation"] == 1
            assert health["in_flight"] is None
            assert health["last_seen_s"] < 5.0
        finally:
            pool.stop()

    def test_heartbeats_refresh_last_seen_while_idle(self):
        pool = WorkerPool(1, heartbeat_s=0.05)
        pool.start()
        try:
            pool.poll(timeout=0.2)
            time.sleep(0.3)
            pool.poll(timeout=0.2)  # absorb heartbeats
            assert pool.health()[0]["last_seen_s"] < 0.3
        finally:
            pool.stop()


class TestDispatch:
    def test_job_runs_and_returns_done_event(self):
        pool = WorkerPool(1)
        pool.start()
        try:
            pool.dispatch(0, queued("one"))
            events = []
            assert wait_for(
                lambda: events.extend(pool.poll(timeout=0.2)) or
                any(e.kind == "done" for e in events)
            )
            done = next(e for e in events if e.kind == "done")
            assert done.result.job_id == "one"
            assert done.result.status == "done"
            assert pool.in_flight() == 0
        finally:
            pool.stop()

    def test_double_dispatch_to_busy_worker_rejected(self):
        pool = WorkerPool(1)
        pool.start()
        try:
            pool.dispatch(0, queued("first"))
            with pytest.raises(ServeError, match="in flight"):
                pool.dispatch(0, queued("second"))
            assert wait_for(
                lambda: any(e.kind == "done"
                            for e in pool.poll(timeout=0.2))
            )
        finally:
            pool.stop()


class TestCrashRecovery:
    def test_crashed_worker_respawns_and_surfaces_lost_job(self):
        pool = WorkerPool(1)
        pool.start()
        try:
            pool.dispatch(0, queued("victim", fault_crash_attempts=1))
            events = []
            assert wait_for(
                lambda: events.extend(pool.poll(timeout=0.2)) or
                any(e.kind == "crash" for e in events)
            )
            crash = next(e for e in events if e.kind == "crash")
            assert crash.job.spec.job_id == "victim"
            assert wait_for(lambda: pool.alive_count() == 1)
            assert pool.health()[0]["incarnation"] == 2
            # The respawned worker serves the rerun normally.
            crash.job.attempt += 1
            pool.dispatch(0, crash.job)
            events.clear()
            assert wait_for(
                lambda: events.extend(pool.poll(timeout=0.2)) or
                any(e.kind == "done" for e in events)
            )
            done = next(e for e in events if e.kind == "done")
            assert done.result.attempts == 2
        finally:
            pool.stop()


@contextlib.contextmanager
def hard_deadline(seconds):
    """Fail the test after ``seconds`` even when it is blocked inside a
    read that will never complete (pytest-timeout is not a dependency)."""

    def expire(signum, frame):
        raise TimeoutError(f"test exceeded its {seconds:g} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _die_mid_send(channel):
    """What a worker killed inside a send leaves behind: the channel's
    write lock taken (when it has one) and half a frame in the pipe."""
    lock = getattr(channel, "_wlock", None)  # a shared mp.Queue has one
    if lock is not None:
        lock.acquire()
        channel = channel._writer
    os.write(channel.fileno(), struct.pack("!i", 4096) + b"half a frame")
    os._exit(13)


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods()
    or not hasattr(signal, "setitimer"),
    reason="needs fork (the patched worker entry point is inherited) "
    "and an interval timer",
)
class TestDyingWorkerCannotWedgeThePool:
    def test_death_mid_send_damages_only_its_own_channel(
        self, tmp_path, monkeypatch
    ):
        """Worker 0's first incarnation dies mid-send.  Worker 1's job must
        still complete and worker 0 must be respawned and serve again —
        on a result channel shared by all workers the dead writer's lock
        and half frame stop every later message, and this test hangs."""
        real_main = pool_module._worker_main
        died = tmp_path / "worker-0-died"

        def worker_main(worker_id, task_q, channel, *rest):
            if worker_id == 0 and not died.exists():
                died.touch()
                _die_mid_send(channel)
            real_main(worker_id, task_q, channel, *rest)

        monkeypatch.setattr(pool_module, "_worker_main", worker_main)
        pool = WorkerPool(2, start_method="fork")
        events = []

        def seen(kind, job_id=None):
            events.extend(pool.poll(timeout=0.2))
            return any(
                e.kind == kind
                and (job_id is None or e.result.job_id == job_id)
                for e in events
            )

        with hard_deadline(60.0):
            pool.start()
            try:
                pool.dispatch(1, queued("bystander"))
                assert wait_for(lambda: seen("done", "bystander"))
                assert wait_for(lambda: seen("crash"))
                assert wait_for(
                    lambda: pool.health()[0]["incarnation"] == 2
                    and pool.alive_count() == 2
                )
                pool.dispatch(0, queued("after-respawn"))
                assert wait_for(lambda: seen("done", "after-respawn"))
            finally:
                pool.stop(graceful=False)
        assert died.exists()


def _write_ends_held(pid, pipe_inode):
    """File descriptors of ``pid`` open for writing on the given pipe."""
    held = []
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            if os.readlink(fd) != f"pipe:[{pipe_inode}]":
                continue
            info = Path(f"/proc/{pid}/fdinfo/{fd.name}").read_text()
        except OSError:
            continue  # the descriptor closed while we looked
        flags = int(info.split("flags:")[1].split()[0], 8)
        if flags & os.O_ACCMODE == os.O_WRONLY:
            held.append(fd.name)
    return held


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods()
    or not Path("/proc/self/fdinfo").is_dir(),
    reason="inspects forked workers' descriptors through Linux /proc",
)
def test_concurrent_spawns_leak_no_write_end_into_a_sibling():
    """Two gateway shards start their pools from two threads at once.  A
    worker forked while the other spawn still holds its child-side pipe
    ends open inherits them, and then that worker's death is no longer an
    end-of-file: ``Process.join(timeout)`` waits on ``sentinel`` and sat
    out the whole 10 s of a graceful stop (ROADMAP 5b).  Racy by nature on
    an unserialized tree (3 leaks in 20 rounds when recorded), never on a
    serialized one."""
    leaks = []
    for round_ in range(25):
        pools = [WorkerPool(1, start_method="fork") for _ in range(2)]
        barrier = threading.Barrier(len(pools))

        def start(pool):
            barrier.wait()
            pool.start()

        threads = [
            threading.Thread(target=start, args=(pool,)) for pool in pools
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        try:
            procs = [
                handle.process
                for pool in pools
                for handle in pool._workers.values()
            ]
            for proc in procs:
                inode = os.fstat(proc.sentinel).st_ino
                for sibling in procs:
                    if sibling is not proc and _write_ends_held(
                        sibling.pid, inode
                    ):
                        leaks.append((round_, proc.pid, sibling.pid))
        finally:
            for pool in pools:
                pool.stop(graceful=False)
    assert leaks == []
