"""The thread policy: ``BTP_THREADS`` and the BLAS-pinned pool."""

import os
import threading

import pytest

import btp.threads
from btp.errors import ValidationError
from btp.threads import pinned_pool, thread_count


class FakeSetter:
    """Stands in for ``openblas_set_num_threads_local``: keeps one count,
    records the calling thread and the count of each call, and returns the
    count it replaced."""

    def __init__(self, count):
        self.count = count
        self.calls = []

    def __call__(self, count):
        self.calls.append((threading.current_thread(), count))
        previous, self.count = self.count, count
        return previous


def test_thread_count_reads_btp_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.delenv("BTP_THREADS", raising=False)
    assert thread_count() == 3  # one per usable CPU
    for raw, count in (("1", 1), (" 7 ", 7), ("100000", 100000), ("", 3)):
        monkeypatch.setenv("BTP_THREADS", raw)
        assert thread_count() == count
    for raw, message in (("many", "BTP_THREADS must be an integer, got 'many'"),
                         ("2.5", "BTP_THREADS must be an integer, got '2.5'"),
                         ("0", "BTP_THREADS must be >= 1, got 0"),
                         ("-3", "BTP_THREADS must be >= 1, got -3")):
        monkeypatch.setenv("BTP_THREADS", raw)
        with pytest.raises(ValidationError) as info:
            thread_count()
        assert str(info.value) == message


def test_pinned_pool_pins_the_caller_and_each_worker(monkeypatch):
    setter = FakeSetter(2)
    monkeypatch.setattr(btp.threads, "openblas_thread_setter", lambda: setter)
    started = threading.Barrier(3)
    with pinned_pool(3) as pool:
        assert setter.count == 1
        # each job waits for the others, so three workers start
        jobs = [pool.submit(started.wait, 30) for _ in range(3)]
        for job in jobs:
            job.result()
    caller = threading.current_thread()
    assert [count for _, count in setter.calls] == [1, 1, 1, 1, 2]
    assert [thread is caller for thread, _ in setter.calls] == [True, False, False, False, True]
    assert len({thread for thread, _ in setter.calls}) == 4
    assert setter.count == 2


def test_pinned_pool_cancels_unstarted_jobs_and_restores_when_a_job_raises(monkeypatch):
    setter = FakeSetter(2)
    monkeypatch.setattr(btp.threads, "openblas_thread_setter", lambda: setter)
    ran = []
    cancelled = threading.Event()

    def fail():
        raise RuntimeError("job failed")

    with pytest.raises(RuntimeError, match="job failed"):
        with pinned_pool(1) as pool:
            failing = pool.submit(fail)
            # holds the one worker until the last job is cancelled
            pool.submit(cancelled.wait, 10)
            last = pool.submit(ran.append, "last")
            last.add_done_callback(lambda job: cancelled.set())
            failing.result()
    assert last.cancelled() and ran == []
    assert setter.count == 2


def test_pinned_pool_restores_the_blas_thread_count_when_a_job_raises():
    setter = btp.threads.openblas_thread_setter()
    if setter is None:
        pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")

    def fail():
        raise RuntimeError("job failed")

    before = setter(2)
    try:
        with pytest.raises(RuntimeError, match="job failed"):
            with pinned_pool(2) as pool:
                pool.submit(fail).result()
        assert setter(before) == 2
    finally:
        setter(before)


def test_pinned_pool_runs_jobs_without_a_setter(monkeypatch):
    monkeypatch.setattr(btp.threads, "openblas_thread_setter", lambda: None)
    with pinned_pool(2) as pool:
        assert [job.result() for job in [pool.submit(pow, 2, k) for k in range(4)]] == [1, 2, 4, 8]
