import concurrent.futures
import multiprocessing
import os
from types import SimpleNamespace

import pytest


@pytest.fixture
def pools(monkeypatch):
    """Record the pools kernels.run_jobs starts, with os.cpu_count reading 4.

    ``started`` gets one (size, submitted jobs) pair per pool. Set
    ``method`` to a start method name to start the pool's workers with it.
    """
    record = SimpleNamespace(started=[], method=None)
    base = concurrent.futures.ProcessPoolExecutor

    class Recording(base):
        def __init__(self, max_workers):
            context = record.method and multiprocessing.get_context(record.method)
            super().__init__(max_workers, mp_context=context)
            self.jobs = []
            record.started.append((max_workers, self.jobs))

        def submit(self, fn, *args):
            self.jobs.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return record


@pytest.fixture
def no_pool(monkeypatch):
    """Fail any attempt of kernels.run_jobs to start a pool; os.cpu_count reads 4."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
