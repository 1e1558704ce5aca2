import concurrent.futures
import multiprocessing
from types import SimpleNamespace

import pytest

from relwalk import kernels


@pytest.fixture
def pools(monkeypatch):
    """Record the pools kernels.run_jobs starts, with 4 usable cores.

    ``started`` gets one (size, submitted jobs) pair per pool, and
    ``shares`` the march share of each submitted job. Set
    ``method`` to a start method name to start the pool's workers with it.
    """
    record = SimpleNamespace(started=[], shares=[], method=None)
    base = concurrent.futures.ProcessPoolExecutor

    class Recording(base):
        def __init__(self, max_workers):
            context = record.method and multiprocessing.get_context(record.method)
            super().__init__(max_workers, mp_context=context)
            self.jobs = []
            record.started.append((max_workers, self.jobs))

        def submit(self, fn, *args):
            # run_jobs submits kernels._with_share(share, job function, *job)
            share, _, *job = args
            self.jobs.append(tuple(job))
            record.shares.append(share)
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(kernels, "_cores", lambda: 4)
    return record


@pytest.fixture
def no_pool(monkeypatch):
    """Fail any attempt of kernels.run_jobs to start a pool, with 4 usable cores."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(kernels, "_cores", lambda: 4)


@pytest.fixture
def one_core(monkeypatch):
    """Every march here runs in this process, on a share of one core."""
    monkeypatch.setattr(kernels, "_share", 1)
