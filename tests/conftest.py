import os

import pytest

from relwalk import kernels


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    if hasattr(os, "fork"):
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        pytest.fail(f"a child process was left {'unreaped' if pid else 'running'}")


@pytest.fixture
def fan_outs(monkeypatch):
    """The (processes, parts) of each kernels.fork_each call, with 4 usable cores.

    kernels.run_parts hands fork_each its parts, each a list of job
    indices: of runs' (run, chunk) units, or of a study's CSV files.
    """
    calls = []
    fork_each = kernels.fork_each

    def recording(fn, items, processes):
        calls.append((processes, list(items)))
        return fork_each(fn, items, processes)

    monkeypatch.setattr(kernels, "fork_each", recording)
    monkeypatch.setattr(kernels, "_cores", lambda: 4)
    return calls


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork starts here."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids

