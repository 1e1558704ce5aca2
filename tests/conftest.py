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
    """The (parts, dealt job indices) of each fan-out that forks, with 4 usable cores.

    kernels.run_parts deals its jobs to parts through kernels._deal, each
    part a list of job indices: of runs' (run, chunk) units, or of a
    study's output files or solves.
    """
    calls = []
    deal = kernels._deal

    def recording(costs, size):
        parts = deal(costs, size)
        calls.append((size, parts))
        return parts

    monkeypatch.setattr(kernels, "_deal", recording)
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

