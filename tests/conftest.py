import os

import pytest

from glasso_prune import pruning


@pytest.fixture
def forked_pids(monkeypatch):
    """The pids of the children os.fork makes during the test, in order."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def dying_curve_worker(monkeypatch):
    """Make a forked curve worker leave through os._exit(1) on its second
    forward pass, partway through its points, before it sends anything."""
    caller, calls, forward = os.getpid(), [], pruning.forward_batch

    def dying_forward(*args, **kwargs):
        if os.getpid() != caller:
            calls.append(None)
            if len(calls) == 2:
                os._exit(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(pruning, "forward_batch", dying_forward)
