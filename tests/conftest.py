import os
import signal

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


@pytest.fixture(params=["exit-code", "signal"])
def dying_curve_worker(request, monkeypatch):
    """Make a forked curve worker die on its second forward pass, partway
    through its points: through os._exit(1), or killed by SIGKILL."""
    caller, calls, forward = os.getpid(), [], pruning.forward_batch

    def dying_forward(*args, **kwargs):
        if os.getpid() != caller:
            calls.append(None)
            if len(calls) == 2:
                if request.param == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(pruning, "forward_batch", dying_forward)
