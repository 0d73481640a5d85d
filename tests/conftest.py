import os
import signal
import sys
import tracemalloc

import pytest

import glasso_prune.cli  # noqa: F401  (every module, so norm_passes patches every binding)
from glasso_prune import pruning, regularization


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


@pytest.fixture
def traced_peak():
    """A function that calls fn(*args) and returns the peak bytes
    tracemalloc saw allocated during the call."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def norm_passes(monkeypatch):
    """The group_norms calls made during the test, one args tuple per call,
    counted through every binding of group_norms in the package."""
    calls, group_norms = [], regularization.group_norms

    def counted(*args):
        calls.append(args)
        return group_norms(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "glasso_prune":
            for attr, value in list(vars(module).items()):
                if value is group_norms:
                    monkeypatch.setattr(module, attr, counted)
    return calls
