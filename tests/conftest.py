import os

import pytest


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
