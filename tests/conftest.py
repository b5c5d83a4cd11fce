import sys
from concurrent import futures

import pytest

from fruitmap import _pool


@pytest.fixture
def pools(monkeypatch):
    """The keyword arguments of each process pool created during the test."""
    created = []

    class RecordedPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordedPool)
    return created


@pytest.fixture
def pool_workers(monkeypatch, pools):
    """Run pooled stages (map's fits, simulate's frames) with a given number
    of processes, whatever this machine's CPU count.

    Returns a function that sets the count and returns the pools fixture.
    """
    def use(workers):
        monkeypatch.setattr(_pool, "worker_count", lambda n_tasks: min(workers, n_tasks))
        return pools

    return use


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance criterion verdicts after the test summary.

    The acceptance tests print one line each, but default output capture
    swallows prints from passing tests; this makes the verdicts visible
    without -s.
    """
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
