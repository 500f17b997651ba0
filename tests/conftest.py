"""Fixtures shared by the test modules."""

from __future__ import annotations

import concurrent.futures

import pytest


class PoolSpy:
    """Stands in for ``ThreadPoolExecutor`` and records the ``max_workers``
    of every pool the forward simulation builds; its pools run on real
    threads."""

    def __init__(self, pool):
        self.workers = []
        self._pool = pool

    def __call__(self, max_workers):
        self.workers.append(max_workers)
        return self._pool(max_workers=max_workers)


@pytest.fixture
def thread_pools(monkeypatch):
    """A :class:`PoolSpy` in place of ``ThreadPoolExecutor``, so that a test
    can assert that its simulations split into thread chunks."""
    pools = PoolSpy(concurrent.futures.ThreadPoolExecutor)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pools)
    return pools
