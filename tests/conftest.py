"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np
import oracles
import pytest

import repro.idspace.ring as ring_module
from repro.core.params import SystemParams
from repro.idspace.ring import Ring


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_ring(rng) -> Ring:
    return Ring(rng.random(64))


@pytest.fixture
def medium_ring() -> Ring:
    return Ring(np.random.default_rng(7).random(512))


@pytest.fixture
def params() -> SystemParams:
    return SystemParams(n=512, beta=0.05, seed=0)


@pytest.fixture(scope="session")
def oracle_loops():
    """Context manager: inside it every batched kernel runs as its
    reference loop from ``tests/oracles.py``.  Session-scoped, so
    hypothesis tests can use it too."""
    return oracles.swapped


@pytest.fixture(params=[1, 2, 3], ids=["1thread", "2threads", "3threads"])
def block_threads(request, monkeypatch):
    """Run the test's row-block maps on 1, 2 and 3 threads of a pool of
    its own.  The first bulk lookup that runs on the pool is held back
    10 ms, so the blocks after it finish first: a build that wrote its
    blocks in the order they finish would show."""
    monkeypatch.setattr(ring_module, "_THREADS", request.param)
    monkeypatch.setattr(ring_module, "_pool", None)
    bulk, pooled = Ring.successor_index_bulk, itertools.count()

    def held_back(self, points):
        if threading.current_thread() is not threading.main_thread() \
                and next(pooled) == 0:
            time.sleep(0.01)
        return bulk(self, points)

    monkeypatch.setattr(Ring, "successor_index_bulk", held_back)
    yield request.param
    if ring_module._pool is not None:
        ring_module._pool.shutdown()
