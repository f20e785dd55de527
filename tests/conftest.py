"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import oracles
import pytest

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
