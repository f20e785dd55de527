"""Unit tests: the process-backend map (repro.sim.montecarlo.spawn_map).

The load-bearing contract is serial/process bit-parity: seeded items
mapped across the warm spawn pool come back element-for-element equal to
the in-process map at any worker count.  Trial functions live at module
level so they pickle under the ``spawn`` start method.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.sim import ExecutionConfig, make_rng, spawn, spawn_map


def double(x: float) -> float:
    return 2.0 * x


def bernoulli_trial(rng: np.random.Generator) -> float:
    return float(rng.random() < 0.3)


def multi_draw_trial(rng: np.random.Generator) -> float:
    # consumes a variable number of draws — the case child streams exist for
    k = int(rng.integers(1, 5))
    return float(rng.random(k).sum())


def _in_pool_worker() -> bool:
    # the serial fallback runs trials in the parent (MainProcess); only a
    # spawned pool child should die, or the fault would kill the test run
    return multiprocessing.current_process().name != "MainProcess"


def suicidal_trial(rng: np.random.Generator) -> float:
    """Dies mid-chunk when run inside a pool worker (SIGKILL semantics:
    no exception, no cleanup — exactly a crashed worker box)."""
    if _in_pool_worker():
        os._exit(137)
    return float(rng.random())


def crashing_trial(rng: np.random.Generator) -> float:
    """Raises mid-chunk inside a pool worker (a bug, not a kill)."""
    if _in_pool_worker():
        raise RuntimeError("worker exploded mid-chunk")
    return float(rng.random())


def big_block(seed: float) -> np.ndarray:
    """A 256 KiB float64 result: far more than one pipe buffer."""
    return np.random.default_rng(int(seed)).random(32_768)


def negate(arr: np.ndarray) -> np.ndarray:
    return -arr


def offset_sum(arr: np.ndarray, offset: int) -> float:
    return float(arr.sum()) + offset


#: result shapes a task may return; each is built deterministically by
#: ``result_of_kind`` so a worker and the parent construct equal values
RESULT_KINDS = (
    "empty", "zero-d", "strided", "fortran", "object", "bool", "int8",
    "uint64", "complex128", "float32", "structured", "nested",
)


def result_of_kind(kind: str):
    rng = np.random.default_rng(len(kind))
    if kind == "empty":
        return np.empty(0, dtype=np.float64)
    if kind == "zero-d":
        return np.array(3.25)
    if kind == "strided":
        return np.arange(4096, dtype=np.int64).reshape(64, 64)[::2, ::3]
    if kind == "fortran":
        return np.asfortranarray(rng.random((256, 128)))
    if kind == "object":
        return np.array([{"x": 1}, None, "s"], dtype=object)
    if kind == "bool":
        return rng.random(10_000) < 0.5
    if kind == "structured":
        out = np.zeros(512, dtype=[("node", np.int32), ("load", np.float64)])
        out["node"] = np.arange(512)
        out["load"] = rng.random(512)
        return out
    if kind == "nested":
        big = rng.random(16_384)
        small = np.arange(4, dtype=np.float64)
        return {"big": big, "small": small, "tag": "mixed",
                "more": [big * 2, (small + 1, "x")]}
    if kind == "complex128":
        return rng.random(2048) + 1j * rng.random(2048)
    return (rng.random(4096) * 100).astype(kind)


def assert_same(expected, actual) -> None:
    """Recursive equality that also pins array dtype, shape and layout."""
    assert type(actual) is type(expected)
    if isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype
        assert actual.shape == expected.shape
        assert actual.flags.f_contiguous == expected.flags.f_contiguous
        if expected.dtype == object:
            assert actual.tolist() == expected.tolist()
        else:
            assert np.array_equal(actual, expected)
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys()
        for key in expected:
            assert_same(expected[key], actual[key])
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected)
        for e, a in zip(expected, actual):
            assert_same(e, a)
    else:
        assert actual == expected


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.backend == "serial"
        assert cfg.resolved_workers() >= 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfig(backend="gpu")

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)


class TestSpawnMap:
    def test_preserves_order(self):
        assert spawn_map(double, [1.0, 2.0, 3.0], workers=2) == [2.0, 4.0, 6.0]

    def test_generator_input(self):
        """Regression: one-shot iterables must not be re-iterated after
        being materialized (the pool previously saw an exhausted generator
        and silently returned [])."""
        out = spawn_map(double, (float(x) for x in range(4)), workers=2)
        assert out == [0.0, 2.0, 4.0, 6.0]

    def test_single_worker_serial(self):
        assert spawn_map(double, [5.0], workers=4) == [10.0]

    def test_empty(self):
        assert spawn_map(double, [], workers=4) == []

    def test_multiple_iterables_zip_like_map(self):
        assert spawn_map(pow, [2, 3, 4], [3, 2, 1], workers=2) == [8, 9, 4]

    def test_unequal_iterables_truncate_like_map(self):
        out = spawn_map(pow, [2, 3, 4, 5], [1, 2], workers=2)
        assert out == list(map(pow, [2, 3, 4, 5], [1, 2])) == [2, 9]


class TestSerialProcessParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_values(self, workers):
        serial = [bernoulli_trial(rng) for rng in spawn(make_rng(7), 24)]
        par = spawn_map(bernoulli_trial, spawn(make_rng(7), 24), workers=workers)
        assert par == serial

    def test_parity_with_variable_draw_trials(self):
        serial = [multi_draw_trial(rng) for rng in spawn(make_rng(11), 16)]
        par = spawn_map(multi_draw_trial, spawn(make_rng(11), 16), workers=2)
        assert par == serial

    def test_large_array_results_cross_the_pipe_intact(self):
        seeds = [0.0, 1.0, 2.0, 3.0]
        serial = [big_block(s) for s in seeds]
        par = spawn_map(big_block, seeds, workers=2)
        assert len(par) == 4
        for a, b in zip(serial, par):
            assert b.dtype == a.dtype == np.float64
            assert np.array_equal(a, b)

    def test_large_array_inputs_cross_the_pipe_intact(self):
        blocks = [big_block(s) for s in (4.0, 5.0, 6.0, 7.0)]
        par = spawn_map(negate, blocks, workers=2)
        for block, out in zip(blocks, par):
            assert_same(-block, out)

    def test_one_input_array_shared_by_every_task(self):
        shared = big_block(8.0)
        offsets = range(5)
        serial = [offset_sum(shared, i) for i in offsets]
        assert spawn_map(offset_sum, [shared] * 5, offsets, workers=2) == serial

    @pytest.mark.parametrize("kind", RESULT_KINDS)
    def test_result_kind_crosses_the_pipe_intact(self, kind):
        expected = result_of_kind(kind)
        par = spawn_map(result_of_kind, [kind, kind], workers=2)
        for out in par:
            assert_same(expected, out)


class TestFaultInjection:
    """A pool worker dying mid-chunk must never produce a silent partial
    result: either the serial fallback reproduces the full serial table,
    or the failure surfaces as a clear error."""

    def test_worker_killed_mid_chunk_reproduces_serial_result(self):
        from repro.telemetry import TelemetryBuffer, set_default_writer

        serial = [suicidal_trial(rng) for rng in spawn(make_rng(3), 12)]
        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            with pytest.warns(RuntimeWarning, match="process pool broke"):
                par = spawn_map(suicidal_trial, spawn(make_rng(3), 12),
                                workers=2)
        finally:
            set_default_writer(previous)
        # the broken pool degraded to the serial path and recomputed
        # every item: bit-identical, nothing partial
        assert par == serial
        (broken,) = buf.of_type("pool.broken")
        assert broken["workers"] == 2

    def test_worker_killed_in_spawn_map_falls_back_whole(self):
        with pytest.warns(RuntimeWarning, match="process pool broke"):
            out = spawn_map(suicidal_trial, [make_rng(i) for i in range(4)],
                            workers=2)
        assert len(out) == 4  # every item recomputed in the parent

    def test_worker_exception_is_a_clear_error_not_a_partial_table(self):
        with pytest.raises(RuntimeError, match="exploded mid-chunk"):
            spawn_map(crashing_trial, spawn(make_rng(3), 12), workers=2)


class TestWarmPool:
    """The process-wide warm pool: spawn once, reuse everywhere, resize
    only when a caller genuinely needs more workers."""

    def test_reuse_and_resize(self):
        from repro.sim.pool import get_pool, pool_stats, shutdown_pool

        shutdown_pool()
        before = pool_stats()
        first = get_pool(2)
        assert get_pool(2) is first        # same request: reuse
        assert get_pool(1) is first        # smaller request: reuse
        after = pool_stats()
        assert after["spawned"] == before["spawned"] + 1
        assert after["reused"] == before["reused"] + 2
        bigger = get_pool(3)               # needs more workers: respawn
        assert bigger is not first
        final = pool_stats()
        assert final["spawned"] == after["spawned"] + 1
        assert final["discarded"] >= after["discarded"] + 1
        shutdown_pool()

    def test_nonpositive_request_gets_one_worker(self):
        from repro.sim.pool import get_pool, shutdown_pool
        from repro.telemetry import TelemetryBuffer, set_default_writer

        shutdown_pool()
        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            pool = get_pool(0)
            assert get_pool(-3) is pool
        finally:
            set_default_writer(previous)
            shutdown_pool()
        (spawn,) = buf.of_type("pool.spawn")
        assert spawn["workers"] == 1
        (reuse,) = buf.of_type("pool.reuse")
        assert reuse["workers"] == 1 and reuse["requested"] == 1

    def test_discard_forces_a_fresh_pool(self):
        from repro.sim.pool import (
            discard_pool, get_pool, pool_stats, shutdown_pool,
        )

        shutdown_pool()
        first = get_pool(2)
        before = pool_stats()
        discard_pool()
        assert pool_stats()["discarded"] == before["discarded"] + 1
        second = get_pool(2)
        assert second is not first
        assert pool_stats()["spawned"] == before["spawned"] + 1
        assert spawn_map(double, [1.0, 2.0], workers=2) == [2.0, 4.0]
        shutdown_pool()

    def test_discard_without_a_pool_is_a_noop(self):
        from repro.sim.pool import discard_pool, pool_stats, shutdown_pool

        shutdown_pool()
        before = pool_stats()
        discard_pool()
        assert pool_stats() == before

    def test_shutdown_idempotent(self):
        from repro.sim.pool import pool_stats, shutdown_pool

        shutdown_pool()
        before = pool_stats()
        shutdown_pool()                    # nothing to discard: no-op
        assert pool_stats() == before

    def test_spawn_map_reuses_the_warm_pool(self):
        from repro.sim.pool import pool_stats, shutdown_pool

        shutdown_pool()
        before = pool_stats()
        assert spawn_map(double, [1.0, 2.0, 3.0, 4.0], workers=2) == \
            [2.0, 4.0, 6.0, 8.0]
        assert spawn_map(double, [5.0, 6.0], workers=2) == [10.0, 12.0]
        after = pool_stats()
        assert after["spawned"] == before["spawned"] + 1
        assert after["reused"] >= before["reused"] + 1

    def test_spawn_and_reuse_emit_telemetry(self):
        from repro.sim.pool import get_pool, shutdown_pool
        from repro.telemetry import TelemetryBuffer, set_default_writer

        shutdown_pool()
        buf = TelemetryBuffer()
        previous = set_default_writer(buf)
        try:
            get_pool(2)
            get_pool(2)
        finally:
            set_default_writer(previous)
        (spawn,) = buf.of_type("pool.spawn")
        assert spawn["workers"] == 2 and spawn["mp_method"] == "spawn"
        (reuse,) = buf.of_type("pool.reuse")
        assert reuse["workers"] == 2 and reuse["requested"] == 2
