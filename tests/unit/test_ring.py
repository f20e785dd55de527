"""Unit tests: unit-ring ID space (repro.idspace.ring)."""

import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
import repro.idspace.ring as ring_module
from repro.idspace.ring import (
    Ring,
    cw_dist,
    cw_dist_many,
    estimate_ln_ln_n,
    estimate_ln_n,
    in_cw_interval,
    map_blocks,
    row_blocks,
)


class TestCwDist:
    def test_zero_for_same_point(self):
        assert cw_dist(0.3, 0.3) == 0.0

    def test_simple_forward(self):
        assert cw_dist(0.2, 0.5) == pytest.approx(0.3)

    def test_wraps_through_one(self):
        assert cw_dist(0.9, 0.1) == pytest.approx(0.2)

    def test_complementary(self):
        a, b = 0.13, 0.77
        assert cw_dist(a, b) + cw_dist(b, a) == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self):
        a = np.array([0.1, 0.9, 0.5])
        b = np.array([0.2, 0.1, 0.5])
        out = cw_dist_many(a, b)
        for i in range(3):
            assert out[i] == pytest.approx(cw_dist(a[i], b[i]))

    def test_broadcasting(self):
        out = cw_dist_many(0.5, np.array([0.6, 0.4]))
        assert out[0] == pytest.approx(0.1)
        assert out[1] == pytest.approx(0.9)


class TestInCwInterval:
    def test_inside_plain(self):
        assert in_cw_interval(0.3, 0.2, 0.5)

    def test_start_excluded(self):
        assert not in_cw_interval(0.2, 0.2, 0.5)

    def test_end_included(self):
        assert in_cw_interval(0.5, 0.2, 0.5)

    def test_wrap(self):
        assert in_cw_interval(0.05, 0.9, 0.1)
        assert not in_cw_interval(0.5, 0.9, 0.1)

    def test_empty_interval(self):
        assert not in_cw_interval(0.3, 0.4, 0.4)


class TestRing:
    def test_requires_ids(self):
        with pytest.raises(ValueError):
            Ring([])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Ring([0.5, 1.0])
        with pytest.raises(ValueError):
            Ring([-0.1, 0.5])

    @pytest.mark.parametrize("ids", [[float("nan")], [0.1, float("nan"), 0.5]])
    def test_rejects_nan(self, ids):
        with pytest.raises(ValueError):
            Ring(ids)

    def test_dedupes(self):
        r = Ring([0.5, 0.5, 0.25])
        assert r.n == 2

    def test_sorted(self):
        r = Ring([0.9, 0.1, 0.5])
        assert list(r.ids) == [0.1, 0.5, 0.9]

    def test_successor_basic(self):
        r = Ring([0.1, 0.5, 0.9])
        assert r.successor(0.2) == 0.5
        assert r.successor(0.05) == 0.1

    def test_successor_wraps(self):
        r = Ring([0.1, 0.5, 0.9])
        assert r.successor(0.95) == 0.1

    def test_id_is_own_successor(self):
        r = Ring([0.1, 0.5, 0.9])
        assert r.successor(0.5) == 0.5

    def test_successor_many_matches_scalar(self, small_ring):
        pts = np.linspace(0, 0.999, 37)
        many = small_ring.successor_index_many(pts)
        for p, idx in zip(pts, many):
            assert idx == small_ring.successor_index(float(p))

    def test_predecessor_index(self):
        r = Ring([0.1, 0.5, 0.9])
        assert r.predecessor_index(0.2) == 0   # first ID ccw of 0.2 is 0.1
        assert r.predecessor_index(0.05) == 2  # wraps to 0.9

    def test_pred_succ_of_index_roundtrip(self, small_ring):
        for i in (0, 5, small_ring.n - 1):
            assert small_ring.predecessor_index_of(small_ring.successor_index_of(i)) == i

    def test_arc_lengths_sum_to_one(self, small_ring):
        assert small_ring.arc_lengths().sum() == pytest.approx(1.0)

    def test_arc_lengths_positive(self, small_ring):
        assert (small_ring.arc_lengths() > 0).all()

    def test_responsible_fraction_all(self, small_ring):
        mask = np.ones(small_ring.n, dtype=bool)
        assert small_ring.responsible_fraction(mask) == pytest.approx(1.0)

    def test_index_of_and_contains(self):
        r = Ring([0.1, 0.5, 0.9])
        assert r.index_of(0.5) == 1
        assert r.contains(0.9)
        assert not r.contains(0.2)
        with pytest.raises(KeyError):
            r.index_of(0.2)

    def test_len(self, small_ring):
        assert len(small_ring) == small_ring.n

    def test_ids_are_read_only(self, small_ring):
        with pytest.raises(ValueError):
            small_ring.ids[0] = 0.0


class TestSuccessorBulk:
    """The LUT-accelerated bulk path must equal the binary search exactly."""

    def test_small_batch_delegates(self, small_ring):
        pts = np.random.default_rng(0).random(64)
        assert np.array_equal(
            small_ring.successor_index_bulk(pts),
            small_ring.successor_index_many(pts),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_batch_matches_binary_search(self, seed):
        rng = np.random.default_rng(seed)
        ring = Ring(rng.random(2048))
        pts = rng.random(50_000)
        assert np.array_equal(
            ring.successor_index_bulk(pts), ring.successor_index_many(pts)
        )

    def test_adversarially_clustered_ring(self):
        # all IDs inside one LUT bucket: forces the advance loop into its
        # binary-search fallback, which must stay exact
        rng = np.random.default_rng(7)
        ids = 0.5 + 1e-7 * np.sort(rng.random(512))
        ring = Ring(ids)
        pts = np.concatenate([
            rng.random(30_000),
            0.5 + 1e-7 * rng.random(30_000),  # hammer the crowded bucket
        ])
        assert np.array_equal(
            ring.successor_index_bulk(pts), ring.successor_index_many(pts)
        )

    def test_boundary_points(self):
        ring = Ring(np.random.default_rng(3).random(1024))
        eps = float(np.nextafter(1.0, 0.0))
        pts = np.concatenate([
            np.zeros(2048),                      # 0.0 -> first ID
            np.full(2048, eps),                  # just under 1 -> wraps to 0
            np.repeat(ring.ids[:512], 4),        # exact IDs are own successors
        ])
        assert np.array_equal(
            ring.successor_index_bulk(pts), ring.successor_index_many(pts)
        )

    def test_wraps_past_last_id(self):
        ring = Ring(np.linspace(0.1, 0.6, 2048))
        pts = np.full(10_000, 0.9)  # clockwise past every ID: successor is 0
        assert (ring.successor_index_bulk(pts) == 0).all()

    def test_id_one_ulp_below_a_bucket_edge(self):
        # with 4n = 12 buckets, fl(x * 12) rounds up to bucket 5, whose
        # first ID (0.5) lies past x; a power-of-two bucket count is exact
        x = float(np.nextafter(5 / 12, 0))
        ring = Ring([1 / 6, 0.5, x])
        assert ring.successor_index(x) == 1
        assert (ring.successor_index_bulk(np.full(4096, x)) == 1).all()

    @pytest.mark.parametrize("n", range(3, 41))
    def test_ids_at_and_below_bucket_edges(self, n):
        # IDs on, and one ulp below, the edges b/K of both 4n buckets and
        # the power-of-two count; each queried on, just below and just above
        edges = []
        for K in (4 * n, 1 << ((4 * n).bit_length() - 1)):
            e = np.arange(1, K) / K
            edges += [e, np.nextafter(e, 0)]
        edges = np.unique(np.concatenate(edges))
        for seed in range(4):
            ring = Ring(np.random.default_rng(seed).choice(edges, n, replace=False))
            ids = ring.ids
            pts = np.concatenate(
                [ids, np.nextafter(ids, 0), np.nextafter(ids, 1)]
            )
            pts = np.resize(pts, Ring._BULK_THRESHOLD)  # take the LUT path
            assert np.array_equal(
                ring.successor_index_bulk(pts), ring.successor_index_many(pts)
            )

    @pytest.mark.parametrize("n", [3, 1000, 4096])
    def test_lut_counts_ids_per_bucket(self, n):
        # K is the largest power of two <= 4n, and each slot the first ID
        # at or past its bucket edge
        ring = Ring(np.random.default_rng(n).random(n))
        lut, _ = ring._bulk_tables()
        K = lut.size - 1
        assert K & (K - 1) == 0 and 2 * n < K <= 4 * n
        assert lut.dtype == ring.index_dtype
        assert np.array_equal(
            lut, np.searchsorted(ring.ids, np.arange(K + 1) / K, side="left")
        )

    def test_threads_on_a_fresh_ring_build_the_lut_once(self, monkeypatch):
        # more threads than cores, switching often, all released together
        # on a ring whose LUT is not built yet
        built, build = [], Ring._build_lut

        def slow_build(self):
            built.append(threading.current_thread())
            time.sleep(0.05)  # every thread gets past the unlocked check
            return build(self)

        monkeypatch.setattr(Ring, "_build_lut", slow_build)
        ring = Ring(np.random.default_rng(9).random(4096))
        pts = np.random.default_rng(10).random(50_000)
        k = (os.cpu_count() or 1) + 2
        barrier, out = threading.Barrier(k, timeout=60), [None] * k

        def lookup(i):
            barrier.wait()
            out[i] = ring.successor_index_bulk(pts)

        threads = [threading.Thread(target=lookup, args=(i,)) for i in range(k)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 1
        expect = ring.successor_index_many(pts)
        assert all(np.array_equal(o, expect) for o in out)
        lut, ids_ext = ring._bulk_tables()
        assert not lut.flags.writeable and not ids_ext.flags.writeable


@pytest.mark.usefixtures("block_threads")
class TestRowBlocks:
    @pytest.mark.parametrize("rows", [0, 1, 5, 6, 7, 20])
    @pytest.mark.parametrize("width", [0, 1, 3, 17, 40])
    def test_blocks_tile_the_rows(self, monkeypatch, block_threads, rows,
                                  width):
        monkeypatch.setattr(ring_module, "_BLOCK_POINTS", 18)
        blocks = list(row_blocks(rows, width))
        # consecutive, covering every row once
        bounds = [0] + [b.stop for b in blocks]
        assert [b.start for b in blocks] == bounds[:-1]
        assert bounds[-1] == rows
        sizes = [b.stop - b.start for b in blocks]
        assert all(s == sizes[0] for s in sizes[:-1])
        assert all(s >= sizes[-1] for s in sizes)
        # rows that fit one block are one block; beyond that, the blocks a
        # map holds at once share it: as many rows as fit a share (at
        # least one row), the last may be short
        one = max(1, 18 // max(1, width))
        assert (len(blocks) <= 1) == (rows <= one)
        share = 18 if len(blocks) <= 1 or block_threads == 1 \
            else 18 // (2 * block_threads)
        assert all(0 < s and (s == 1 or s * width <= share) for s in sizes)
        if width:
            assert all((s + 1) * width > share for s in sizes[:-1])

    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 40])
    def test_drawn_blocks_equal_one_draw(self, monkeypatch, rows):
        # blocks drawn as the map pulls them, each turned into a frozen
        # float32 block: the same values, in order, and the same next draw
        # as one draw of the whole array
        monkeypatch.setattr(ring_module, "_BLOCK_POINTS", 18)
        r1, r2 = np.random.default_rng(4), np.random.default_rng(4)
        blocks = (r1.random((b.stop - b.start, 3)) for b in row_blocks(rows, 3))
        pooled = itertools.count()

        def freeze(pts):
            if threading.current_thread() is not threading.main_thread() \
                    and next(pooled) == 0:
                time.sleep(0.01)  # later blocks finish first
            out = pts.astype(np.float32)
            out.setflags(write=False)
            return out

        out = list(map_blocks(freeze, blocks))
        assert all(b.dtype == np.float32 and not b.flags.writeable for b in out)
        whole = np.concatenate(out) if out else np.empty((0, 3), np.float32)
        assert np.array_equal(whole, r2.random((rows, 3)).astype(np.float32))
        assert r1.random() == r2.random()


@pytest.mark.usefixtures("block_threads")
@pytest.mark.parametrize("block_threads", [2], indirect=True)
class TestMapBlocks:
    def test_results_keep_input_order_when_later_blocks_finish_first(self):
        finished = []

        def slow_first(i):
            time.sleep(0.05 if i == 1 else 0.0)  # item 0 runs inline
            finished.append(i)
            return i * i

        assert list(map_blocks(slow_first, range(8))) == [
            i * i for i in range(8)
        ]
        assert finished.index(1) > finished.index(2)

    def test_input_never_pulled_past_the_in_flight_bound(self):
        bound, pulled, ahead, pullers = 4, [0], [], set()

        def items():
            for i in range(40):
                pullers.add(threading.current_thread())
                pulled[0] += 1
                yield i

        for done, _ in enumerate(map_blocks(lambda i: i, items()), 1):
            ahead.append(pulled[0] - done)
        assert max(ahead) == bound - 1  # ran ahead, but never past it
        assert pullers == {threading.main_thread()}

    def test_error_reaches_caller_and_pending_blocks_are_cancelled(self):
        started, running = [], [0]
        lock = threading.Lock()

        def fail_on_one(i):
            with lock:
                started.append(i)
                running[0] += 1
            try:
                if i == 1:
                    raise ValueError("block 1")
                time.sleep(0.02)
                return i
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(ValueError, match="block 1"):
            list(map_blocks(fail_on_one, range(40)))
        assert running[0] == 0  # nothing of that map still runs
        assert max(started) < 5  # blocks past the bound never started
        # a caller that stops early leaves nothing running either
        it = map_blocks(fail_on_one, range(2, 40))
        next(it), next(it)  # the second comes from the pool
        it.close()
        assert running[0] == 0
        # and the next map still works
        assert list(map_blocks(lambda i: -i, range(10))) == [
            -i for i in range(10)
        ]

    @pytest.mark.parametrize("count", [0, 1])
    def test_zero_or_one_block_runs_inline_without_a_pool(self, count):
        threads = []

        def where(i):
            threads.append(threading.current_thread())
            return i

        assert list(map_blocks(where, range(count))) == list(range(count))
        assert threads == [threading.main_thread()] * count
        assert ring_module._pool is None

    def test_one_usable_cpu_runs_every_block_inline(self, monkeypatch):
        monkeypatch.setattr(ring_module, "_THREADS", 1)
        threads = set()
        list(map_blocks(lambda i: threads.add(threading.current_thread()),
                        range(20)))
        assert threads == {threading.main_thread()}
        assert ring_module._pool is None

    def test_epoch_step_at_4096_starts_no_thread(self):
        from repro.serve import ServeConfig, make_simulator

        sim = make_simulator(ServeConfig(n=4096, churn_rate=0.05, probes=50,
                                         seed=1))
        before = threading.active_count()
        sim.step()
        assert threading.active_count() == before
        assert ring_module._pool is None

    def test_import_leaves_concurrent_futures_out(self):
        code = ("import sys, repro.core.groups, repro.inputgraph; "
                "print('concurrent.futures' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    # forking with threads alive is what this test is about
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_child_gets_a_pool_of_its_own(self):
        list(map_blocks(lambda i: i, range(10)))  # the parent's pool exists
        child = multiprocessing.get_context("fork").Process(
            target=_map_in_child)
        child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0


def _map_in_child():
    # the parent's pool threads do not exist here: mapping on its pool
    # would wait forever
    sys.exit(0 if list(map_blocks(lambda i: i, range(10))) == list(range(10))
             else 1)


class TestLnEstimation:
    def test_estimate_ln_n_order_of_magnitude(self):
        for n in (128, 1024, 8192):
            ids = np.random.default_rng(n).random(n)
            est = estimate_ln_n(ids)
            true = np.log(n)
            # constant-factor estimate (paper footnote 15)
            assert 0.5 * true <= est <= 2.5 * true

    def test_estimate_robust_to_omission(self):
        # adversary omitting IDs only widens gaps: estimate shifts O(1)
        rng = np.random.default_rng(3)
        ids = rng.random(4096)
        full = estimate_ln_n(ids)
        kept = ids[(ids < 0.25) | (ids > 0.5)]  # omit a quarter of the ring
        part = estimate_ln_n(kept)
        assert abs(full - part) < 2.0

    def test_estimate_ln_ln_n(self):
        ids = np.random.default_rng(9).random(4096)
        est = estimate_ln_ln_n(ids)
        assert 0.5 * np.log(np.log(4096)) <= est <= 2.5 * np.log(np.log(4096))
