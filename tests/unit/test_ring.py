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

    def test_arc_lengths_sum_to_one(self, small_ring):
        assert small_ring.arc_lengths().sum() == pytest.approx(1.0)

    def test_arc_lengths_positive(self, small_ring):
        assert (small_ring.arc_lengths() > 0).all()

    def test_len(self, small_ring):
        assert len(small_ring) == small_ring.n

    def test_ids_are_read_only(self, small_ring):
        with pytest.raises(ValueError):
            small_ring.ids[0] = 0.0


def _assert_bulk_exact(ring, pts):
    bulk = ring.successor_index_bulk(pts)
    assert bulk.dtype == ring.index_dtype
    assert np.array_equal(bulk, ring.successor_index_many(pts))


class TestSuccessorBulk:
    """The LUT-accelerated bulk path must equal the binary search exactly."""

    def test_small_batch_delegates(self, small_ring):
        pts = np.random.default_rng(0).random(64)
        assert np.array_equal(
            small_ring.successor_index_bulk(pts),
            small_ring.successor_index_many(pts),
        )

    @pytest.mark.parametrize("index_dtype", ["auto", "int64"])
    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("built", [False, True])
    @pytest.mark.parametrize("size", [1, 255, 256, 4095, 4096])
    def test_every_batch_size_is_exact(self, monkeypatch, size, built,
                                       clustered, index_dtype):
        # a built LUT serves every batch of _LUT_MIN points or more; an
        # unbuilt one is built only by a batch of _BULK_THRESHOLD points,
        # so a smaller batch on a fresh ring leaves it unbuilt
        rng = np.random.default_rng(size)
        u = rng.random(1000)
        ring = Ring(0.3 + 1e-9 * u if clustered else u,
                    index_dtype=index_dtype)
        if built:
            ring._bulk_tables()
        pts = rng.random(size)
        if clustered:  # half the points inside the cluster
            pts[::2] = 0.3 + 1e-9 * rng.random(pts[::2].size)
        expect = ring.successor_index_many(pts)
        searched, search = [], Ring.successor_index_many
        monkeypatch.setattr(
            Ring, "successor_index_many",
            lambda self, p: searched.append(p) or search(self, p))
        bulk = ring.successor_index_bulk(pts)
        assert bulk.dtype == ring.index_dtype
        assert np.array_equal(bulk, expect)
        lut_path = size >= (Ring._LUT_MIN if built else Ring._BULK_THRESHOLD)
        assert len(searched) == (not lut_path)
        assert (ring._succ_lut is None) == (not built and not lut_path)

    @pytest.mark.parametrize("index_dtype", ["auto", "int64"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_batch_matches_binary_search(self, seed, index_dtype):
        rng = np.random.default_rng(seed)
        ring = Ring(rng.random(2048), index_dtype=index_dtype)
        pts = rng.random(50_000)
        _assert_bulk_exact(ring, pts)

    @pytest.mark.parametrize("index_dtype", ["auto", "int64"])
    def test_adversarially_clustered_ring(self, index_dtype):
        # all IDs inside one LUT bucket: forces the advance loop into its
        # binary-search fallback, which must stay exact
        rng = np.random.default_rng(7)
        ids = 0.5 + 1e-7 * np.sort(rng.random(512))
        ring = Ring(ids, index_dtype=index_dtype)
        pts = np.concatenate([
            rng.random(30_000),
            0.5 + 1e-7 * rng.random(30_000),  # hammer the crowded bucket
        ])
        _assert_bulk_exact(ring, pts)

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

    @pytest.mark.parametrize("index_dtype", ["auto", "int64"])
    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("n", range(3, 41))
    def test_ids_at_and_below_bucket_edges(self, n, clustered, index_dtype):
        # IDs on, and one ulp below, the edges b/K of both 4n buckets and
        # the power-of-two count; each queried on, just below and just
        # above.  The clustered ring adds the 40 floats below 0.5, an edge
        # of every power-of-two count: their bucket is marked, and a query
        # at its top is more than 32 IDs past the bucket's first one, so
        # the binary-search fallback resolves it
        edges = []
        for K in (4 * n, 1 << ((4 * n).bit_length() - 1)):
            e = np.arange(1, K) / K
            edges += [e, np.nextafter(e, 0)]
        edges = np.unique(np.concatenate(edges))
        # floats below 0.5 are 2^-54 apart
        crowd = 0.5 - 2.0**-54 * np.arange(1, 41 if clustered else 1)
        for seed in range(4):
            ids = np.random.default_rng(seed).choice(edges, n, replace=False)
            ring = Ring(np.union1d(ids, crowd), index_dtype=index_dtype)
            ids = ring.ids
            pts = np.concatenate(
                [ids, np.nextafter(ids, 0), np.nextafter(ids, 1)]
            )
            pts = np.resize(pts, Ring._BULK_THRESHOLD)  # take the LUT path
            _assert_bulk_exact(ring, pts)

    @pytest.mark.parametrize("index_dtype", ["auto", "int64"])
    @pytest.mark.parametrize("last", [1, 2, 3])
    @pytest.mark.parametrize("per_bucket", [2, 3])
    def test_two_id_check(self, per_bucket, last, index_dtype):
        # K = 256 buckets: 40 buckets below the last hold exactly
        # per_bucket IDs each (half of them one on the bucket's edge), and
        # the ring's last marked bucket, K - 1, holds `last`.  A point is
        # decided by its bucket's first ID and the one after it; on the
        # third ID or past it, it advances.  Past the ring's last ID the
        # check reads the inf sentinel at n, and the point wraps to 0
        K = 256
        rng = np.random.default_rng(10 * per_bucket + last)
        held = np.append(np.sort(rng.choice(K - 1, 40, replace=False)), K - 1)
        counts = np.full(held.size, per_bucket)
        counts[-1] = last
        offsets = [np.sort(rng.random(c)) for c in counts]
        for off in offsets[::2]:
            off[0] = 0.0
        ids = (np.repeat(held, counts) + np.concatenate(offsets)) / K
        ring = Ring(ids, index_dtype=index_dtype)
        lut, _ = ring._bulk_tables()
        assert lut.size - 1 == K and ring.n == ids.size
        per = np.bincount((ring.ids * K).astype(np.int64), minlength=K)
        assert np.array_equal(per[held], counts)
        tail = np.array([np.nextafter(ring.ids[-1], 1),
                         (ring.ids[-1] + 1.0) / 2, np.nextafter(1.0, 0), 1.0])
        edges = held / K
        pts = np.concatenate([ring.ids, np.nextafter(ring.ids, 0),
                              np.nextafter(ring.ids, 1), edges,
                              np.nextafter(edges, 0), tail])
        assert pts.size >= Ring._LUT_MIN  # the built LUT serves it
        _assert_bulk_exact(ring, pts)
        assert (ring.successor_index_bulk(np.resize(tail, Ring._LUT_MIN))
                == 0).all()

    @pytest.mark.parametrize("index_dtype", ["auto", "int64"])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 4096])
    def test_lut_counts_ids_per_bucket(self, n, index_dtype):
        # K is the largest power of two <= 4n; each slot, decoded, is the
        # first ID at or past its bucket edge, and the sign marks exactly
        # the buckets that hold an ID
        ring = Ring(np.random.default_rng(n).random(n), index_dtype=index_dtype)
        lut, _ = ring._bulk_tables()
        K = lut.size - 1
        assert K & (K - 1) == 0 and 2 * n < K <= 4 * n
        assert lut.dtype == ring.index_dtype
        first = np.searchsorted(ring.ids, np.arange(K + 1) / K, side="left")
        assert np.array_equal(np.where(lut < 0, ~lut, lut), first)
        holds = np.zeros(K + 1, dtype=bool)
        holds[:K] = first[1:] > first[:-1]
        assert np.array_equal(lut < 0, holds)

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
        # rows that fit one block are one block; beyond that, the threads
        # share it: as many rows as fit a share (at least one row), the
        # last may be short
        one = max(1, 18 // max(1, width))
        assert (len(blocks) <= 1) == (rows <= one)
        share = 18 if len(blocks) <= 1 or block_threads == 1 \
            else 18 // block_threads
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
