"""Unit tests: input-graph topologies and P1-P4 (repro.inputgraph)."""

import numpy as np
import pytest

import repro.idspace.ring as ring_module
from repro.idspace.ring import Ring
from repro.inputgraph import (
    PADDING,
    TOPOLOGIES,
    make_input_graph,
    validate_properties,
)
from repro.inputgraph.chord import _SLACK, ChordGraph

ALL = sorted(TOPOLOGIES)


@pytest.fixture(scope="module")
def rings():
    rng = np.random.default_rng(42)
    return {n: Ring(rng.random(n)) for n in (64, 256)}


@pytest.fixture(scope="module")
def graphs(rings):
    return {
        (name, n): make_input_graph(name, ring)
        for name in ALL
        for n, ring in rings.items()
    }


@pytest.mark.parametrize("name", ALL)
class TestRoutingCorrectness:
    def test_routes_resolve(self, graphs, name):
        g = graphs[(name, 256)]
        rng = np.random.default_rng(1)
        batch = g.random_route_batch(500, rng)
        assert batch.resolved.all(), f"{name}: unresolved searches"

    def test_path_starts_at_source(self, graphs, name):
        g = graphs[(name, 256)]
        rng = np.random.default_rng(2)
        src = rng.integers(0, g.n, size=50)
        tgt = rng.random(50)
        batch = g.route_many(src, tgt)
        assert (batch.paths[:, 0] == src).all()

    def test_path_ends_at_responsible(self, graphs, name):
        g = graphs[(name, 256)]
        rng = np.random.default_rng(3)
        src = rng.integers(0, g.n, size=50)
        tgt = rng.random(50)
        batch = g.route_many(src, tgt)
        for i in range(50):
            path = batch.paths[i]
            last = path[path != PADDING][-1]
            assert last == batch.responsible[i]

    def test_responsible_is_successor(self, graphs, name):
        g = graphs[(name, 256)]
        pts = np.linspace(0.01, 0.99, 17)
        batch = g.route_many(np.zeros(17, dtype=int), pts)
        expect = g.ring.successor_index_many(pts)
        assert (batch.responsible == expect).all()

    def test_self_search(self, graphs, name):
        """Searching for a point you own terminates immediately-ish."""
        g = graphs[(name, 64)]
        own = float(g.ring.ids[5])
        path, ok = g.route(5, own)
        assert ok
        assert path[-1] == 5

    def test_empty_batch(self, graphs, name):
        g = graphs[(name, 64)]
        batch = g.route_many(np.empty(0, dtype=np.int64), np.empty(0))
        assert batch.paths.shape[0] == 0
        assert batch.resolved.size == 0 and batch.responsible.size == 0
        fail, hops = g.search_fail(
            np.empty(0, dtype=np.int64), np.empty(0), np.ones(g.n, dtype=bool)
        )
        assert fail.size == 0 and hops == 0

    def test_hop_counts_logarithmic(self, graphs, name):
        g = graphs[(name, 256)]
        rng = np.random.default_rng(4)
        batch = g.random_route_batch(400, rng)
        assert batch.hop_counts.max() <= 4 * np.log2(256) + 8


@pytest.mark.parametrize("name", ALL)
class TestTopology:
    def test_neighbors_sorted_unique_no_self(self, graphs, name):
        g = graphs[(name, 256)]
        for i in range(0, 256, 37):
            nb = g.neighbors(i)
            assert (np.diff(nb) > 0).all()
            assert i not in nb

    def test_verify_link_accepts_real_neighbors(self, graphs, name):
        g = graphs[(name, 64)]
        for i in range(0, 64, 11):
            for u in g.neighbors(i)[:3]:
                assert g.verify_link(i, int(u))

    def test_verify_link_rejects_non_neighbors(self, graphs, name):
        g = graphs[(name, 256)]
        rng = np.random.default_rng(5)
        rejected = 0
        for _ in range(50):
            w = int(rng.integers(256))
            u = int(rng.integers(256))
            if u != w and not g.verify_link(w, u):
                rejected += 1
        assert rejected > 10  # random pairs are mostly non-neighbors

    def test_degrees_positive(self, graphs, name):
        g = graphs[(name, 256)]
        assert (g.degrees() >= 2).all()  # at least ring succ+pred

    def test_csr_consistency(self, graphs, name):
        g = graphs[(name, 256)]
        indptr, indices = g.neighbor_lists()
        assert indptr[0] == 0
        assert indptr[-1] == indices.size
        assert (indices >= 0).all() and (indices < g.n).all()

    def test_in_neighbor_counts(self, graphs, name):
        g = graphs[(name, 256)]
        cnt = g.in_neighbors_count()
        assert cnt.sum() == g.neighbor_lists()[1].size


@pytest.mark.parametrize("name", ALL)
def test_properties_p1_p4(graphs, name):
    g = graphs[(name, 256)]
    rep = validate_properties(g, probes=4000, rng=np.random.default_rng(6))
    assert rep.ok(), f"{name}: {rep.satisfied}"
    assert len(rep.rows()) == 4


class TestChordSpecifics:
    def test_finger_table_shape(self, rings):
        g = make_input_graph("chord", rings[256])
        ft = g.finger_table()
        assert ft.shape == (256, g.finger_count + 2)

    def test_fingers_are_successors_of_offsets(self, rings):
        g = make_input_graph("chord", rings[64])
        ring = g.ring
        for j in range(g.finger_count):
            pt = (ring.ids[10] + 2.0 ** -(j + 1)) % 1.0
            assert g.finger_table()[10, j] == ring.successor_index(pt)

    def test_log_degree(self, rings):
        g = make_input_graph("chord", rings[256])
        assert g.degrees().mean() <= 3 * np.log2(256)


class TestChordFingerBlocks:
    """The finger table, built in row blocks, equals one whole-table pass."""

    BLOCK = 5  # rows per block under test

    @staticmethod
    def _reference(g) -> np.ndarray:
        ring, n, m = g.ring, g.n, g.finger_count
        offsets = 2.0 ** -(np.arange(1, m + 1))
        table = ring.successor_index_many(
            np.mod(ring.ids[:, None] + offsets, 1.0)
        )
        succ = (np.arange(n) + 1) % n
        pred = (np.arange(n) - 1) % n
        return np.column_stack([table, succ, pred])

    @pytest.mark.parametrize("dtype", ["int32", "int64"])
    @pytest.mark.parametrize("layout", ["uniform", "clustered"])
    @pytest.mark.parametrize("n", [1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1,
                                   3 * BLOCK + 2])
    def test_blocks_equal_one_pass(self, monkeypatch, block_threads, n,
                                   layout, dtype):
        u = np.random.default_rng(n).random(n)
        ids = u if layout == "uniform" else 0.3 + 1e-9 * u
        # one block, on this thread; held until the end, so the blocked
        # build cannot get this graph's freed (and already correct) table
        # back as its empty buffer
        probe = make_input_graph("chord", ids, index_dtype=dtype)
        monkeypatch.setattr(ring_module, "_BLOCK_POINTS",
                            self.BLOCK * probe.finger_count)
        # every block, however small, takes the bucket LUT path
        monkeypatch.setattr(Ring, "_BULK_THRESHOLD", 1)
        g = make_input_graph("chord", Ring(ids, index_dtype=dtype))
        ft = g.finger_table()
        assert ft.dtype == np.dtype(dtype)
        assert np.array_equal(ft, self._reference(g))
        assert g.finger_count == probe.finger_count
        # the same layout and flags as the one-block build, and the ring's
        # tables stay frozen
        for flag in ("writeable", "c_contiguous", "owndata"):
            assert getattr(ft.flags, flag) == getattr(
                probe.finger_table().flags, flag)
        assert not any(a.flags.writeable for a in g.ring._bulk_tables())
        assert not g.ring.ids.flags.writeable


class TestChordStartColumn:
    """The start-column lookup by biased exponent equals the frexp rule."""

    @staticmethod
    def _frexp_rule(m: int, d: np.ndarray) -> np.ndarray:
        # the reference rule: one entry per exponent e = -49..1 of
        # d + _SLACK = f * 2^e, 0.5 <= f < 1
        return np.clip(np.arange(51) - 1, 0, m)[1 - np.frexp(d + _SLACK)[1]]

    # 50 extra fingers put every binade's start column below the clip at m,
    # so an off-by-one anywhere in the table or its index shows
    @pytest.mark.parametrize("extra", [1, 50])
    def test_every_binade_and_edge(self, rings, extra):
        g = ChordGraph(rings[64], extra_fingers=extra)
        # the walk sees d + _SLACK in (2^-50, 1 + 2^-50]: one value inside
        # each binade, each power of two with its two ulp neighbours ...
        powers = 2.0 ** np.arange(-49, 1)
        v = np.concatenate([
            1.5 * powers[:-1], powers,
            np.nextafter(powers, 0.0), np.nextafter(powers, 2.0),
        ])
        d = v - _SLACK
        assert np.array_equal(d + _SLACK, v)  # each edge is hit exactly
        # ... d = 1.0 itself, and distances so small that d + _SLACK
        # rounds to 2^-50
        d = np.concatenate([d, [1.0, 2.0**-60, 5e-324]])
        assert (d > 0).all() and (d <= 1.0).all()
        assert np.array_equal(
            g._start_column(d), self._frexp_rule(g.finger_count, d)
        )


class TestHalvingSpecifics:
    def test_walk_points_contract(self, rings):
        g = make_input_graph("distance-halving", rings[64])
        src = np.array([0.7])
        tgt = np.array([0.3125])
        pts = g.walk_points(src, tgt)
        assert abs(pts[0, -1] - tgt[0]) <= g.base ** -float(g.walk_steps) + 1e-12

    def test_base_three_shorter_walk(self, rings):
        h2 = make_input_graph("distance-halving", rings[256])
        h3 = make_input_graph("kautz", rings[256])
        assert h3.walk_steps < h2.walk_steps

    def test_invalid_base(self, rings):
        from repro.inputgraph.distance_halving import DistanceHalvingGraph

        with pytest.raises(ValueError):
            DistanceHalvingGraph(rings[64], base=1)


def test_viceroy_one_id_ring():
    # one ID leaves one level: no empty level for the level fill to fill
    g = make_input_graph("viceroy", [0.3])
    assert g.level_count == 1
    indptr, indices = g.neighbor_lists()
    assert indptr.tolist() == [0, 0] and indices.size == 0
    batch = g.route_many(np.zeros(3, dtype=np.int64), np.array([0.1, 0.3, 0.9]))
    assert batch.resolved.all() and (batch.hop_counts == 0).all()
    fail, hops = g.search_fail(
        np.zeros(2, dtype=np.int64), np.array([0.2, 0.8]), np.ones(1, dtype=bool)
    )
    assert not fail.any() and hops == 0


@pytest.fixture
def csr_builds(monkeypatch):
    """Count ``_neighbor_sets`` calls per topology class."""
    builds = {cls: cls._neighbor_sets for cls in TOPOLOGIES.values()}
    calls = dict.fromkeys(builds, 0)
    for cls, build in builds.items():
        def counted(self, _cls=cls, _build=build):
            calls[_cls] += 1
            return _build(self)
        monkeypatch.setattr(cls, "_neighbor_sets", counted)
    return calls


class TestNeighborSetsOnFirstUse:
    """The neighbor CSR is built by its first reader, never by routing."""

    ACCESSORS = {
        "neighbors": lambda g: g.neighbors(0),
        "neighbor_lists": lambda g: g.neighbor_lists(),
        "degrees": lambda g: g.degrees(),
        "verify_link": lambda g: g.verify_link(0, g.n - 1),
        "in_neighbors_count": lambda g: g.in_neighbors_count(),
    }

    @pytest.mark.parametrize("policy", ["auto", "int64"])
    @pytest.mark.parametrize("n", [1, 2, 17, 257])
    @pytest.mark.parametrize("accessor", sorted(ACCESSORS))
    @pytest.mark.parametrize("name", ALL)
    def test_built_once_by_first_accessor(
        self, csr_builds, name, accessor, n, policy
    ):
        cls = TOPOLOGIES[name]
        ids = np.random.default_rng(n).random(n)
        g = make_input_graph(name, ids, index_dtype=policy)
        g.route_many(np.arange(n), np.linspace(0.0, 0.99, n))
        g.search_fail(np.arange(n), ids[::-1], np.ones(n, dtype=bool))
        assert csr_builds[cls] == 0
        self.ACCESSORS[accessor](g)
        assert csr_builds[cls] == 1
        for read in self.ACCESSORS.values():
            read(g)
        assert csr_builds[cls] == 1
        indptr, indices = g.neighbor_lists()
        want_indptr, want_indices = g._neighbor_sets()
        assert indptr.dtype == indices.dtype == g.ring.index_dtype
        assert np.array_equal(indptr, want_indptr)
        assert np.array_equal(indices, want_indices)
        assert not indptr.flags.writeable and not indices.flags.writeable

    def test_static_pass_never_builds(self, csr_builds):
        # the E2 cell's pipeline: routing reads the finger table only
        from repro.core.group_graph import GroupGraph
        from repro.core.groups import build_groups_fast
        from repro.core.params import SystemParams
        from repro.core.static_case import measure_static_search

        n = 4096
        rng = np.random.default_rng(0)
        H = make_input_graph("chord", rng.random(n), index_dtype="auto")
        params = SystemParams(n=n, seed=0)
        groups = build_groups_fast(H.ring, params, rng)
        gg = GroupGraph(H, params, red=rng.random(n) < 0.02, groups=groups)
        stats = measure_static_search(gg, 2000, rng, probe_chunk=512)
        assert 0.0 < stats.failure_rate < 1.0
        assert csr_builds[ChordGraph] == 0

    def test_epoch_step_builds_the_new_graph_once(self, csr_builds):
        # both constructions read the new graph's neighbor requests
        from repro.core.dynamic import EpochSimulator
        from repro.core.params import SystemParams

        sim = EpochSimulator(SystemParams(n=256, beta=0.05, seed=1), probes=200)
        before = csr_builds[ChordGraph]
        rep = sim.step()
        assert rep.build_2 is not None
        assert csr_builds[ChordGraph] - before == 1


def test_make_input_graph_unknown_name(rings):
    with pytest.raises(ValueError):
        make_input_graph("hypercube", rings[64])


def test_make_input_graph_accepts_array():
    g = make_input_graph("chord", np.random.default_rng(0).random(32))
    assert g.n == 32
