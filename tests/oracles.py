"""Reference loops for the batched kernels in ``src/`` (test-only oracles).

Each function here is the slow, plainly correct form of one batched
kernel: one scalar search per probe, one ``np.unique`` per group, one
relocation per displaced ID.  A loop consumes the RNG exactly as its
kernel does, so the two must agree bit for bit.

:func:`swapped` installs every loop in place of the kernel it mirrors —
the leaf functions that production code looks up as module or class
attributes — so a whole epoch trajectory or a whole experiment table can
be computed once on the kernels and once on the loops and compared.
``tests/conftest.py`` hands it out as the ``oracle_loops`` fixture.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.baselines.cuckoo import CuckooSimulator
from repro.core import dynamic, groups, membership, static_case
from repro.core.group_graph import GroupGraph
from repro.core.groups import GroupSet
from repro.core.membership import EpochPair, build_new_graph
from repro.core.secure_routing import SecureRouter
from repro.idspace.ring import Ring
from repro.inputgraph import make_input_graph
from repro.inputgraph.base import InputGraph
from repro.inputgraph.chord import ChordGraph
from repro.inputgraph.distance_halving import DistanceHalvingGraph
from repro.pow.puzzles import PuzzleScheme


def _csr(rows: list[np.ndarray], dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, flat)`` of a list of per-row arrays."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([r.size for r in rows])
    flat = np.concatenate(rows) if rows else np.empty(0, dtype=dtype)
    return indptr, flat


# -- searches ----------------------------------------------------------------


def search_fail(H: InputGraph, sources, targets, red) -> tuple[np.ndarray, int]:
    """``InputGraph.search_fail``: one scalar route per query.  A query
    fails unless it resolves and every ID after its source is blue."""
    fail = np.zeros(len(sources), dtype=bool)
    hops = 0
    for i in range(len(sources)):
        path, resolved = H.route(int(sources[i]), float(targets[i]))
        hops += path.size - 1
        fail[i] = not (resolved and not red[path[1:]].any())
    return fail, hops


def search_success(gg: GroupGraph, sources, targets) -> np.ndarray:
    """``GroupGraph.search_success``: one scalar route per query.  A search
    succeeds when it resolves through blue groups only, source included."""
    success = np.zeros(len(sources), dtype=bool)
    for i in range(len(sources)):
        path, resolved = gg.H.route(int(sources[i]), float(targets[i]))
        success[i] = resolved and not gg.red[path].any()
    return success


def static_search(gg: GroupGraph, sources, targets, probes: int,
                  resp_constant: float = 8.0, probe_chunk=None):
    """``static_case.measure_static_search_streamed``: one scalar secure
    search per probe, its search path cut after the first blocking group,
    reduced as the batch pass reduces (sums divided by ``probes``)."""
    router = SecureRouter(gg)
    delivered = path_cells = 0
    visits = np.zeros(gg.n, dtype=np.int64)
    for s, t in zip(sources, targets):
        out = router.search(int(s), float(t))
        delivered += 1 if out.delivered else 0
        prefix = out.path[: min(out.first_blocked + 1, out.path.size)]
        path_cells += prefix.size
        np.add.at(visits, prefix, 1)
    resp = visits.astype(np.float64) / probes
    return static_case._finish_stats(
        gg, probes, resp_constant, 1.0 - delivered / probes,
        path_cells / probes, float(resp.max()),
    )


# -- group construction and composition --------------------------------------


def points_to_csr(ring: Ring, blocks, ng: int, m: int):
    """``groups._points_to_csr``: ``np.unique`` of each leader's successors."""
    rows = [np.unique(ring.successor_index_many(row))
            for block in blocks for row in block]
    indptr, member_idx = _csr(rows, ring.index_dtype)
    if indptr[-1] <= np.iinfo(ring.index_dtype).max:
        indptr = indptr.astype(ring.index_dtype)
    return indptr, member_idx


def build_groups_fast(ring: Ring, params, rng, n_groups=None, solicit=None):
    """``groups.build_groups_fast`` with every point from one draw."""
    ng = ring.n if n_groups is None else int(n_groups)
    m = params.group_solicit_size if solicit is None else int(solicit)
    indptr, member_idx = points_to_csr(ring, [rng.random((ng, m))], ng, m)
    leaders = np.arange(ng, dtype=np.int64) % ring.n
    return GroupSet(leaders, indptr, member_idx, ring.n)


def compose_groups(captured, bad_cand, accepted, cand, pool_n: int):
    """``membership._compose_groups``: one ``np.unique`` per group."""
    n_groups = cand.shape[0]
    n_bad = np.zeros(n_groups, dtype=np.int64)
    sizes = np.zeros(n_groups, dtype=np.int64)
    membership_counts = np.zeros(pool_n, dtype=np.int64)
    rows = []
    for g in range(n_groups):
        good = np.unique(cand[g][accepted[g]])
        bad = np.unique(cand[g][bad_cand[g]])
        n_bad[g] = int(captured[g].sum()) + bad.size
        sizes[g] = good.size + n_bad[g]
        membership_counts[good] += 1
        rows.append(good)
    good_indptr, good_members = _csr(rows)
    return good_indptr, good_members, n_bad, sizes, membership_counts


def split_members(gs: GroupSet, bad) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``dynamic._split_members``: one group at a time."""
    rows = []
    n_bad = np.zeros(gs.n_groups, dtype=np.int64)
    for g in range(gs.n_groups):
        mem = gs.members_of(g)
        rows.append(mem[~bad[mem]])
        n_bad[g] = int(bad[mem].sum())
    indptr, members = _csr(rows)
    return indptr, members, n_bad


# -- input-graph neighbor sets -----------------------------------------------


def chord_neighbor_sets(H: ChordGraph) -> tuple[np.ndarray, np.ndarray]:
    """``ChordGraph._neighbor_sets``: each node's distinct fingers, itself
    excluded."""
    f = H.finger_table()
    indptr, indices = _csr([np.unique(f[i][f[i] != i]) for i in range(H.n)])
    return indptr, indices.astype(np.int64)


def _owners_of_interval(H: InputGraph, lo: float, hi: float) -> np.ndarray:
    """Ring indices of the IDs responsible for some point in ``[lo, hi]``
    (``hi < lo`` wraps): ``suc(lo) .. suc(hi)`` along the ring."""
    a = H.ring.successor_index(lo % 1.0)
    b = H.ring.successor_index(hi % 1.0)
    if a <= b:
        return np.arange(a, b + 1)
    return np.concatenate([np.arange(a, H.n), np.arange(0, b + 1)])


def distance_halving_neighbor_sets(H: DistanceHalvingGraph):
    """``DistanceHalvingGraph._neighbor_sets``: per node, the ring
    neighbors plus the owners of its arc's ``b`` contraction images and of
    its expansion image (the reverse-orientation edges)."""
    n, b = H.n, H.base
    lo, hi = H._arc_bounds()
    rows = []
    for i in range(n):
        pieces = [np.array([(i - 1) % n, (i + 1) % n], dtype=np.int64)]
        a, z = float(lo[i]), float(hi[i])
        # the wrapped arc (only node 0 after the roll) splits in two
        spans = [(a, 1.0 - 1e-15), (0.0, z)] if z < a else [(a, z)]
        for sa, sz in spans:
            for c in range(b):
                pieces.append(_owners_of_interval(H, (sa + c) / b, (sz + c) / b))
            pieces.append(_owners_of_interval(
                H, (sa * b) % 1.0, (sa * b + (sz - sa) * b) % 1.0
            ))
        row = np.unique(np.concatenate(pieces))
        rows.append(row[row != i])
    indptr, indices = _csr(rows)
    return indptr, indices.astype(np.int64)


# -- E5's transition pair ----------------------------------------------------


def transition_once(n: int, beta: float, pf0: float, params, two_graphs: bool,
                    seed: int, topology: str) -> float:
    """One variant of ``e5_two_graph_ablation._transition_pair``, built from
    its own generator: population, old-graph colourings, new ring, then
    one ``build_new_graph``.  Two calls (dual, single) on one seed must
    give the pair's two red fractions."""
    rng = np.random.default_rng(seed)
    good = rng.random(n - int(beta * n))
    bad_vals = rng.random(int(beta * n))
    ring = Ring(np.sort(np.concatenate([good, bad_vals])))
    bad_set = set(np.round(bad_vals, 12))
    bad_mask = np.array([round(float(v), 12) in bad_set for v in ring.ids])
    old = EpochPair(
        ring=ring,
        H=make_input_graph(topology, ring),
        bad_mask=bad_mask,
        red1=rng.random(ring.n) < pf0,
        red2=rng.random(ring.n) < pf0,
    )
    new_ring = Ring(rng.random(ring.n))
    new_H = make_input_graph(topology, new_ring)
    rep = build_new_graph(old, new_ring, new_H, 1, params, rng,
                          two_graphs=two_graphs)
    return rep.fraction_red


# -- PoW windows -------------------------------------------------------------


def mint_fast_count(scheme: PuzzleScheme, compute_units, steps, rng) -> int:
    """Solution count of one ``mint_fast`` window: its single
    ``Binomial(M, tau)`` draw."""
    trials = int(round(compute_units * steps * scheme.hash_rate))
    return int(rng.binomial(trials, scheme.tau)) if trials > 0 else 0


def mint_count_windows(scheme: PuzzleScheme, compute_units, steps, rng, windows):
    """``PuzzleScheme.mint_count_windows``: one draw per window."""
    return np.asarray(
        [mint_fast_count(scheme, compute_units, steps, rng)
         for _ in range(windows)],
        dtype=np.int64,
    )


# -- cuckoo relocation -------------------------------------------------------


def _cuckoo_move(sim: CuckooSimulator, idx: int, pos: float) -> None:
    """Relocate one ID, keeping counters and bucket sets current."""
    old_g, old_k = sim.group_of[idx], sim.kregion_of[idx]
    new_g, new_k = int(sim._group(pos)), int(sim._kregion(pos))
    sim.positions[idx] = pos
    if new_g != old_g:
        sim.group_total[old_g] -= 1
        sim.group_total[new_g] += 1
        if sim.is_bad[idx]:
            sim.group_bad[old_g] -= 1
            sim.group_bad[new_g] += 1
        sim._gbuckets[old_g].discard(idx)
        sim._gbuckets[new_g].add(idx)
        sim.group_of[idx] = new_g
    if new_k != old_k:
        sim._kbuckets[old_k].discard(idx)
        sim._kbuckets[new_k].add(idx)
        sim.kregion_of[idx] = new_k


def cuckoo_join(sim: CuckooSimulator, idx: int, pos: float) -> None:
    """``CuckooSimulator._join`` over explicit per-k-region and per-group
    bucket sets: the joiner moves first, its victims are read from the
    buckets after that move, and each victim moves on its own."""
    if not hasattr(sim, "_kbuckets"):  # nothing moves before the first join
        sim._kbuckets = [set() for _ in range(sim.n_kregions)]
        sim._gbuckets = [set() for _ in range(sim.n_groups)]
        for i in range(sim.n):
            sim._kbuckets[sim.kregion_of[i]].add(i)
            sim._gbuckets[sim.group_of[i]].add(i)
    _cuckoo_move(sim, idx, pos)
    if sim.commensal:
        bucket = sim._gbuckets[int(sim.group_of[idx])]
    else:
        bucket = sim._kbuckets[int(sim.kregion_of[idx])]
    others = np.asarray(sorted(i for i in bucket if i != idx), dtype=np.int64)
    if sim.commensal and others.size > sim.k:
        others = others[sim.rng.choice(others.size, size=sim.k, replace=False)]
    for v, p in zip(others, sim.rng.random(others.size)):
        _cuckoo_move(sim, int(v), float(p))


# -- the swap ----------------------------------------------------------------

#: ``(owner, attribute, loop)`` for every kernel a loop above mirrors.
#: ``successor_index_bulk`` falls back to the plain binary search.
LEAVES = (
    (InputGraph, "search_fail", search_fail),
    (ChordGraph, "search_fail", search_fail),
    (GroupGraph, "search_success", search_success),
    (static_case, "measure_static_search_streamed", static_search),
    (Ring, "successor_index_bulk", Ring.successor_index_many),
    (groups, "_points_to_csr", points_to_csr),
    (membership, "_compose_groups", compose_groups),
    (dynamic, "_split_members", split_members),
    (ChordGraph, "_neighbor_sets", chord_neighbor_sets),
    (DistanceHalvingGraph, "_neighbor_sets", distance_halving_neighbor_sets),
    (PuzzleScheme, "mint_count_windows", mint_count_windows),
    (CuckooSimulator, "_join", cuckoo_join),
)


@contextlib.contextmanager
def swapped():
    """Run the block with every kernel in :data:`LEAVES` replaced by its
    loop (in this process only: process-pool workers keep the kernels)."""
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, loop in LEAVES:
            mp.setattr(owner, name, loop)
        yield
