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
from repro.inputgraph import distance_halving, make_input_graph, viceroy
from repro.inputgraph.base import InputGraph
from repro.inputgraph.chord import ChordGraph
from repro.inputgraph.debruijn import DeBruijnGraph
from repro.inputgraph.distance_halving import DistanceHalvingGraph
from repro.inputgraph.viceroy import ViceroyGraph
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


# -- input-graph routes ------------------------------------------------------


def _replay(rows, resolved, resp, visit):
    """Hand per-query paths to a walk's ``visit``: pass ``c`` moves every
    query whose path has a column ``c``.  Returns what a walk returns."""
    width = max((len(r) for r in rows), default=1)
    for c in range(1, width):
        live = np.asarray([i for i, r in enumerate(rows) if len(r) > c],
                          dtype=np.int64)
        visit(live, np.asarray([rows[i][c] for i in live], dtype=np.int64), c)
    return resp, np.flatnonzero(~resolved)


def _dedup(seq: np.ndarray) -> np.ndarray:
    """``seq`` with consecutive repeats collapsed."""
    keep = np.ones(seq.size, dtype=bool)
    keep[1:] = seq[1:] != seq[:-1]
    return seq[keep]


def _ring_walk(H: InputGraph, path: list, target: int) -> bool:
    """Extend ``path`` along the ring to ``target``, each hop to the
    successor or the predecessor, whichever side the target is nearer, for
    at most ``distance_halving._MAX_TAIL`` hops.  True when it arrives."""
    ids, n = H.ring.ids, H.n
    cur, hops = int(path[-1]), 0
    while cur != target and hops < distance_halving._MAX_TAIL:
        d_fwd = (ids[target] - ids[cur]) % 1.0
        d_bwd = (ids[cur] - ids[target]) % 1.0
        cur = (cur + 1) % n if d_fwd <= d_bwd else (cur - 1) % n
        path.append(cur)
        hops += 1
    return cur == target


def distance_halving_walk(H: DistanceHalvingGraph, sources, targets, visit):
    """``DistanceHalvingGraph._walk`` (distance halving and Kautz), one
    query at a time: its layer owners with consecutive repeats collapsed,
    then the ring tail to the responsible ID."""
    resp = H.ring.successor_index_many(targets)
    pts = H.walk_points(H.ring.ids[sources], targets)
    nodes = H.ring.successor_index_many(pts.ravel()).reshape(pts.shape)
    nodes[:, 0] = sources  # z_0 is the source's own ID
    rows, resolved = [], np.ones(len(sources), dtype=bool)
    for i in range(len(sources)):
        path = list(_dedup(nodes[i]))
        resolved[i] = _ring_walk(H, path, int(resp[i]))
        rows.append(path)
    return _replay(rows, resolved, resp, visit)


def debruijn_walk(H: DeBruijnGraph, sources, targets, visit):
    """``DeBruijnGraph._walk``, one query at a time: the ring head from the
    source to the owner of ``q_0``, then the owners of the reversed
    contraction walk; a query is resolved when its head arrives."""
    resp = H.ring.successor_index_many(targets)
    rev = H.walk_points(targets, H.ring.ids[sources])[:, ::-1]
    nodes = H.ring.successor_index_many(rev.ravel()).reshape(rev.shape)
    rows, resolved = [], np.ones(len(sources), dtype=bool)
    for i in range(len(sources)):
        head = [int(sources[i])]
        resolved[i] = _ring_walk(H, head, int(nodes[i, 0]))
        seq = np.concatenate([np.asarray(head, dtype=np.int64), nodes[i, 1:]])
        if seq[-1] != resp[i]:
            seq = np.append(seq, resp[i])
        rows.append(_dedup(seq))
    return _replay(rows, resolved, resp, visit)


def _nearest_at_level(H: ViceroyGraph, lvl: int, point: float) -> int:
    """Ring index of the first level-``lvl`` node clockwise of ``point``."""
    nodes = H._level_nodes[lvl]
    i = int(np.searchsorted(H.ring.ids[nodes], point, side="left"))
    return int(nodes[0 if i == nodes.size else i])


def _level_ring(H: ViceroyGraph, i: int) -> tuple[int, int]:
    """The level-ring successor and predecessor of node ``i``."""
    nodes = H._level_nodes[int(H.levels[i])]
    j = int(np.searchsorted(H.ring.ids[nodes], H.ring.ids[i], side="right"))
    return int(nodes[j % nodes.size]), int(nodes[(j - 2) % nodes.size])


def viceroy_route_one(H: ViceroyGraph, src: int, target: float, resp: int):
    """One Viceroy route: climb to level 1, butterfly descent, then the
    level-ring and vanilla-ring finish."""
    ids, n, m = H.ring.ids, H.n, H.level_count
    path = [src]
    cur = src
    # phase 1: climb to level 1
    guard = 0
    while H.levels[cur] > 1 and guard < m + 4:
        cur = _nearest_at_level(H, int(H.levels[cur]) - 1, float(ids[cur]))
        if cur != path[-1]:
            path.append(cur)
        guard += 1
    # phase 2: butterfly descent while halving beats the drift scale
    drift_scale = 2.0 * m / n
    prev_d = None
    for lvl in range(1, m):
        if cur == resp:
            break
        d = (target - ids[cur]) % 1.0
        if d < drift_scale:
            break
        if prev_d is not None and d > prev_d:
            break  # overshot the target
        hop_point = (ids[cur] + 2.0**-lvl) % 1.0 if d >= 2.0**-lvl else ids[cur]
        nxt = _nearest_at_level(H, lvl + 1, float(hop_point))
        prev_d = d
        if nxt != cur:
            path.append(nxt)
            cur = nxt
    # phase 3: the best strictly-improving move among vanilla succ, vanilla
    # pred, level-ring next and level-ring prev
    hops = 0
    while cur != resp and hops < viceroy._MAX_TAIL:
        cur_dist = min((ids[resp] - ids[cur]) % 1.0, (ids[cur] - ids[resp]) % 1.0)
        best, best_dist = cur, cur_dist
        for cand in ((cur + 1) % n, (cur - 1) % n, *_level_ring(H, cur)):
            if cand == cur:
                continue
            d = min((ids[resp] - ids[cand]) % 1.0, (ids[cand] - ids[resp]) % 1.0)
            if d < best_dist:
                best, best_dist = cand, d
        if best == cur:
            break
        cur = best
        path.append(cur)
        hops += 1
    return np.asarray(path, dtype=np.int64)


def viceroy_walk(H: ViceroyGraph, sources, targets, visit):
    """``ViceroyGraph._walk``: :func:`viceroy_route_one` per query."""
    resp = H.ring.successor_index_many(targets)
    rows = [viceroy_route_one(H, int(s), float(t), int(r))
            for s, t, r in zip(sources, targets, resp)]
    resolved = np.asarray([row[-1] == r for row, r in zip(rows, resp)],
                          dtype=bool)
    return _replay(rows, resolved, resp, visit)


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
        spans = [(a, np.nextafter(1.0, 0.0)), (0.0, z)] if z < a else [(a, z)]
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


def viceroy_neighbor_sets(H: ViceroyGraph):
    """``ViceroyGraph._neighbor_sets``: per node, its ring and level-ring
    neighbors, its two down edges and its up edge."""
    n, ids, m = H.n, H.ring.ids, H.level_count
    rows = []
    for i in range(n):
        lvl = int(H.levels[i])
        nbrs = {(i - 1) % n, (i + 1) % n, *_level_ring(H, i)}
        if lvl < m:
            nbrs.add(_nearest_at_level(H, lvl + 1, float(ids[i])))
            nbrs.add(_nearest_at_level(
                H, lvl + 1, float((ids[i] + 2.0**-lvl) % 1.0)))
        if lvl > 1:
            nbrs.add(_nearest_at_level(H, lvl - 1, float(ids[i])))
        nbrs.discard(i)
        rows.append(np.asarray(sorted(nbrs), dtype=np.int64))
    return _csr(rows)


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
    (DistanceHalvingGraph, "_walk", distance_halving_walk),
    (DeBruijnGraph, "_walk", debruijn_walk),
    (ViceroyGraph, "_walk", viceroy_walk),
    (GroupGraph, "search_success", search_success),
    (static_case, "measure_static_search_streamed", static_search),
    (Ring, "successor_index_bulk", Ring.successor_index_many),
    (groups, "_points_to_csr", points_to_csr),
    (membership, "_compose_groups", compose_groups),
    (dynamic, "_split_members", split_members),
    (ChordGraph, "_neighbor_sets", chord_neighbor_sets),
    (DistanceHalvingGraph, "_neighbor_sets", distance_halving_neighbor_sets),
    (ViceroyGraph, "_neighbor_sets", viceroy_neighbor_sets),
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
