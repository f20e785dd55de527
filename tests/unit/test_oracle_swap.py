"""Unit tests: the ``oracle_loops`` fixture really swaps the kernels.

Every parity suite compares a run on the batched kernels with a run under
``oracle_loops()``.  If the swap missed a kernel — or production stopped
looking a kernel up where the swap replaces it — both runs would execute
the same code and every comparison would pass vacuously.
"""

import numpy as np
import oracles

from repro.baselines.cuckoo import CuckooSimulator
from repro.core.dynamic import EpochSimulator
from repro.core.params import SystemParams
from repro.core.static_case import measure_static_search, synthetic_static_graph
from repro.experiments import run_experiment
from repro.inputgraph import TOPOLOGIES, make_input_graph


def _leaf_ids():
    return [f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, _ in oracles.LEAVES]


def test_swap_replaces_every_leaf_and_restores(oracle_loops):
    originals = [getattr(owner, name) for owner, name, _ in oracles.LEAVES]
    with oracle_loops():
        for (owner, name, loop), original in zip(oracles.LEAVES, originals):
            assert getattr(owner, name) is loop
            assert loop is not original
    assert [getattr(owner, name) for owner, name, _ in oracles.LEAVES] == originals


def test_production_reaches_every_swapped_leaf(monkeypatch):
    """Count calls through each leaf while production code runs: a leaf
    never reached is a kernel the swap cannot replace."""
    calls = dict.fromkeys(_leaf_ids(), 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, (owner, name, _) in zip(_leaf_ids(), oracles.LEAVES):
        # owner.__dict__: a class must wrap its own attribute, not the
        # one it inherits (DeBruijnGraph overrides DistanceHalvingGraph._walk)
        monkeypatch.setattr(owner, name, counting(key, vars(owner)[name]))

    params = SystemParams(n=32, beta=0.08, seed=3)
    for topology in sorted(TOPOLOGIES):
        EpochSimulator(params, topology=topology, probes=50,
                       rng=np.random.default_rng(1)).step()
    rng = np.random.default_rng(2)
    H = make_input_graph("chord", rng.random(64))
    gg = synthetic_static_graph(H, SystemParams(n=64, seed=0), 0.05, rng)
    measure_static_search(gg, 100, rng)
    run_experiment("E8", seed=0, fast=True, trials=3)
    CuckooSimulator(n=64, beta=0.05, group_size=8, seed=0).run(4)
    assert {key for key, n in calls.items() if n == 0} == set()

