"""Property tests: the multi-cell sweeps are schedule- and kernel-invisible.

For every multi-cell experiment (E1, E2, E3, E5, E6) the rendered table
from the default path (in-process, array kernels) must be byte-identical
to

* the reference loops (``tests/oracles.py``, swapped in by the
  ``oracle_loops`` fixture), over random grids, scales, and seeds, and
* the process backend's contiguous worker spans at 2 and 3 workers, on
  one fixed grid per experiment,

so neither the batching nor the schedule can leak into a table.  E5's
cell builds its dual and single transitions from one shared substrate;
that fork is pinned against two independent transitions on every
topology.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import transition_once
from repro.core.params import SystemParams

from repro.experiments.e1_responsibility import build_spec as e1_spec
from repro.experiments.e2_static_search import build_spec as e2_spec
from repro.experiments.e3_group_quality import build_spec as e3_spec
from repro.experiments.e5_two_graph_ablation import _transition_pair
from repro.experiments.e5_two_graph_ablation import build_spec as e5_spec
from repro.inputgraph import TOPOLOGIES
from repro.experiments.e6_costs import build_spec as e6_spec
from repro.sim import ExecutionConfig, run_sweep


def _assert_kernel_invariant(oracle_loops, spec_fn, **kw):
    default = run_sweep(spec_fn(**kw))
    with oracle_loops():
        serial = run_sweep(spec_fn(**kw))
    assert default.render() == serial.render()


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_values=st.lists(
        st.sampled_from([24, 32, 48, 64]), min_size=1, max_size=3, unique=True
    ),
    probes=st.integers(min_value=50, max_value=400),
)
@settings(max_examples=10, deadline=None)
def test_e1_stacked_matches_per_cell(seed, n_values, probes, oracle_loops):
    _assert_kernel_invariant(
        oracle_loops, e1_spec, seed=seed, n_values=tuple(n_values), probes=probes
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.sampled_from([48, 64, 96]),
    pf_values=st.lists(
        st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
        min_size=1, max_size=4, unique=True,
    ),
    probes=st.integers(min_value=50, max_value=300),
)
@settings(max_examples=10, deadline=None)
def test_e2_stacked_matches_per_cell(seed, n, pf_values, probes, oracle_loops):
    _assert_kernel_invariant(
        oracle_loops, e2_spec, seed=seed, n=n, pf_values=tuple(pf_values), probes=probes
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.sampled_from([48, 64]),
    pf0_values=st.lists(
        st.floats(min_value=0.005, max_value=0.1, allow_nan=False),
        min_size=1, max_size=3, unique=True,
    ),
)
@settings(max_examples=6, deadline=None)
def test_e5_stacked_matches_per_cell(seed, n, pf0_values, oracle_loops):
    _assert_kernel_invariant(
        oracle_loops, e5_spec, seed=seed, n=n, pf0_values=tuple(pf0_values)
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.sampled_from([48, 64]),
    betas=st.lists(
        st.sampled_from([0.05, 0.10, 0.15]), min_size=1, max_size=2,
        unique=True,
    ),
    d2_values=st.lists(
        st.sampled_from([4.0, 8.0, 12.0]), min_size=1, max_size=2,
        unique=True,
    ),
)
@settings(max_examples=6, deadline=None)
def test_e3_stacked_matches_per_cell(seed, n, betas, d2_values, oracle_loops):
    _assert_kernel_invariant(
        oracle_loops, e3_spec, seed=seed, n=n, betas=tuple(betas),
        d2_values=tuple(d2_values),
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_values=st.lists(
        st.sampled_from([48, 64]), min_size=1, max_size=2, unique=True
    ),
    probes=st.integers(min_value=30, max_value=150),
)
@settings(max_examples=5, deadline=None)
def test_e6_stacked_matches_per_cell(seed, n_values, probes, oracle_loops):
    _assert_kernel_invariant(
        oracle_loops, e6_spec, seed=seed, n_values=tuple(n_values), probes=probes
    )


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_e5_transition_pair_matches_two_independent_transitions(topology):
    """The pair forks one generator after the shared prefix (population,
    old colourings, new ring): its dual and single red fractions must be
    the ones two transitions from fresh generators give."""
    for n, beta, pf0 in ((32, 0.05, 0.05), (48, 0.1, 0.02)):
        for seed in (0, 1, 2):
            params = SystemParams(n=n, beta=beta, seed=seed)
            dual, single = _transition_pair(n, beta, pf0, params, seed,
                                            topology)
            assert dual == transition_once(n, beta, pf0, params, True,
                                           seed, topology)
            assert single == transition_once(n, beta, pf0, params, False,
                                             seed, topology)


def test_e2_probe_chunk_is_table_invisible():
    """The streaming window is a memory knob, not a statistics knob: any
    chunk size — including pathological width-1 windows — must render the
    byte-identical table."""
    kw = dict(seed=5, n=64, pf_values=(0.01, 0.05, 0.1), probes=230)
    reference = run_sweep(e2_spec(**kw)).render()
    for chunk in (1, 7, 64, 229, 230, 1000):
        assert run_sweep(e2_spec(**kw, probe_chunk=chunk)).render() == \
            reference


def test_process_spans_match_in_process_stack():
    """One fixed grid per experiment through the process backend: the
    contiguous worker spans (one pool task each) must reassemble to the
    identical table at any worker count."""
    cases = [
        (e1_spec, dict(seed=3, n_values=(32, 48), probes=200)),
        (e2_spec, dict(seed=3, n=64, pf_values=(0.01, 0.05, 0.1), probes=200)),
        (e3_spec, dict(seed=3, n=48, betas=(0.05, 0.1), d2_values=(4.0, 8.0))),
        (e5_spec, dict(seed=3, n=64, pf0_values=(0.01, 0.05))),
        (e6_spec, dict(seed=3, n_values=(48, 64), probes=120)),
    ]
    for spec_fn, kw in cases:
        reference = run_sweep(spec_fn(**kw)).render()
        for workers in (2, 3):
            cfg = ExecutionConfig(backend="process", workers=workers)
            assert run_sweep(spec_fn(**kw), exec_config=cfg).render() == \
                reference
