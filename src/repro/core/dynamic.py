"""The dynamic case: epoch protocol simulator (paper §III, Theorem 3).

Each epoch ``j`` the simulator:

1. applies churn to the current (old) :class:`~repro.core.membership.
   EpochPair` — good departures within the ``eps'/2`` model — and
   re-derives its red masks;
2. mints the next epoch's ID population: good machines produce one u.a.r.
   ID each (their puzzle outputs are uniform); the adversary fields
   ``~beta n`` IDs via its placement strategy (u.a.r. under PoW);
3. builds the two new group graphs from the two old ones via the dual-search
   protocol of §III-A (:func:`~repro.core.membership.build_new_graph`);
4. measures the new pair: red fractions, realized ``q_f``, ε-robustness,
   message/state costs.

The key claim (Lemma 9 / Theorem 3) is that the per-epoch red-group
probability stays pinned at ``~q_f^2 · poly(log) ≈ p_f`` instead of
compounding — visible as a flat ``fraction_red`` series over epochs.  The
``two_graphs=False`` ablation (single old graph, single searches) removes
the squaring and the series drifts upward (experiment E5), reproducing the
paper's "why two graphs" argument.

Fidelity note: epochs are simulated at the boundary (all of an epoch's joins
processed as one batch); intermediate link-update traffic is charged to the
ledger analytically.  PoW ID minting runs through
``repro.pow`` when ``use_pow=True``; the default draws the
distributionally-identical fast path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..adversary.base import Adversary
from ..adversary.strategies import UniformAdversary
from ..churn.models import ChurnModel
from ..idspace.ring import Ring
from ..inputgraph import make_input_graph
from .costs import CostLedger
from .group_graph import GroupGraph
from .groups import build_groups_fast, classify_groups
from .membership import BuildReport, EpochPair, GraphSide, build_new_graph, measure_qf
from .params import SystemParams
from .robustness import RobustnessReport, evaluate_robustness

__all__ = ["EpochReport", "EpochSimulator"]


@dataclass(frozen=True)
class EpochReport:
    """Everything measured about one epoch transition."""

    epoch: int
    fraction_red_1: float
    fraction_red_2: float
    fraction_bad_1: float
    fraction_bad_2: float
    fraction_confused_1: float
    fraction_confused_2: float
    qf_1: float
    qf_2: float
    robustness: RobustnessReport
    build_1: BuildReport
    build_2: BuildReport | None
    departures: int
    routing_messages: int
    mean_membership: float        # Lemma 10: groups joined per good pool ID

    @property
    def fraction_red(self) -> float:
        return 0.5 * (self.fraction_red_1 + self.fraction_red_2)

    @property
    def qf(self) -> float:
        return 0.5 * (self.qf_1 + self.qf_2)


class EpochSimulator:
    """Runs the two-group-graph epoch protocol over many epochs.

    Parameters
    ----------
    params:
        System constants; ``params.n`` is the per-epoch population size.
    topology:
        Input-graph family for every epoch's ``H`` ("chord" is fastest —
        fully vectorized routing).
    adversary:
        ID-placement strategy; defaults to the PoW-constrained
        :class:`~repro.adversary.strategies.UniformAdversary` at
        ``params.beta``.
    churn:
        Per-epoch departure model (None = no churn).
    two_graphs:
        False selects the naive single-graph construction (E5 ablation).
    probes:
        Monte-Carlo searches per epoch for ``q_f``/robustness estimates.
    kernel:
        ``"vectorized"`` (default) runs every epoch step on the batched
        array kernels — batched construction searches through
        ``InputGraph.search_fail``, bucket-LUT successor resolution, one
        row sort per group composition;
        ``"serial"`` selects the per-probe / per-group reference loops.
        Both consume the RNG identically, so trajectories are
        bit-identical (the dynamic differential-oracle suite pins every
        :class:`EpochReport` field).
    """

    def __init__(
        self,
        params: SystemParams,
        topology: str = "chord",
        adversary: Adversary | None = None,
        churn: ChurnModel | None = None,
        two_graphs: bool = True,
        probes: int = 4000,
        rng: np.random.Generator | None = None,
        size_schedule: Callable[[int], int] | None = None,
        kernel: str = "vectorized",
    ):
        if kernel not in ("serial", "vectorized"):
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from ('serial', 'vectorized')"
            )
        self.params = params
        self.topology = topology
        self.adversary = adversary or UniformAdversary(params.beta)
        self.churn = churn
        self.two_graphs = bool(two_graphs)
        self.probes = int(probes)
        self.kernel = kernel
        self.rng = rng or np.random.default_rng(params.seed)
        #: §III remark: the guarantees hold when the population stays
        #: Theta(n); ``size_schedule(epoch) -> n_epoch`` lets experiments
        #: drift the size by a constant factor (E15).
        self.size_schedule = size_schedule
        self.ledger = CostLedger()
        self.epoch = 0
        self.pair: EpochPair = self._initial_pair()
        #: the latest report (``history[-1]``); a trajectory is what
        #: :meth:`run` returns.  Only one is kept: a report holds its
        #: builds' arrays (~0.3 MB at n = 4096), and the serving loop
        #: steps one simulator for as long as it runs.
        self.history: deque[EpochReport] = deque(maxlen=1)

    # -- construction ------------------------------------------------------------

    def _epoch_size(self, epoch: int) -> int:
        if self.size_schedule is None:
            return self.params.n
        n = int(self.size_schedule(epoch))
        if n < 8:
            raise ValueError("size schedule produced n < 8")
        return n

    def _population(self) -> tuple[Ring, np.ndarray]:
        ids, bad = self.adversary.population(self._epoch_size(self.epoch), self.rng)
        ring = Ring(ids)
        # Ring dedupes; keep the mask aligned (collisions were perturbed by
        # Adversary.population, so sizes should match).
        if ring.n != ids.size:
            order = np.argsort(ids, kind="stable")
            keep = np.ones(ids.size, dtype=bool)
            sids = ids[order]
            keep[1:] = np.diff(sids) != 0
            bad = bad[order][keep]
        else:
            order = np.argsort(ids, kind="stable")
            bad = bad[order]
        return ring, bad

    def _initial_pair(self) -> EpochPair:
        """Epoch-0 graphs built per the paper's initialization assumption
        (App. X): groups correctly formed by hashing, neighbor sets correct,
        red == bad composition only."""
        ring, bad = self._population()
        H = make_input_graph(self.topology, ring)
        sides: list[GraphSide] = []
        reds: list[np.ndarray] = []
        departed = np.zeros(ring.n, dtype=bool)
        for _ in (1, 2):
            gs = build_groups_fast(ring, self.params, self.rng, kernel=self.kernel)
            quality = classify_groups(gs, bad, self.params)
            # split members into good (tracked) and bad (fixed count)
            if self.kernel == "serial":
                good_rows, n_bad = [], np.zeros(gs.n_groups, dtype=np.int64)
                for g in range(gs.n_groups):
                    mem = gs.members_of(g)
                    good_rows.append(mem[~bad[mem]])
                    n_bad[g] = int(bad[mem].sum())
                indptr = np.zeros(gs.n_groups + 1, dtype=np.int64)
                indptr[1:] = np.cumsum([r.size for r in good_rows])
                good_members = (
                    np.concatenate(good_rows) if good_rows
                    else np.empty(0, dtype=np.int64)
                )
                n_bad_arr = n_bad
            else:
                # CSR segments stay sorted under a boolean mask, so slicing
                # the flat member array reproduces the per-group loop exactly
                good_mask = ~bad[gs.member_idx]
                good_members = gs.member_idx[good_mask]
                good_counts = np.zeros(gs.n_groups, dtype=np.int64)
                seg_sizes = gs.sizes()
                nonempty = seg_sizes > 0
                if good_mask.size:
                    good_counts[nonempty] = np.add.reduceat(
                        good_mask.astype(np.int64), gs.indptr[:-1][nonempty]
                    )
                indptr = np.zeros(gs.n_groups + 1, dtype=np.int64)
                np.cumsum(good_counts, out=indptr[1:])
                n_bad_arr = gs.bad_counts(bad)
            side = GraphSide(
                good_indptr=indptr,
                good_members=good_members,
                n_bad=n_bad_arr,
                confused=np.zeros(gs.n_groups, dtype=bool),
                pool_departed=departed,
            )
            sides.append(side)
            reds.append(quality.is_bad.copy())
        return EpochPair(
            ring=ring,
            H=H,
            bad_mask=bad,
            red1=reds[0],
            red2=reds[1],
            side1=sides[0],
            side2=sides[1],
            ring_departed=departed,
        )

    # -- stepping -----------------------------------------------------------------

    def step(self) -> EpochReport:
        """Advance one epoch: churn, mint, build, measure."""
        self.epoch += 1
        params = self.params

        departures = 0
        if self.churn is not None:
            departures = self.churn.apply(self.pair, params, self.rng)

        new_ring, new_bad = self._population()
        new_H = make_input_graph(self.topology, new_ring)

        led1 = CostLedger()
        b1 = build_new_graph(
            self.pair, new_ring, new_H, 1, params, self.rng,
            two_graphs=self.two_graphs, ledger=led1, kernel=self.kernel,
        )
        self.ledger.merge(led1)
        if self.two_graphs:
            led2 = CostLedger()
            b2 = build_new_graph(
                self.pair, new_ring, new_H, 2, params, self.rng,
                two_graphs=True, ledger=led2, kernel=self.kernel,
            )
            self.ledger.merge(led2)
        else:
            b2 = None

        new_departed = np.zeros(new_ring.n, dtype=bool)
        side2 = b2.side if b2 is not None else b1.side
        new_pair = EpochPair(
            ring=new_ring,
            H=new_H,
            bad_mask=new_bad,
            red1=b1.red.copy(),
            red2=(b2.red.copy() if b2 is not None else b1.red.copy()),
            side1=b1.side,
            side2=side2,
            ring_departed=new_departed,
        )

        qf1, qf2 = measure_qf(
            new_pair, params, self.probes, self.rng, kernel=self.kernel
        )
        rob = evaluate_robustness(
            new_pair.group_graph(1, params), self.rng,
            sources_sampled=min(256, new_ring.n),
            kernel=self.kernel,
        )
        good_pool = max(1, int((~self.pair.bad_mask).sum()))
        mean_membership = float(
            b1.membership_counts[~self.pair.bad_mask].sum() / good_pool
        )
        report = EpochReport(
            epoch=self.epoch,
            fraction_red_1=float(new_pair.red1.mean()),
            fraction_red_2=float(new_pair.red2.mean()),
            fraction_bad_1=b1.fraction_bad,
            fraction_bad_2=(b2.fraction_bad if b2 is not None else b1.fraction_bad),
            fraction_confused_1=b1.fraction_confused,
            fraction_confused_2=(
                b2.fraction_confused if b2 is not None else b1.fraction_confused
            ),
            qf_1=qf1,
            qf_2=qf2,
            robustness=rob,
            build_1=b1,
            build_2=b2,
            departures=departures,
            routing_messages=b1.routing_messages
            + (b2.routing_messages if b2 is not None else 0),
            mean_membership=mean_membership,
        )
        self.history.append(report)
        self.pair = new_pair
        return report

    def run(self, epochs: int) -> list[EpochReport]:
        """Run ``epochs`` transitions and return their reports."""
        return [self.step() for _ in range(epochs)]
