"""System initialization (paper Appendix X, following Guerraoui et al. [21]).

The epoch protocol assumes correct initial group graphs ``G^0_1, G^0_2``.
Appendix X sketches the one-time "heavyweight" bootstrap of [21] that
justifies the assumption without a central authority:

1. **discovery** — every good ID learns of every other via an all-to-all
   flood over the nascent overlay (``O(n |E|)`` messages);
2. **election** — all IDs run Byzantine agreement to elect a
   *representative cluster* of ``Theta(log n)`` IDs; with u.a.r. selection
   the cluster has a good majority w.h.p. (soft-``O(n^{3/2})`` messages in
   [21]; we charge the cost model accordingly);
3. **assignment** — the representative cluster derives every group's
   membership (here: by publishing the membership oracle seed, after which
   each assignment is independently verifiable) and installs the links.

:func:`heavyweight_init` simulates the three stages at protocol level —
electing the cluster by running :func:`~repro.agreement.phase_king` over
candidate slates, forming the groups through the elected cluster, and
reporting the message bill — then hands back a valid epoch-0
:class:`~repro.core.membership.EpochPair`.  The pair is built by
:func:`~repro.core.dynamic.initial_pair`, the function that builds the
`EpochSimulator`'s first pair, so the two are the same by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..agreement.phase_king import phase_king
from ..idspace.ring import Ring
from ..inputgraph import make_input_graph
from .costs import CostLedger
from .dynamic import initial_pair
from .membership import EpochPair
from .params import SystemParams

__all__ = ["InitReport", "heavyweight_init", "elect_representative_cluster"]


@dataclass(frozen=True)
class InitReport:
    """Outcome and cost of the one-time initialization."""

    cluster: np.ndarray            # ring indices of the representative cluster
    cluster_good_majority: bool
    election_agreed: bool
    discovery_messages: int
    election_messages: int
    assignment_messages: int
    pair: EpochPair


def elect_representative_cluster(
    n: int,
    bad_mask: np.ndarray,
    params: SystemParams,
    rng: np.random.Generator,
    ba_committee: int = 24,
) -> tuple[np.ndarray, bool, int]:
    """Elect a ``Theta(log n)`` representative cluster via BA.

    All IDs know each other after discovery; a u.a.r. candidate slate is
    put to Byzantine agreement (simulated over a sampled committee of
    ``ba_committee`` players — running BA over all n players costs the same
    decision and quadratically more simulation time; the committee's fault
    fraction matches the population's).  Returns (cluster, agreed, messages).
    """
    cluster_size = max(4, round(2.0 * params.ln_n))
    slate = rng.choice(n, size=cluster_size, replace=False)
    committee = rng.choice(n, size=min(ba_committee, n), replace=False)
    committee_bad = bad_mask[committee]
    # the vote: accept (1) / reject (0) the slate; good players accept
    inputs = np.ones(committee.size, dtype=np.int64)
    res = phase_king(inputs, committee_bad, rng)
    agreed = res.agreement and res.validity
    # [21]'s election bill is soft-O(n^{3/2}); charge it explicitly
    election_messages = int(n ** 1.5) + res.messages
    return np.sort(slate), agreed, election_messages


def heavyweight_init(
    params: SystemParams,
    ids: np.ndarray,
    bad_mask: np.ndarray,
    rng: np.random.Generator,
    topology: str = "chord",
    ledger: CostLedger | None = None,
) -> InitReport:
    """Run the App.-X bootstrap and return a valid epoch-0 pair."""
    ledger = ledger if ledger is not None else CostLedger()
    ring = Ring(ids)
    n = ring.n
    bad_mask = np.asarray(bad_mask, dtype=bool)[:n]
    H = make_input_graph(topology, ring)

    # 1. discovery: all-to-all flood over the overlay edges
    edges = int(H.neighbor_lists()[1].size)
    discovery = n * edges
    ledger.add_messages("init_discovery", discovery)

    # 2. election
    cluster, agreed, election_messages = elect_representative_cluster(
        n, bad_mask, params, rng
    )
    ledger.add_messages("init_election", election_messages)
    good_majority = bool((~bad_mask[cluster]).sum() * 2 > cluster.size)

    # 3. assignment: the cluster derives both graphs' memberships and
    # notifies every member (1 message per membership slot per graph)
    pair = initial_pair(ring, bad_mask, H, params, rng)
    assignment = sum(side.good_members.size + int(side.n_bad.sum())
                     for side in (pair.side1, pair.side2))
    ledger.add_messages("init_assignment", assignment)
    return InitReport(
        cluster=cluster,
        cluster_good_majority=good_majority,
        election_agreed=agreed,
        discovery_messages=discovery,
        election_messages=election_messages,
        assignment_messages=assignment,
        pair=pair,
    )
