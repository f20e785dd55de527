"""Empirical validation of input-graph properties P1-P4 (paper §I-C).

The paper *assumes* an input graph with P1-P4 and proves everything on top;
a reproduction must therefore demonstrate that its substrate graphs actually
deliver those properties, including under the adversarial ID-omission of
Lemma 5.  :func:`validate_properties` measures all four on a concrete graph
instance and reports pass/fail against the paper's bounds with explicit
constants.

* P1: max/mean traversed IDs over random searches vs ``D = O(log N)``.
* P2: max ownership arc vs ``(1 + delta'') (ln n) / n`` (for u.a.r. IDs the
  max arc is ``Theta(log n / n)`` w.h.p. — that is the load-balance envelope
  the proofs use, e.g. Lemma 6/10).
* P3: degree bounds, and stored neighbor sets equal to the linking rule
  recomputed from the ring.
* P4: empirical congestion — max over IDs of the fraction of random searches
  traversing it — vs ``C = O(log^c n / n)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import math

import numpy as np

from .base import InputGraph

__all__ = ["PropertyReport", "validate_properties"]

# Hidden constants of the P2-P4 bounds (P1's is the topology's own
# ``hop_constant``: multi-phase routers like Viceroy have larger ones).
# Generous enough that a *correct* construction passes at every n we test,
# while a broken one (e.g. linear-path routing) fails loudly.
_ARC_CONSTANT = 6.0
_DEGREE_CONSTANT = 8.0
_CONGESTION_CONSTANT = 8.0


@dataclass(frozen=True)
class PropertyReport:
    """Measured P1-P4 statistics for one graph instance."""

    name: str
    n: int
    probes: int
    # P1
    mean_hops: float
    max_hops: int
    hop_bound: int
    all_resolved: bool
    # P2
    max_arc_fraction: float
    arc_bound: float
    # P3
    mean_degree: float
    max_degree: int
    degree_bound: int
    links_verifiable: bool
    # P4
    max_congestion: float
    congestion_bound: float
    satisfied: Mapping[str, bool] = field(default_factory=dict)

    def ok(self) -> bool:
        """All four properties within bounds."""
        return all(self.satisfied.values())

    def rows(self) -> list[tuple[str, str, str, str]]:
        """(property, measured, bound, ok) rows for table rendering."""
        return [
            ("P1 search hops (max)", f"{self.max_hops}", f"<= {self.hop_bound}",
             "ok" if self.satisfied["P1"] else "FAIL"),
            ("P2 max arc fraction", f"{self.max_arc_fraction:.2e}",
             f"<= {self.arc_bound:.2e}", "ok" if self.satisfied["P2"] else "FAIL"),
            ("P3 max degree", f"{self.max_degree}", f"<= {self.degree_bound}",
             "ok" if self.satisfied["P3"] else "FAIL"),
            ("P4 max congestion", f"{self.max_congestion:.2e}",
             f"<= {self.congestion_bound:.2e}", "ok" if self.satisfied["P4"] else "FAIL"),
        ]


def validate_properties(
    graph: InputGraph,
    probes: int = 20_000,
    rng: np.random.Generator | None = None,
) -> PropertyReport:
    """Measure P1-P4 on ``graph`` with ``probes`` random searches."""
    rng = rng or np.random.default_rng(0)
    n = graph.n
    log2n = math.log2(max(2, n))
    ln_n = math.log(max(2, n))

    batch = graph.random_route_batch(probes, rng)
    hops = batch.hop_counts
    mean_hops = float(hops.mean())
    max_hops = int(hops.max())
    hop_bound = max(8, math.ceil(graph.hop_constant * log2n))

    arcs = graph.ring.arc_lengths()
    max_arc = float(arcs.max())
    arc_bound = _ARC_CONSTANT * ln_n / n

    degs = graph.degrees()
    mean_degree = float(degs.mean())
    max_degree = int(degs.max())
    # P3 allows |S_w| = O(log^gamma n); gamma = 1 covers Chord, and the
    # constant-degree graphs sit far below the bound.
    degree_bound = max(8, math.ceil(_DEGREE_CONSTANT * ln_n))

    traversals = batch.traversal_counts(n)
    max_congestion = float(traversals.max()) / probes
    congestion_bound = (
        _CONGESTION_CONSTANT * (ln_n ** graph.congestion_exponent) / n
    )

    # Any ID can recompute S_w from the ring (P3), so for a sample of IDs
    # the stored set must verify every link of the rule computed afresh and
    # hold no other (stored rows are sorted and distinct).
    rule_ptr, rule_idx = graph._neighbor_sets()
    links_ok = all(
        degs[w] == rule_ptr[w + 1] - rule_ptr[w]
        and all(graph.verify_link(int(w), int(u))
                for u in rule_idx[rule_ptr[w]:rule_ptr[w + 1]])
        for w in rng.integers(0, n, size=min(64, n))
    )

    satisfied = {
        "P1": bool(max_hops <= hop_bound and batch.resolved.all()),
        "P2": bool(max_arc <= arc_bound),
        "P3": bool(max_degree <= degree_bound and links_ok),
        "P4": bool(max_congestion <= congestion_bound),
    }
    return PropertyReport(
        name=graph.name,
        n=n,
        probes=probes,
        mean_hops=mean_hops,
        max_hops=max_hops,
        hop_bound=hop_bound,
        all_resolved=bool(batch.resolved.all()),
        max_arc_fraction=max_arc,
        arc_bound=arc_bound,
        mean_degree=mean_degree,
        max_degree=max_degree,
        degree_bound=degree_bound,
        links_verifiable=links_ok,
        max_congestion=max_congestion,
        congestion_bound=congestion_bound,
        satisfied=satisfied,
    )
