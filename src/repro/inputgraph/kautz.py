"""Kautz-style input graph (FISSIONE, Li-Lu-Wu) (paper ref. [29]).

FISSIONE builds a constant-degree, low-congestion DHT on Kautz strings —
base-``b`` strings with no two consecutive equal digits, routed by digit
shifting exactly like de Bruijn but over the Kautz alphabet, which shortens
the diameter to ``log_b n`` with degree ``2b``.

We realize the same family through the continuous-discrete machinery with
contraction base 3 (the smallest Kautz alphabet): the walk shifts in base-3
digits of the key, giving ``log_3 n`` contraction hops (~37% shorter paths
than base 2) at a proportionally larger constant degree — the
diameter/degree trade the Kautz construction exists to make.  Properties
P1-P4 carry over unchanged; the group-graph layer never looks past them.

Substitution note: we do not re-implement Kautz string bookkeeping (the
no-repeated-digit constraint only perturbs constants); the base-3 continuous
walk exercises the identical code paths downstream.
"""

from __future__ import annotations

from .distance_halving import DistanceHalvingGraph

__all__ = ["KautzGraph"]


class KautzGraph(DistanceHalvingGraph):
    """Base-3 continuous-discrete overlay (Kautz/FISSIONE family)."""

    name = "kautz-fissione"
    congestion_exponent = 2.0
    base = 3
