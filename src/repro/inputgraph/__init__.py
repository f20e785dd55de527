"""Input-graph substrates satisfying P1-P4 (paper §I-C).

Factory: :func:`make_input_graph` builds a topology by name over an ID set.
"""

from __future__ import annotations

import numpy as np

from ..idspace.ring import Ring, index_dtype_for
from .base import PADDING, InputGraph, RouteBatch
from .chord import ChordGraph
from .debruijn import DeBruijnGraph
from .distance_halving import DistanceHalvingGraph
from .kautz import KautzGraph
from .properties import PropertyReport, validate_properties
from .viceroy import ViceroyGraph

__all__ = [
    "PADDING",
    "InputGraph",
    "RouteBatch",
    "ChordGraph",
    "DeBruijnGraph",
    "DistanceHalvingGraph",
    "KautzGraph",
    "ViceroyGraph",
    "PropertyReport",
    "validate_properties",
    "make_input_graph",
    "TOPOLOGIES",
]

TOPOLOGIES = {
    "chord": ChordGraph,
    "distance-halving": DistanceHalvingGraph,
    "debruijn": DeBruijnGraph,
    "kautz": KautzGraph,
    "viceroy": ViceroyGraph,
}


def make_input_graph(
    name: str,
    ids: np.ndarray | Ring,
    index_dtype: str | np.dtype | None = None,
) -> InputGraph:
    """Build the named topology over ``ids`` (array of ID values or a Ring).

    ``index_dtype`` selects the ring-index storage policy (``"auto"`` /
    ``"int32"`` / ``"int64"``, see :func:`repro.idspace.ring.index_dtype_for`);
    when a prebuilt :class:`Ring` is passed with a different policy, the ring
    is re-wrapped over the same IDs.
    """
    try:
        cls = TOPOLOGIES[name]
    except KeyError:
        raise ValueError(f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}") from None
    if isinstance(ids, Ring):
        ring = ids
        if index_dtype is not None and \
                ring.index_dtype != index_dtype_for(ring.n, index_dtype):
            ring = Ring(ring.ids, index_dtype=index_dtype)
    else:
        ring = Ring(ids, index_dtype=index_dtype)
    return cls(ring)
