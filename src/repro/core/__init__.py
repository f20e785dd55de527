"""Core: the paper's contribution — tiny-group ε-robust overlays.

Public API re-exports.  One rule decides which groups are bad
(:func:`~repro.core.groups.composition_bad`), and one classifier decides
every search (:meth:`GroupGraph.evaluate`, whose
:class:`BatchSearchOutcome` the :class:`SecureRouter` batch paths return
too).
"""

from .bootstrap import (
    BootstrapGroup,
    bootstrap_failure_probability,
    bootstrap_group_count,
    form_bootstrap_group,
)
from .costs import CostLedger, CostPrediction, corollary1_predictions
from .dynamic import EpochReport, EpochSimulator
from .group_graph import BatchSearchOutcome, GroupGraph
from .initialization import InitReport, elect_representative_cluster, heavyweight_init
from .quarantine import QuarantinePolicy, QuarantineState, SpamRoundReport
from .storage import GroupStore, StoreStats
from .groups import (
    GroupQuality,
    GroupSet,
    build_groups,
    build_groups_fast,
    classify_groups,
)
from .membership import BuildReport, EpochPair, GraphSide, build_new_graph, measure_qf
from .params import DEFAULTS, SystemParams
from .robustness import RobustnessReport, evaluate_robustness
from .secure_routing import SecureRouter, SecureSearchOutcome
from .static_case import (
    StaticSearchStats,
    constructive_static_graph,
    measure_responsibility_bound,
    measure_static_search,
    synthetic_static_graph,
)

__all__ = [
    "SystemParams",
    "DEFAULTS",
    "GroupSet",
    "GroupQuality",
    "build_groups",
    "build_groups_fast",
    "classify_groups",
    "GroupGraph",
    "BatchSearchOutcome",
    "StaticSearchStats",
    "synthetic_static_graph",
    "constructive_static_graph",
    "measure_static_search",
    "measure_responsibility_bound",
    "SecureRouter",
    "SecureSearchOutcome",
    "RobustnessReport",
    "evaluate_robustness",
    "CostLedger",
    "CostPrediction",
    "corollary1_predictions",
    "EpochPair",
    "GraphSide",
    "BuildReport",
    "build_new_graph",
    "measure_qf",
    "EpochSimulator",
    "EpochReport",
    "BootstrapGroup",
    "form_bootstrap_group",
    "bootstrap_failure_probability",
    "bootstrap_group_count",
    "GroupStore",
    "StoreStats",
    "QuarantinePolicy",
    "QuarantineState",
    "SpamRoundReport",
    "InitReport",
    "heavyweight_init",
    "elect_representative_cluster",
]
