"""Core: the paper's contribution — tiny-group ε-robust overlays.

Public API re-exports.
"""

from .bootstrap import (
    BootstrapGroup,
    bootstrap_failure_probability,
    bootstrap_group_count,
    form_bootstrap_group,
)
from .costs import CostLedger, CostPrediction, corollary1_predictions
from .dynamic import EpochReport, EpochSimulator
from .group_graph import GroupGraph, SearchEvaluation
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
from .secure_routing import (
    BatchSearchOutcome,
    SecureRouter,
    SecureSearchOutcome,
    majority_filter,
)
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
    "SearchEvaluation",
    "StaticSearchStats",
    "synthetic_static_graph",
    "constructive_static_graph",
    "measure_static_search",
    "measure_responsibility_bound",
    "SecureRouter",
    "SecureSearchOutcome",
    "BatchSearchOutcome",
    "majority_filter",
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
