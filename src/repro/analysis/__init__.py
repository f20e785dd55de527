"""Theory predictions, statistics and table rendering."""

from .regimes import (
    RegimeReport,
    epoch_map_analysis,
    iterate_epoch_map,
    minimum_d2_for_stability,
)
from .stats import UniformityTest, bootstrap_ci, ks_uniform, proportion_ci
from .tables import TableResult, render_table
from .theory import (
    bad_group_probability,
    chernoff_upper,
    corollary1_cost_rows,
    group_size_for_target,
    lemma7_red_bound,
    lemma8_confusion_bound,
    union_bound_failure,
)

__all__ = [
    "TableResult",
    "render_table",
    "bad_group_probability",
    "chernoff_upper",
    "lemma7_red_bound",
    "lemma8_confusion_bound",
    "union_bound_failure",
    "group_size_for_target",
    "corollary1_cost_rows",
    "ks_uniform",
    "UniformityTest",
    "proportion_ci",
    "bootstrap_ci",
    "RegimeReport",
    "epoch_map_analysis",
    "minimum_d2_for_stability",
    "iterate_epoch_map",
]
