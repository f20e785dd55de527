"""ε-robustness evaluation (paper §I-A, Theorem 3).

Definition (§I-A): for small ``eps > 0``, at least ``(1 - eps) n`` groups
have a non-faulty majority **and** can securely route messages to each
other.  Theorem 3 instantiates ``eps = O(1/poly(log n))`` and phrases the
guarantee as:

* all but an ``O(1/poly(log n))``-fraction of groups are good;
* all but an ``O(1/poly(log n))``-fraction of IDs can successfully search
  for all but an ``O(1/poly(log n))``-fraction of the resources.

:func:`evaluate_robustness` measures all three fractions on a marked group
graph by Monte-Carlo probing, reporting them against the ``1/ln^{k-c} n``
envelope the proofs target (Lemma 4 / Lemma 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .group_graph import GroupGraph

__all__ = ["RobustnessReport", "evaluate_robustness"]


@dataclass(frozen=True)
class RobustnessReport:
    """Measured ε-robustness of one group graph."""

    n: int
    fraction_red: float
    fraction_failed_searches: float     # overall search failure prob (X-hat)
    fraction_blocked_ids: float         # IDs whose searches mostly fail
    fraction_unreachable_resources: float  # key-space mass behind red groups
    eps_target: float                   # 1 / ln^{k-c} n envelope
    probes: int

    @property
    def epsilon_achieved(self) -> float:
        """The largest of the three measured bad fractions."""
        return max(
            self.fraction_red,
            self.fraction_blocked_ids,
            self.fraction_unreachable_resources,
        )

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("fraction red groups", f"{self.fraction_red:.4f}"),
            ("fraction failed searches", f"{self.fraction_failed_searches:.4f}"),
            ("fraction blocked IDs", f"{self.fraction_blocked_ids:.4f}"),
            ("fraction unreachable resources", f"{self.fraction_unreachable_resources:.4f}"),
            ("eps envelope (1/ln^(k-c) n)", f"{self.eps_target:.4f}"),
        ]


def evaluate_robustness(
    gg: GroupGraph,
    rng: np.random.Generator,
    sources_sampled: int = 256,
    targets_per_source: int = 32,
    blocked_threshold: float = 0.5,
) -> RobustnessReport:
    """Probe a group graph for the three Theorem-3 fractions.

    * ``fraction_blocked_ids``: sample ``sources_sampled`` blue source groups,
      give each ``targets_per_source`` random keys; a source is *blocked* if
      more than ``blocked_threshold`` of its searches fail (red sources are
      blocked by definition).
    * ``fraction_unreachable_resources``: over all sampled searches from
      non-blocked sources, the fraction of keys whose search failed —
      an unbiased estimate of the key-space mass unreachable per Theorem 3.

    All probes are routed and classified as one batch.
    """
    n = gg.n
    k = gg.params.k
    c = gg.H.congestion_exponent
    eps_target = 1.0 / (np.log(max(np.e, n)) ** max(0.5, k - c))

    src = rng.integers(0, n, size=sources_sampled)
    src_rep = np.repeat(src, targets_per_source)
    tgt = rng.random(src_rep.size)
    success = gg.search_success(src_rep, tgt).reshape(
        sources_sampled, targets_per_source
    )

    per_source_fail = 1.0 - success.mean(axis=1)
    blocked = (per_source_fail > blocked_threshold) | gg.red[src]
    fraction_blocked = float(blocked.mean())

    ok_sources = ~blocked
    if ok_sources.any():
        unreachable = float(1.0 - success[ok_sources].mean())
    else:
        unreachable = 1.0

    return RobustnessReport(
        n=n,
        fraction_red=gg.fraction_red,
        fraction_failed_searches=float(1.0 - success.mean()),
        fraction_blocked_ids=fraction_blocked,
        fraction_unreachable_resources=unreachable,
        eps_target=float(eps_target),
        probes=int(src_rep.size),
    )
