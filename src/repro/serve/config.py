"""The serve layer's run configuration — one value, two consumers.

The live service and the offline oracle must build *identical* simulators:
same parameters, same topology, same churn model, same RNG stream.  The
whole byte-identity guarantee of :mod:`repro.serve.oracle` reduces to
"both sides called :func:`make_simulator` on an equal
:class:`ServeConfig`", so the factory lives here and nothing else
constructs the service's simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..churn.models import UniformChurn
from ..core.dynamic import EpochSimulator
from ..core.params import SystemParams

__all__ = ["ServeConfig", "make_simulator"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything that determines a serve run's epoch trajectory.

    ``epochs`` is how many transitions the service publishes beyond the
    initial epoch-0 snapshot; ``epoch_period_s`` paces them so queries
    interleave with live churn; ``churn_rate`` drives a
    :class:`~repro.churn.models.UniformChurn` (0 disables churn).
    ``probes`` is the per-epoch measurement budget — it shapes step cost
    and RNG consumption, so oracle and service must agree on it.

    A configuration the simulator cannot run raises ``ValueError`` here,
    before a service binds or answers anything: whatever
    :class:`~repro.core.params.SystemParams` rejects, an unknown
    topology, and negative epoch, probe, churn or period values.
    """

    n: int = 512
    beta: float = 0.05
    seed: int = 0
    topology: str = "chord"
    epochs: int = 3
    churn_rate: float = 0.05
    probes: int = 500
    epoch_period_s: float = 0.5

    def __post_init__(self):
        from ..inputgraph import TOPOLOGIES

        self.params  # SystemParams checks n and beta
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from "
                f"{', '.join(sorted(TOPOLOGIES))}"
            )
        for name in ("epochs", "probes", "churn_rate", "epoch_period_s"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )

    @property
    def params(self) -> SystemParams:
        return SystemParams(n=self.n, beta=self.beta, seed=self.seed)

    def describe(self) -> str:
        return (
            f"n={self.n} beta={self.beta} seed={self.seed} "
            f"topology={self.topology} epochs={self.epochs} "
            f"churn={self.churn_rate} probes={self.probes} "
            f"period={self.epoch_period_s}s"
        )


def make_simulator(config: ServeConfig) -> EpochSimulator:
    """The one constructor both the service and the oracle go through.

    Queries never touch the returned simulator's RNG, so two simulators
    from equal configs walk bit-identical epoch trajectories no matter
    how much traffic one of them served along the way.
    """
    return EpochSimulator(
        config.params,
        topology=config.topology,
        churn=(
            UniformChurn(rate=config.churn_rate)
            if config.churn_rate > 0 else None
        ),
        probes=config.probes,
        rng=np.random.default_rng(config.seed),
    )
