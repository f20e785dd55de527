"""repro — reproduction of *Tiny Groups Tackle Byzantine Adversaries*.

Jaiyeola, Patron, Saia, Young, Zhou — IPDPS 2018 (arXiv:1705.10387).

The package builds the paper's full stack from scratch:

* ``repro.idspace`` — unit-ring ID space and random-oracle hashing;
* ``repro.inputgraph`` — DHT substrates with properties P1-P4 (Chord,
  distance halving, de Bruijn/D2B, Kautz/FISSIONE);
* ``repro.core`` — the contribution: ``Theta(log log n)`` groups, group
  graphs, secure routing, the static case (§II), the two-graph dynamic
  epoch protocol (§III), ε-robustness evaluation, cost accounting;
* ``repro.pow`` — the proof-of-work identity layer (§IV) and the global
  random-string propagation protocol (App. VIII);
* ``repro.adversary`` / ``repro.churn`` — threat and churn models;
* ``repro.agreement`` — in-group Byzantine agreement (phase king) and
  majority-filtered channels;
* ``repro.baselines`` — ``Theta(log n)`` groups, the cuckoo rule, single-ID;
* ``repro.analysis`` / ``repro.experiments`` — theory predictions and the
  per-claim experiment harness (E1-E12).

Quickstart::

    import numpy as np
    from repro.core import SystemParams, EpochSimulator
    from repro.churn import UniformChurn

    params = SystemParams(n=1024, beta=0.05, seed=7)
    sim = EpochSimulator(params, churn=UniformChurn(rate=0.05))
    for report in sim.run(epochs=4):
        print(report.epoch, report.fraction_red, report.robustness.epsilon_achieved)

See EXPERIMENTS.md for the paper's claims, the experiment that reproduces
each, and the measured tables.
"""

from .core.params import SystemParams

# bump whenever table content can change (it keys the result cache, so a
# bump invalidates every stored entry): 1.2.0 = dynamic-case kernels — the
# E8 window Monte-Carlo and the E12 churn cases draw from new canonical
# streams (shared-rng count windows; per-case spawned streams + pre-drawn
# event arrays), so their pre-1.2 cached tables are stale by construction
__version__ = "1.2.0"
__all__ = ["SystemParams", "__version__"]
