"""E13 — §I footnote 2: quarantining misbehaving IDs damps spam.

A spam campaign (``S`` bad senders x ``r`` invalid requests per epoch)
against one group, with and without the quarantine policy.  Without it,
every request costs a dual-search verification forever; with it, a sender
is dropped after ``strikes`` verified-bad requests, so per-epoch
verification cost collapses to ~0 once the campaign's senders are known —
while honest senders' false-quarantine exposure stays at the ``q_f^2``
level (Lemma 10's damping, measured alongside).

Declared as a single-cell :class:`~repro.sim.sweep.SweepSpec` (the epoch
series is stateful: quarantine sets accumulate across epochs).
"""

from __future__ import annotations

import numpy as np

from ..core.params import SystemParams
from ..core.quarantine import QuarantinePolicy, QuarantineState
from ..sim.sweep import CellOut, SweepSpec

__all__ = ["build_spec"]


def _cell(
    rng: np.random.Generator, *, n: int, spammers: int, honest: int,
    requests_per_epoch: int, epochs: int, qf: float, strikes: int, seed: int,
):
    params = SystemParams(n=n, seed=seed)
    verification_cost = 4 * params.group_solicit_size**2  # dual search x2 graphs

    spam_ids = np.arange(spammers)
    honest_ids = np.arange(1000, 1000 + honest)

    with_q = QuarantineState(
        QuarantinePolicy(strikes=strikes), params.group_solicit_size
    )
    without_q = QuarantineState(
        QuarantinePolicy(strikes=10**9), params.group_solicit_size
    )

    rows = []
    honest_hits_total = 0
    for ep in range(1, epochs + 1):
        r_no = without_q.process_epoch(
            ep, spam_ids, requests_per_epoch, verification_cost, rng
        )
        r_yes = with_q.process_epoch(
            ep, spam_ids, requests_per_epoch, verification_cost, rng
        )
        honest_hits_total += with_q.process_honest_epoch(
            ep, honest_ids, requests_per_epoch, qf, rng
        )
        saved = r_no.verification_messages - r_yes.verification_messages
        rows.append([
            ep, r_no.requests_processed, r_yes.requests_processed,
            saved, with_q.quarantined_count - honest_hits_total,
            honest_hits_total,
        ])
    return CellOut(
        rows=rows,
        notes=(
            f"after the strike threshold (epoch ~{strikes // requests_per_epoch + 1}) "
            f"spam verification cost drops to zero; honest false-quarantines "
            f"track {honest} * {requests_per_epoch} * qf^2 * epochs / strikes "
            f"= {honest * requests_per_epoch * qf * qf * epochs / strikes:.2f}",
        ),
    )


def build_spec(
    seed: int = 0,
    fast: bool = True,
    n: int = 1024,
    spammers: int = 40,
    honest: int = 200,
    requests_per_epoch: int = 5,
    epochs: int = 6,
    qf: float = 0.05,
    strikes: int = 3,
) -> SweepSpec:
    return SweepSpec(
        experiment="E13",
        title=f"Quarantine vs spam ({spammers} spammers x {requests_per_epoch} req/epoch)",
        headers=[
            "epoch", "processed (no quarantine)", "processed (quarantine)",
            "verif. msgs saved", "quarantined", "honest quarantined",
        ],
        cell=_cell,
        context=dict(
            n=n, spammers=spammers, honest=honest,
            requests_per_epoch=requests_per_epoch, epochs=epochs, qf=qf,
            strikes=strikes, seed=seed,
        ),
        seed=seed,
    )
