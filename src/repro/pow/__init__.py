"""Proof-of-work identity layer (paper §IV + Appendix VIII)."""

from .identity import IdentityCard, IdentityRegistry, MintStats
from .precompute import PrecomputeOutcome, simulate_precompute_attack
from .propagation import PropagationResult, StringPropagation
from .puzzles import PuzzleScheme, Solution
from .strings import (
    BinTable,
    StringCandidate,
    sample_adversary_outputs,
    sample_honest_minimum,
    solution_set,
)

__all__ = [
    "PuzzleScheme",
    "Solution",
    "IdentityCard",
    "IdentityRegistry",
    "MintStats",
    "StringCandidate",
    "BinTable",
    "solution_set",
    "sample_honest_minimum",
    "sample_adversary_outputs",
    "StringPropagation",
    "PropagationResult",
    "PrecomputeOutcome",
    "simulate_precompute_attack",
]
