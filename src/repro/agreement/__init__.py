"""In-group Byzantine agreement (paper §I)."""

from .phase_king import AdversaryPolicy, BAResult, phase_king

__all__ = ["phase_king", "BAResult", "AdversaryPolicy"]
