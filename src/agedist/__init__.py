"""Age-distortion tradeoff solver for discrete-time packet selection."""

from .model import FinitePMF, Geometric, ImportanceDist, InterspeakDist, Model
from .solver import (
    PolicySolution,
    TradeoffCurve,
    c_value,
    evaluate_components,
    evaluate_policy,
    generic_policy_iteration,
    one_step_cost,
    policy_improve,
    policy_iteration,
    sweep_eta,
)
from .statetree import StateTree

__all__ = [
    "FinitePMF",
    "Geometric",
    "ImportanceDist",
    "InterspeakDist",
    "Model",
    "PolicySolution",
    "StateTree",
    "TradeoffCurve",
    "c_value",
    "evaluate_components",
    "evaluate_policy",
    "generic_policy_iteration",
    "one_step_cost",
    "policy_improve",
    "policy_iteration",
    "sweep_eta",
]
