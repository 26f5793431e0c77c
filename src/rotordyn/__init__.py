"""Multirotor rigid-body dynamics: Newton-Euler and Euler-Lagrange models,
Euler-angle kinematics, a fixed-step RK4 integrator, model-equivalence
checks and a feedback-linearization flight controller."""

from .kinematics import (
    SingularConfiguration,
    rotation,
    skew,
    w_inverse,
    w_matrix,
)
from .models import (
    QuadParams,
    el_lit_derivative,
    mixer,
    ne_derivative,
    rel_derivative,
)
from .integrators import Trajectory, simulate
from .lab import (
    ComparisonConfig,
    check_proof_chain,
    check_relations,
    run_model_comparison,
    run_oracle_comparison,
    simulate_model,
)
from .control import Gains, HelixSpec, InfeasibleAttitude, gain_sweep, run_tracking

__all__ = [
    "SingularConfiguration",
    "rotation",
    "skew",
    "w_inverse",
    "w_matrix",
    "QuadParams",
    "mixer",
    "ne_derivative",
    "el_lit_derivative",
    "rel_derivative",
    "Trajectory",
    "simulate",
    "ComparisonConfig",
    "check_relations",
    "check_proof_chain",
    "run_model_comparison",
    "run_oracle_comparison",
    "simulate_model",
    "Gains",
    "HelixSpec",
    "InfeasibleAttitude",
    "run_tracking",
    "gain_sweep",
]

__version__ = "0.1.0"
