"""qcmod: condenser moduli for matrix tuples, nonlinear capacities on Cayley
graphs, and the matrix p-Laplace variational problem."""

__version__ = "0.1.0"

from .ri_norms import NormSpec, induced_weights, matrix_norm, norm_subgradient, vector_norm
from .operator_core import (
    Condenser,
    ContractionVariable,
    OperatorTuple,
    commutators,
    embed,
    make_condenser,
    objective,
)
from .condenser_solver import SolveOptions, SolveReport, scale_sweep, solve_condenser, sup_over_projections
from .cayley import (
    CayleyBall,
    GroupSpec,
    build_ball,
    graph_capacity,
    harmonic_capacity_oracle,
    parabolicity_scan,
    total_variation_capacity_lp,
    truncated_regular_rep,
    verify_transfer,
)
from .plaplace import (
    SmoothProblem,
    ThetaReport,
    euler_lagrange_report,
    minimize_smooth,
    smooth_objective,
    theta,
    uniqueness_probe,
)
from .experiments import (
    MultiplicityModel,
    gamma1_experiment,
    hybrid_exponent_scan,
    ratio_experiment,
)

__all__ = [
    "NormSpec", "induced_weights", "vector_norm", "matrix_norm", "norm_subgradient",
    "OperatorTuple", "Condenser", "ContractionVariable", "make_condenser", "embed",
    "commutators", "objective",
    "SolveOptions", "SolveReport", "solve_condenser", "sup_over_projections", "scale_sweep",
    "GroupSpec", "CayleyBall", "build_ball", "graph_capacity", "truncated_regular_rep",
    "verify_transfer", "parabolicity_scan", "harmonic_capacity_oracle",
    "total_variation_capacity_lp",
    "SmoothProblem", "ThetaReport", "smooth_objective", "theta", "minimize_smooth",
    "euler_lagrange_report", "uniqueness_probe",
    "MultiplicityModel", "gamma1_experiment", "ratio_experiment", "hybrid_exponent_scan",
]
