"""Smooth condenser variational problem for Schatten p-classes, 2 <= p < infinity.

For a tuple of selfadjoint matrices and a selfadjoint A the smooth objective is

    I(A) = trace(S(A)^(p/2)),    S(A) = -sum_j [A, T_j]^2 = sum_j C_j^* C_j  (PSD),

with C_j = [A, T_j], the p-th power of the Schatten-p norm of the stacked
commutator column. Its Euclidean gradient is -(p/2) * Theta(A) with

    Theta = sum_k [T_k, C_k G + G C_k],   G = S^(p/2 - 1),

the matrix analogue of div(|grad u|^(p-2) grad u) with the multiplication
replaced by a Jordan-type symmetrization. One kernel, ``_energy``, returns
both I and Theta from one set of commutators and at most one eigendecomposition
of S; the objective, Theta, the solver's gradient and the certificates below
all read it. Minimizers over the condenser's
feasible set satisfy sign conditions on compressions of the gradient
direction -Theta by enlarged level-set projections (P1, Q1); those are
checked numerically here, and the proportionality constant -p/2 is validated
by finite differences in the test suite before the certificates are trusted.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ._solvers import Multistart, SolveOptions, SolveReport, _starts, projected_descent, safe_cut
from .errors import NumericError, ValidationError
from .operator_core import (
    Condenser,
    ContractionVariable,
    OperatorTuple,
    _fixed_variable,
    _herm,
    _middle_linear_min,
    _middle_starts,
    commutators,
    embed,
    project_middle,
)


@dataclass(frozen=True)
class SmoothProblem:
    tau: OperatorTuple
    condenser: Condenser
    p: float

    def __post_init__(self):
        if not all(self.tau.selfadjoint_flags):
            raise ValidationError("the smooth problem requires all components selfadjoint")
        if not (2.0 <= self.p < np.inf):
            raise ValidationError("p must satisfy 2 <= p < infinity")
        if self.tau.dim != self.condenser.dim:
            raise ValidationError("tuple and condenser dimensions differ")


@dataclass
class ThetaReport:
    Theta: np.ndarray
    P1: np.ndarray | None = None
    Q1: np.ndarray | None = None
    compression_eigs: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    @property
    def passed(self):
        return all(self.checks.values()) if self.checks else False


def _as_matrix(A):
    return embed(A) if isinstance(A, ContractionVariable) else np.asarray(A)


def _energy(prob, A):
    """(I(A), Theta(A)) at a selfadjoint matrix A. At p = 2, G is the identity
    and I = sum_k ||C_k||_F^2, so S is never decomposed; otherwise one eigh of
    S = -sum_k C_k^2 gives I = sum w^(p/2) and G = V w^(p/2 - 1) V^*."""
    Cs = commutators(prob.tau, A)
    if prob.p == 2.0:
        f = float(sum(np.vdot(C, C).real for C in Cs))
        Ms = [C + C for C in Cs]
    else:
        S = _herm(sum(-(C @ C) for C in Cs))
        try:
            w, V = np.linalg.eigh(S)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
            raise NumericError(
                f"eigendecomposition of S failed: {exc}; "
                f"norm(S)={np.linalg.norm(S):.3e}, dim={S.shape[0]}"
            ) from exc
        w = np.clip(w, 0.0, None)
        f = float(np.sum(w ** (prob.p / 2.0)))
        G = (V * w ** (prob.p / 2.0 - 1.0)) @ V.conj().T
        Ms = [C @ G + G @ C for C in Cs]
    return f, _herm(sum(T @ M - M @ T for T, M in zip(prob.tau.components, Ms)))


def smooth_objective(prob, A):
    """I(A) = trace(S^(p/2)) at a selfadjoint A, read from the energy kernel;
    zero exactly when A commutes with every component."""
    return _energy(prob, _as_matrix(A))[0]


def theta(prob, X):
    """The Theta operator at a selfadjoint X, read from the energy kernel; the
    gradient of I is -(p/2) Theta."""
    return ThetaReport(Theta=_energy(prob, _as_matrix(X))[1])


def _middle_fg(prob):
    Vm = prob.condenser.basis_mid
    half_p = prob.p / 2.0

    def fg(B):
        f, Th = _energy(prob, prob.condenser.embed_middle(B))
        return f, _herm(Vm.conj().T @ (-half_p * Th) @ Vm)

    return fg


def minimize_smooth(prob, opts=None):
    """Projected gradient descent (Barzilai-Borwein steps from a first step
    of 1 / |gradient|, Armijo backtracking) on the middle block, one run per
    restart. Convex, so restarts must agree. The report's ``lower`` is the
    ``safe_cut`` of the gradient at the minimizer."""
    opts = opts or SolveOptions()
    cond = prob.condenser
    var = _fixed_variable(cond)
    if var is not None:
        val = smooth_objective(prob, embed(var))
        return SolveReport.closed_form(val, var, var.feasibility_residuals(),
                                       restart_values=[val], p=prob.p)

    fg = _middle_fg(prob)
    proj = lambda B: project_middle(cond, B)

    def restart(ms, B0):
        ms.run(projected_descent, fg, proj, B0, max_iters=opts.max_iters,
               residual_tol=opts.residual_tol(fg(B0)[0]))

    def finish(B):
        var = ContractionVariable(cond, B)
        return var, var.feasibility_residuals(), safe_cut(*fg(B), B, _middle_linear_min)[1]

    return Multistart.solve(_starts(*_middle_starts(cond, 1.0), opts), restart, finish, p=prob.p)


_EPS1 = 1e-6  # euler_lagrange_report's level-set tolerance
_DELTA_REL = 1e-6  # and its sign-condition slack, relative to ||Theta||_op


def euler_lagrange_report(prob, X):
    """Sign-condition certificates at a converged minimizer.

    P1 / Q1 are the maximal spectral projections of X for eigenvalues within
    eps1 = ``_EPS1`` of 1 / 0; they contain P / Q and are mutually
    orthogonal. The gradient of I is -(p/2) Theta and X may only decrease on
    ran(P1 - P) and only increase on ran(Q1 - Q), so X is optimal when the
    compressions of -Theta (whose spectra ``compression_eigs`` holds) satisfy

        (I - P - Q1) (-Theta) (I - P - Q1)  <= +delta,
        (I - P1 - Q) (-Theta) (I - P1 - Q)  >= -delta,
        spectral radius of (I - P1 - Q1) (-Theta) (I - P1 - Q1) <= delta,

    with delta = ``_DELTA_REL`` * ||Theta||_op. Eigenvalues of X falling in
    (eps1, 2 eps1) or (1 - 2 eps1, 1 - eps1) make the level-set extraction
    ambiguous; the report is then flagged "boundary-ambiguous".
    """
    Xm, d, eps1 = _as_matrix(X), prob.tau.dim, _EPS1
    w, V = np.linalg.eigh(_herm(Xm))
    hi = w >= 1.0 - eps1
    lo = w <= eps1
    ambiguous = np.any((w > eps1) & (w < 2 * eps1)) or np.any(
        (w > 1.0 - 2 * eps1) & (w < 1.0 - eps1)
    )
    V1 = V[:, hi]
    V0 = V[:, lo]
    P1 = V1 @ V1.conj().T if V1.size else np.zeros((d, d), dtype=V.dtype)
    Q1 = V0 @ V0.conj().T if V0.size else np.zeros((d, d), dtype=V.dtype)

    rep = theta(prob, Xm)
    Th = rep.Theta
    th_op = float(np.linalg.norm(Th, 2))
    delta = _DELTA_REL * max(th_op, 1e-300)

    I = np.eye(d, dtype=Th.dtype)
    P, Q = prob.condenser.P, prob.condenser.Q
    grad_dir = -Th  # the gradient of I divided by p/2
    R1 = _herm((I - P - Q1) @ grad_dir @ (I - P - Q1))
    R2 = _herm((I - P1 - Q) @ grad_dir @ (I - P1 - Q))
    R3 = _herm((I - P1 - Q1) @ grad_dir @ (I - P1 - Q1))
    e1 = np.linalg.eigvalsh(R1)
    e2 = np.linalg.eigvalsh(R2)
    e3 = np.linalg.eigvalsh(R3)

    checks = {
        "upper_compression_nonpositive": bool(e1.size == 0 or e1.max() <= delta),
        "lower_compression_nonnegative": bool(e2.size == 0 or e2.min() >= -delta),
        "middle_compression_zero": bool(e3.size == 0 or np.abs(e3).max() <= delta),
        "XP1_equals_P1": bool(np.linalg.norm(Xm @ P1 - P1) <= 10 * eps1 * d + 1e-10),
        "XQ1_equals_zero": bool(np.linalg.norm(Xm @ Q1) <= 10 * eps1 * d + 1e-10),
        "P_leq_P1": bool(np.linalg.norm(P1 @ P - P) <= 1e-8),
        "Q_leq_Q1": bool(np.linalg.norm(Q1 @ Q - Q) <= 1e-8),
    }
    rep.P1, rep.Q1 = P1, Q1
    rep.compression_eigs = {
        "upper": e1.tolist(),
        "lower": e2.tolist(),
        "middle": e3.tolist(),
    }
    rep.tolerances = {"eps1": eps1, "delta": float(delta), "theta_opnorm": th_op}
    rep.checks = checks
    if ambiguous:
        rep.flags.append("boundary-ambiguous")
    return rep


def uniqueness_probe(prob, opts=None, trials=4):
    """Minimize from several seeds; commutator columns of converged minimizers
    must agree (uniqueness modulo the commutant), though the minimizers
    themselves may differ."""
    opts = opts or SolveOptions()
    if trials < 2:
        raise ValidationError("trials must be >= 2")

    def run(i):
        return minimize_smooth(prob, dataclasses.replace(opts, seed=opts.seed + 977 * i, restarts=1))

    reports = [run(i) for i in range(trials)]
    used = [r for r in reports if r.converged]
    excluded = len(reports) - len(used)
    cols = [commutators(prob.tau, embed(r.minimizer)) for r in used]
    max_comm_dist = 0.0
    max_var_dist = 0.0
    pair_table = []
    for a in range(len(used)):
        for b in range(a + 1, len(used)):
            dists = [
                float(np.linalg.norm(cols[a][j] - cols[b][j]))
                for j in range(prob.tau.n)
            ]
            dv = float(np.linalg.norm(embed(used[a].minimizer) - embed(used[b].minimizer)))
            pair_table.append({"pair": (a, b), "commutator_dists": dists, "variable_dist": dv})
            max_comm_dist = max(max_comm_dist, max(dists))
            max_var_dist = max(max_var_dist, dv)
    return {
        "reports": reports,
        "pairs": pair_table,
        "max_commutator_distance": max_comm_dist,
        "max_variable_distance": max_var_dist,
        "excluded_nonconverged": excluded,
        "values": [r.value for r in reports],
    }
