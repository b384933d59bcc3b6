"""Condenser modulus solves: k_J(tau; P, Q), sup over P, and scale sweeps.

The solve minimizes max_j |[A, T_j]|_{J_j} over the feasible contractions
A = P (+) B0 (+) 0 by first-order descent on the middle block. The reported
value is always an upper bound on the infimum: every iterate is exactly
feasible.

The solve is ``solve_max_norm`` of ``_solvers`` (with the ``SolveOptions``
and ``SolveReport`` this module re-exports), which the graph capacity
shares: it routes the phases, runs the ε stages and returns the report.
This module supplies its ``spectra``: one SVD per component per evaluation,
of the block outside which the commutator vanishes (``commutator_blocks``),
the projection onto the feasible middle blocks, the start blocks and the ε
stage, a run of projected descent on the smoothed objective.
"""

import numpy as np

from ._solvers import (SolveOptions, SolveReport, _starts, fit_power, projected_descent,
                       solve_max_norm)
from .errors import ValidationError
from .operator_core import (
    ContractionVariable,
    _herm,
    _middle_starts,
    commutator,
    commutator_blocks,
    embed,
    make_condenser,
    objective,
    project_middle,
)
from .ri_norms import spec_list


def _block(C, blk):
    """The block ``blk`` of C (``commutator_blocks``); C itself for None."""
    return C if blk is None else C[blk]


def _scatter(G, blk, d):
    """A block-shaped G as the d x d matrix that is zero outside ``blk``."""
    if blk is None:
        return G
    out = np.zeros((d, d), dtype=G.dtype)
    out[blk] = G
    return out


def _padded(s, d):
    """The singular values s of a block padded with zeros to the d of the
    whole commutator."""
    return s if s.size == d else np.concatenate((s, np.zeros(d - s.size)))


def _spectra(tau, cond):
    """(``spectra``, ``pull``) of the condenser objective for ``max_norm_fg``.
    ``spectra(B)`` takes per component one full SVD U s V* of the
    ``commutator_blocks`` entry of [A, T_j], A = embed_middle(B), and gives s
    padded with the d - r structural zeros (the block has the commutator's
    nonzero singular values) and the lift w -> [scatter(U diag(w[:r]) V*), T_j^*];
    ``pull`` maps a lifted d x d gradient W to herm(Vm^* W Vm)."""
    Tcs = [T.conj().T for T in tau.components]
    blocks = commutator_blocks(tau, cond)
    Vm = cond.basis_mid
    d = cond.dim

    def lift(U, Vh, Tc, t, blk):
        return lambda w: commutator(_scatter((U * w[:Vh.shape[0]]) @ Vh, blk, d), Tc, t)

    def spectra(B):
        A = cond.embed_middle(B)
        out = []
        for T, Tc, t, blk in zip(tau.components, Tcs, tau.diagonals, blocks):
            U, s, Vh = np.linalg.svd(_block(commutator(A, T, t), blk), full_matrices=False)
            out.append((_padded(s, d), lift(U, Vh, Tc, t, blk)))
        return out

    return spectra, lambda W: _herm(Vm.conj().T @ W @ Vm)


def _feasibility(cond, var):
    res = cond.plate_residuals(embed(var))
    if cond.m0:
        w = np.linalg.eigvalsh(_herm(var.middle))
        res["eig_below_0"] = float(max(0.0, -w.min()))
        res["eig_above_1"] = float(max(0.0, w.max() - 1.0))
    else:
        res["eig_below_0"] = 0.0
        res["eig_above_1"] = 0.0
    return res


def solve_condenser(tau, cond, specs, opts=None):
    """Minimize max_j |[A, T_j]|_{J_j} over the feasible set of the condenser."""
    opts = opts or SolveOptions()
    if cond.dim != tau.dim:
        raise ValidationError(f"condenser dimension {cond.dim} != tuple dimension {tau.dim}")
    specs = spec_list(specs, tau.n)

    if cond.m0 == 0 or cond.rank_p == 0:
        # Nothing to optimize: A = P is the only feasible point, or P = 0 and
        # A = 0 is feasible with zero commutators.
        var = ContractionVariable(cond, np.zeros((cond.m0, cond.m0), dtype=cond.basis_mid.dtype))
        value = objective(tau, embed(var), specs)
        return SolveReport.closed_form(value, var, _feasibility(cond, var),
                                       restart_values=[value], m0=cond.m0)

    proj = lambda B: project_middle(cond, B)
    budgets = (150, 150, 300, max(300, opts.max_iters // 2))

    def stage(k, fg, B, f0, history):
        """Projected descent on the k-th smoothing from B."""
        B, f, _, conv = projected_descent(fg, proj, B, max_iters=budgets[k],
                                          residual_tol=opts.residual_tol(f0), history=history)
        return B, f, conv

    def finish(B):
        var = ContractionVariable(cond, proj(B))
        return var, objective(tau, embed(var), specs), _feasibility(cond, var)

    spectra, pull = _spectra(tau, cond)
    starts = _starts(*_middle_starts(cond, np.sqrt(max(cond.m0, 1))), opts)
    return solve_max_norm(spectra, specs, pull, proj, starts, finish, opts, stage, m0=cond.m0)


def sup_over_projections(tau, P_family, Q, specs, opts=None):
    """Solve k(tau; P, Q) for each P in the family; report the running sup.

    Nested consecutive P's must give nondecreasing values (the feasible set
    shrinks as P grows); violations beyond 2 * tol are flagged, not fatal.
    """
    opts = opts or SolveOptions()
    conds = [make_condenser(P, Q, dim=tau.dim) for P in P_family]
    reports = [solve_condenser(tau, c, specs, opts) for c in conds]
    values = [r.value for r in reports]
    sup = max(values) if values else 0.0
    warnings = []
    for i in range(len(conds) - 1):
        Pi, Pj = conds[i].P, conds[i + 1].P
        nested = np.linalg.norm(Pj @ Pi - Pi) <= 1e-8 * max(1.0, np.linalg.norm(Pi))
        if nested and values[i] > values[i + 1] + 2 * opts.tol * max(1.0, values[i + 1]):
            warnings.append(
                f"monotonicity violation at family index {i}: {values[i]} > {values[i + 1]}"
            )
    return {
        "reports": reports,
        "values": values,
        "sup": float(sup),
        "monotonicity_warnings": warnings,
    }


def _extrapolate(scales, values):
    """The power-law limit of a series and the one rule for trusting it.

    With at least 3 scales, value = limit + a * scale**exponent is fitted
    (``fit_power``); fewer scales give no fit. A fitted limit is ``reliable``
    when every value is positive and the limit lies in [0.5 min, 1.5 max] of
    the values: a decay fit on a short flat or noisy series can extrapolate
    far outside the data. ``estimate`` is the limit when reliable and the
    last value otherwise.
    """
    out = {"extrapolation_available": False, "limit": None, "exponent": None,
           "fit_residual": None, "reliable": False, "estimate": values[-1] if values else None}
    if len(values) < 3:
        return out
    try:
        limit, _, expo, resid = fit_power(scales, values)
    except (np.linalg.LinAlgError, ValueError):
        return out
    out.update(limit=limit, exponent=expo, fit_residual=resid, extrapolation_available=True)
    if min(values) > 0 and 0.5 * min(values) <= limit <= 1.5 * max(values):
        out.update(reliable=True, estimate=limit)
    return out


def scale_sweep(problems, specs, opts=None):
    """Solve a family of ``(scale, tau, condenser)`` problems in order and
    extrapolate the values to the limit along the scale.

    Returns the scales, values, converged flags and reports in the order
    given, with the fit fields of ``_extrapolate``: ``extrapolation_available``,
    ``limit``, ``exponent``, ``fit_residual``, ``reliable`` and ``estimate``.
    """
    opts = opts or SolveOptions()
    problems = list(problems)
    scales = [scale for scale, _, _ in problems]
    reports = [solve_condenser(tau, cond, specs, opts) for _, tau, cond in problems]
    values = [r.value for r in reports]
    return {"scales": scales, "values": values, "converged": [r.converged for r in reports],
            "reports": reports, **_extrapolate(scales, values)}
