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
formed from the block of A on the condenser's support alone, the projection
onto the feasible middle blocks and the linear minimum over them (which the
window bound and the point bound need), the start blocks and the ε stage,
a run of projected descent on the smoothed objective.
"""

import numpy as np

from ._solvers import (SolveOptions, SolveReport, _starts, fit_power, projected_descent,
                       solve_max_norm)
from .errors import ValidationError
from .operator_core import (
    ContractionVariable,
    _fixed_variable,
    _herm,
    _middle_linear_min,
    _middle_starts,
    _support,
    commutator,
    commutator_blocks,
    embed,
    make_condenser,
    objective,
    project_middle,
)
from .ri_norms import spec_list


def _padded(s, d):
    """The singular values s of a block padded with zeros to the d of the
    whole commutator."""
    return s if s.size == d else np.concatenate((s, np.zeros(d - s.size)))


def _block_commutator(T, t, S, blk, d):
    """(form, lift) of one component T (real diagonal t or None) on a condenser
    with support S (``_support``): ``form(A_S)`` is the ``commutator_blocks``
    block ``blk`` of [A, T], built from the S x S block A_S of A alone, and
    ``lift(G)`` is the S x S block of [G, T^*] for a G zero outside ``blk``
    and given as that block. Where T and T^* map S into S, the block is
    S x S and both are ``commutator`` of T_SS, with its diagonal
    broadcasting; elsewhere the block is zero-padded around the rows and
    columns S."""
    rows, cols = (np.arange(d),) * 2 if blk is None else (blk[0].ravel(), blk[1].ravel())
    if rows.size == cols.size == S.size:
        T_S, t_S = T[np.ix_(S, S)], None if t is None else t[S]
        Tc_S = T_S.conj().T
        return lambda A_S: commutator(A_S, T_S, t_S), lambda G: commutator(G, Tc_S, t_S)
    sr, sc = np.searchsorted(rows, S), np.searchsorted(cols, S)
    T_right, T_left = T[np.ix_(S, cols)], T[np.ix_(rows, S)]
    Tc_right, Tc_left = T_right.conj().T, T_left.conj().T

    def form(A_S):
        C = np.zeros((rows.size, cols.size), dtype=np.result_type(A_S, T))
        C[sr] = A_S @ T_right
        C[:, sc] -= T_left @ A_S
        return C

    return form, lambda G: G[sr] @ Tc_right - Tc_left @ G[:, sc]


def _spectra(tau, cond):
    """The ``spectra`` of the condenser objective for ``max_norm_fg``.
    ``spectra(B)`` forms A_S = P_SS + Vm_S B Vm_S^*, the block of
    A = P (+) B (+) 0 on the support S (``_support``; everything for a dense
    basis, where this is ``embed_middle``'s arithmetic). Per component it
    takes one full SVD U s V* of the ``commutator_blocks`` block of [A, T_j],
    built from A_S (``_block_commutator``), and gives s padded with the
    d - r structural zeros (the block has the commutator's nonzero singular
    values). Its lift maps Σ_j w_j times the S x S block of [G_j, T_j^*],
    G_j = U diag(y_j[:r]) V* placed in the block, to herm(Vm_S^* W Vm_S). On
    partial permutations and diagonals each product entry has one nonzero
    term, and on a dense basis the arithmetic is the d x d formula's."""
    d, S = cond.dim, _support(cond)
    P_S, Vm = cond.P[np.ix_(S, S)], cond.basis_mid[S]
    parts = [_block_commutator(T, t, S, blk, d)
             for T, t, blk in zip(tau.components, tau.diagonals, commutator_blocks(tau, cond))]

    def spectra(B):
        A_S = P_S + Vm @ B @ Vm.conj().T
        svds = [np.linalg.svd(form(A_S), full_matrices=False) for form, _ in parts]

        def lift(ys, ws):
            W = sum(w * back((U * y[:Vh.shape[0]]) @ Vh)
                    for (_, back), (U, _, Vh), y, w in zip(parts, svds, ys, ws) if w)
            return _herm(Vm.conj().T @ W @ Vm)

        return [_padded(s, d) for _, s, _ in svds], lift

    return spectra


def solve_condenser(tau, cond, specs, opts=None, *, start=None):
    """Minimize max_j |[A, T_j]|_{J_j} over the feasible set of the condenser.

    ``start`` is the first restart's middle block, projected onto the
    feasible set (default: the center 0.5 I); the seeded starts of later
    restarts do not depend on it. Every restart keeps its best point, so the
    value is at most that of the projected ``start``.
    """
    opts = opts or SolveOptions()
    if cond.dim != tau.dim:
        raise ValidationError(f"condenser dimension {cond.dim} != tuple dimension {tau.dim}")
    if start is not None and np.shape(start) != (cond.m0, cond.m0):
        raise ValidationError(f"start block must be {cond.m0} x {cond.m0}, got {np.shape(start)}")
    specs = spec_list(specs, tau.n)

    var = _fixed_variable(cond)
    if var is not None:
        value = objective(tau, embed(var), specs)
        return SolveReport.closed_form(value, var, var.feasibility_residuals(),
                                       restart_values=[value], m0=cond.m0)

    proj = lambda B: project_middle(cond, B)
    budgets = (150, 150, 300, max(300, opts.max_iters // 2))

    def stage(k, fg, B, f0, history):
        """Projected descent on the k-th smoothing from B."""
        B, f, _, conv, _ = projected_descent(fg, proj, B, max_iters=budgets[k],
                                             residual_tol=opts.residual_tol(f0), history=history)
        return B, f, conv

    def finish(B):
        var = ContractionVariable(cond, B)
        return var, var.feasibility_residuals(), -np.inf

    center, draw = _middle_starts(cond, np.sqrt(max(cond.m0, 1)))
    starts = _starts(center if start is None else proj(start), draw, opts)
    return solve_max_norm(_spectra(tau, cond), specs, proj, starts, finish, opts, stage,
                          linear_min=_middle_linear_min, m0=cond.m0)


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
