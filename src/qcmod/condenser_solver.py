"""Condenser modulus solves: k_J(tau; P, Q), sup over P, and scale sweeps.

The solve minimizes max_j |[A, T_j]|_{J_j} over the feasible contractions
A = P (+) B0 (+) 0 by projected subgradient descent on the middle block,
followed (for Schatten-family norms, or generally when tie patterns allow) by
a smoothed projected-descent refinement. The reported value is always an
upper bound on the infimum: every iterate is exactly feasible.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from ._solvers import (
    fit_power,
    fit_richardson,
    parallel_map,
    projected_descent,
    projected_subgradient,
)
from .errors import ValidationError
from .jsonio import matrix_to_json
from .operator_core import ContractionVariable, commutator, embed, project_middle
from .ri_norms import matrix_norm, norm_subgradient, spec_list

_STEP_RULES = ("diminishing", "polyak_with_estimate")


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 2000
    tol: float = 1e-7
    step_rule: str = "polyak_with_estimate"
    seed: int = 0
    restarts: int = 2
    target: float | None = None
    refine: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not (self.tol > 0):
            raise ValidationError("tol must be > 0")
        if self.step_rule not in _STEP_RULES:
            raise ValidationError(f"step_rule must be one of {_STEP_RULES}")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")

    @staticmethod
    def from_json(obj):
        obj = dict(obj or {})
        known = {k: obj[k] for k in ("max_iters", "tol", "step_rule", "seed", "restarts", "target", "refine") if k in obj}
        return SolveOptions(**known)


@dataclass
class SolveReport:
    """Outcome of a variational solve; ``value`` is an upper bound on the inf."""

    value: float
    minimizer: object
    history: list
    feasibility_residuals: dict
    converged: bool
    wall_time: float
    iters: int
    extra: dict = field(default_factory=dict)

    def to_json(self, history_csv=None):
        if isinstance(self.minimizer, ContractionVariable):
            mini = matrix_to_json(embed(self.minimizer))
        elif isinstance(self.minimizer, np.ndarray):
            if self.minimizer.ndim == 1:
                mini = [float(x) for x in self.minimizer]
            else:
                mini = matrix_to_json(self.minimizer)
        else:
            mini = self.minimizer
        obj = {
            "value_upper": float(self.value),
            "converged": bool(self.converged),
            "iters": int(self.iters),
            "history_csv": history_csv,
            "minimizer": mini,
        }
        obj["feasibility_residuals"] = {k: float(v) for k, v in self.feasibility_residuals.items()}
        for k, v in self.extra.items():
            obj[k] = v
        return obj


def _herm(X):
    return 0.5 * (X + X.conj().T)


def _exact_fg(tau, cond, specs):
    """Exact objective and a subgradient with respect to the middle block."""
    Vm = cond.basis_mid
    Tcs = [T.conj().T for T in tau.components]
    diags = tau.diagonals

    def fg(B):
        A = cond.embed_middle(B)
        comms = [commutator(A, T, t) for T, t in zip(tau.components, diags)]
        vals = [matrix_norm(C, sp, hermitian=False) for C, sp in zip(comms, specs)]
        jstar = int(np.argmax(vals))
        f = vals[jstar]
        G = norm_subgradient(comms[jstar], specs[jstar])
        W = commutator(G, Tcs[jstar], diags[jstar])
        g = _herm(Vm.conj().T @ W @ Vm)
        return f, g

    return fg


def _smooth_fg(tau, cond, specs, eps, sref, fref):
    """Smoothed objective/gradient: Huber singular values for p=1 components,
    log-sum-exp across components. Upper-bounds the exact objective."""
    Vm = cond.basis_mid
    Tcs = [T.conj().T for T in tau.components]
    diags = tau.diagonals
    n = len(specs)
    nu = eps * max(fref, 1e-300) / np.log(n + 1.0) if n > 1 else None

    def fg(B):
        A = cond.embed_middle(B)
        fs, Gs = [], []
        for j, (T, sp) in enumerate(zip(tau.components, specs)):
            C = commutator(A, T, diags[j])
            U, s, Vh = np.linalg.svd(C, full_matrices=False)
            p = sp.p
            if p == 1:
                mu = eps * max(sref[j], 1e-300)
                r = np.sqrt(s * s + mu * mu)
                fj = float(np.sum(r))
                ds = s / r
            else:
                fj = float(np.sum(s ** p) ** (1.0 / p)) if s.size else 0.0
                if fj > 0:
                    ds = (s / fj) ** (p - 1.0)
                else:
                    ds = np.zeros_like(s)
            G = (U * ds) @ Vh
            fs.append(fj)
            Gs.append(commutator(G, Tcs[j], diags[j]))
        if n == 1:
            f, W = fs[0], Gs[0]
        else:
            fmax = max(fs)
            ws = np.exp((np.asarray(fs) - fmax) / nu)
            total = ws.sum()
            f = float(fmax + nu * np.log(total))
            ws /= total
            W = sum(w * Gj for w, Gj in zip(ws, Gs))
        return f, _herm(Vm.conj().T @ W @ Vm)

    return fg


def _initial_middles(cond, restarts, seed):
    m0 = cond.m0
    dtype = complex if cond.is_complex else float
    out = [0.5 * np.eye(m0, dtype=dtype)]
    seqs = np.random.SeedSequence(int(seed)).spawn(max(0, restarts - 1))
    for sq in seqs:
        rng = np.random.default_rng(sq)
        W = rng.standard_normal((m0, m0))
        if dtype is complex:
            W = W + 1j * rng.standard_normal((m0, m0))
        B = 0.5 * np.eye(m0, dtype=dtype) + 0.35 * _herm(W) / np.sqrt(max(m0, 1))
        out.append(project_middle(cond, B))
    return out


def _feasibility(tau, cond, var):
    A = embed(var)
    res = {
        "AP_minus_P": float(np.linalg.norm(A @ cond.P - cond.P)),
        "AQ": float(np.linalg.norm(A @ cond.Q)),
    }
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
    t0 = time.perf_counter()

    if cond.m0 == 0:
        from .operator_core import objective

        var = ContractionVariable(cond, np.zeros((0, 0)))
        value = objective(tau, embed(var), specs)
        return SolveReport(
            value=value,
            minimizer=var,
            history=[(0, value, 0.0)],
            feasibility_residuals=_feasibility(tau, cond, var),
            converged=True,
            wall_time=time.perf_counter() - t0,
            iters=1,
            extra={"restart_values": [value], "m0": 0},
        )

    fg = _exact_fg(tau, cond, specs)
    proj = lambda B: project_middle(cond, B)
    history = []
    best_f, best_B = np.inf, None
    restart_values = []
    converged = False
    offset = 0

    for B0 in _initial_middles(cond, opts.restarts, opts.seed):
        bx, bf, k, conv = projected_subgradient(
            fg,
            proj,
            B0,
            max_iters=opts.max_iters,
            tol=opts.tol,
            step_rule=opts.step_rule,
            target=opts.target,
            history=history,
            iter_offset=offset,
        )
        offset += k
        r_best_f, r_best_B, r_conv = bf, bx, conv

        if opts.refine:
            all_schatten = all(sp.kind == "schatten" for sp in specs)
            f0 = max(bf, 1e-300)
            if all_schatten:
                A0 = cond.embed_middle(bx)
                sref = []
                for T, t in zip(tau.components, tau.diagonals):
                    sv = np.linalg.svd(commutator(A0, T, t), compute_uv=False)
                    sref.append(float(sv[0]) if sv.size else 0.0)
                x_cur = bx
                stages = ((1e-2, 150), (1e-4, 150), (1e-6, 300), (1e-9, max(300, opts.max_iters // 2)))
                for eps, iters in stages:
                    sfg = _smooth_fg(tau, cond, specs, eps, sref, f0)
                    x_cur, _, kk, conv_s = projected_descent(
                        sfg,
                        proj,
                        x_cur,
                        max_iters=iters,
                        residual_tol=max(1e-14, 1e-3 * opts.tol) * f0,
                        history=history,
                        iter_offset=offset,
                    )
                    offset += kk
                f_exact, _ = fg(x_cur)
                history.append((offset, f_exact, 0.0))
                offset += 1
                if f_exact < r_best_f:
                    r_best_f, r_best_B = f_exact, x_cur
                r_conv = r_conv or conv_s
            else:
                # Weighted kinds: descend on the exact objective using its
                # subgradient; valid locally once singular-value tie patterns
                # stabilize, and the line search degrades gracefully otherwise.
                x_cur, f_cur, kk, conv_s = projected_descent(
                    fg,
                    proj,
                    bx,
                    max_iters=max(200, opts.max_iters // 2),
                    residual_tol=max(1e-14, 1e-3 * opts.tol) * f0,
                    history=history,
                    iter_offset=offset,
                )
                offset += kk
                if f_cur < r_best_f:
                    r_best_f, r_best_B = f_cur, x_cur
                r_conv = r_conv or conv_s

        restart_values.append(r_best_f)
        converged = converged or r_conv
        if r_best_f < best_f:
            best_f, best_B = r_best_f, r_best_B

    var = ContractionVariable(cond, project_middle(cond, best_B))
    from .operator_core import objective

    value = objective(tau, embed(var), specs)
    history.append((offset, value, 0.0))
    offset += 1
    converged = converged or _tail_converged(history, opts.tol)
    return SolveReport(
        value=value,
        minimizer=var,
        history=history,
        feasibility_residuals=_feasibility(tau, cond, var),
        converged=converged,
        wall_time=time.perf_counter() - t0,
        iters=offset,
        extra={"restart_values": restart_values, "m0": cond.m0},
    )


def _tail_converged(history, tol):
    """Plateau criterion: the running best improved by <= tol * scale over the
    final quarter of all recorded iterations."""
    if len(history) < 8:
        return False
    objs = np.asarray([h[1] for h in history], dtype=float)
    best = np.minimum.accumulate(objs)
    cut = int(0.75 * len(best))
    scale = max(objs[0], best[-1], 1e-300)
    return bool(best[cut] - best[-1] <= tol * scale)


def sup_over_projections(tau, P_family, Q, specs, opts=None):
    """Solve k(tau; P, Q) for each P in the family; report the running sup.

    Nested consecutive P's must give nondecreasing values (the feasible set
    shrinks as P grows); violations beyond 2 * tol are flagged, not fatal.
    """
    opts = opts or SolveOptions()
    from .operator_core import make_condenser

    conds = [make_condenser(P, Q, dim=tau.dim) for P in P_family]
    reports = parallel_map(lambda c: solve_condenser(tau, c, specs, opts), conds)
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


def scale_sweep(problems, specs, opts=None, extrapolation="power_fit"):
    """Solve an indexed family of condenser problems and extrapolate the limit.

    ``problems`` is a sequence of ``(scale, tau, condenser)`` triples or
    ``(scale, callable)`` pairs where the callable maps ``(specs, opts)`` to a
    SolveReport. At least 3 scales are required when extrapolating.
    """
    opts = opts or SolveOptions()
    if extrapolation not in ("none", "richardson", "power_fit"):
        raise ValidationError("extrapolation must be none, richardson, or power_fit")
    items = list(problems)
    if extrapolation != "none" and len(items) < 3:
        raise ValidationError("extrapolation requires at least 3 scales")

    def solve_item(item):
        if len(item) == 3:
            scale, tau, cond = item
            return scale, solve_condenser(tau, cond, specs, opts)
        scale, fn = item
        return scale, fn(specs, opts)

    solved = parallel_map(solve_item, items)
    scales = [s for s, _ in solved]
    reports = [r for _, r in solved]
    values = [r.value for r in reports]
    out = {
        "scales": scales,
        "values": values,
        "converged": [r.converged for r in reports],
        "reports": reports,
        "extrapolation": extrapolation,
        "extrapolation_available": False,
        "limit": None,
        "exponent": None,
        "fit_residual": None,
    }
    if extrapolation == "none":
        return out
    try:
        if extrapolation == "richardson":
            limit, coeff, resid = fit_richardson(scales, values)
            out.update(limit=limit, fit_residual=resid, coefficient=coeff, extrapolation_available=True)
        else:
            v_inf, a, expo, resid = fit_power(scales, values)
            out.update(
                limit=v_inf, exponent=expo, fit_residual=resid, coefficient=a,
                extrapolation_available=True,
            )
    except (np.linalg.LinAlgError, ValueError):
        out["extrapolation_available"] = False
    return out
