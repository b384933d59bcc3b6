"""Shared first-order engines, the multistart driver and its report,
smoothing, the max-of-norms objective of the condenser and the graph
capacity (exact and smoothed) and extrapolation fits.

The engines operate on numpy arrays of any shape with the real Frobenius
inner product; feasibility is delegated to a ``project`` callback, so the same
loop drives spectral-box middle blocks and pinned [0,1] vertex potentials.
Each iteration appends one row (i, f, step) to the ``history`` it is given,
with i the row's position there.
``Multistart`` holds every restart rule of the three solvers: the start
points (``_starts``: the solver's center, then seeded draws), the shared
history, each restart's best point and value, the converged flag, which
only a phase's own stopping test sets, and the largest lower bound a phase
returned. ``Multistart.solve`` returns the ``SolveReport``, whose value is
the best value offered and whose ``iters`` is the length of its history
(one row for a closed form).
``solve_max_norm`` is the one restart body of the condenser and the graph
capacity: it routes the phases and runs the ε stages, and each solver gives
it only its spectra, projection, starts, final step and stage engine. Every
lower bound is a ``safe_cut``: the window cuts and the ``point_bound``.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
from scipy.linalg.lapack import dtrtrs

from .errors import ValidationError
from .jsonio import as_bool, as_int, matrix_to_json
from .operator_core import ContractionVariable, embed
from .ri_norms import _vector_subgradient, dual_norm, vector_norm


def _inner(x, y):
    return float(np.real(np.vdot(x, y)))


def _norm(x):
    return float(np.linalg.norm(x.ravel()))


#: The rounding allowance of every cut in ulps of its terms' absolute sum.
#: The largest excess of an unlowered cut over a known infimum measured so
#: far is 3.5 such ulps (Lorentz(2,1) capacity 1 + 1/sqrt 2 on F2 balls).
_CUT_ULPS = 8


def safe_cut(c, G, x, linear_min, c_abs=None):
    """(cut, safe value) of the cut c - <G, x> + linear_min(G), a lower bound
    on f* wherever f(x') >= c + <G, x' - x> on the feasible set, over which
    ``linear_min(G)`` minimizes <G, x'>. The safe value is the cut lowered by
    ``_CUT_ULPS`` ulps of its terms' absolute sum, c_abs (that of c's own
    terms, default |c|) + Σ_i |G_i x_i| + |linear_min(G)|, so that rounding
    cannot lift it above f* (Neumaier & Shcherbina 2004)."""
    lm = linear_min(G)
    cut = c - _inner(G, x) + lm
    terms = (abs(c) if c_abs is None else c_abs) + _inner(np.abs(G), np.abs(x)) + abs(lm)
    return cut, float(cut - _CUT_ULPS * np.finfo(float).eps * terms)


def point_bound(comps, specs, pull, linear_min, x, tol):
    """(value, bound) of ``max_norm_fg``'s objective at a feasible x whose
    ``spectra`` are ``comps``: the value max_j f_j, f_j = vector_norm(v_j),
    and the safe value of the Frank-Wolfe cut (Jaggi 2013). λ is uniform over
    the f_j within tol * max(1, max f) of the max, and each subgradient y_j
    at v_j is divided by max(1, dual_norm(y_j)) into its dual unit ball as
    evaluated in floating point. The cut's c = Σ_j λ_j <y_j, v_j> is
    computed, not taken as Σ_j λ_j f_j, and G = pull(Σ_j λ_j lift_j(y_j))."""
    fs = np.array([vector_norm(v, sp) for (v, _), sp in zip(comps, specs)])
    active = np.flatnonzero(fs >= fs.max() - tol * max(1.0, fs.max()))
    c, W = 0.0, 0.0
    for j in active:
        v, lift = comps[j]
        y = _vector_subgradient(v, specs[j], fs[j])
        y = y / (max(1.0, dual_norm(y, specs[j])) * active.size)
        c += _inner(y, v)
        W = W + lift(y)
    return float(fs.max()), safe_cut(c, pull(W), x, linear_min)[1]


def projected_subgradient(fg, project, x0, *, max_iters, tol, history, linear_min):
    """Projected subgradient loop with Polyak steps and best-iterate tracking.

    ``linear_min(g)``, the minimum of <g, x'> over the feasible set, gives a
    certified lower bound L (Anstreicher & Wolsey 2009; Nesterov 2009): by
    convexity every point x_k of a window of iterations gives
    f* >= f_k + <g_k, x* - x_k>, so their mean gives the ``safe_cut``
    f* >= mean(f_k - <g_k, x_k>) + linear_min(mean g_k) about the origin. L is
    the largest such cut over the windows (f itself at a zero subgradient,
    whose point is a minimizer), -inf before the first window ends.

    The Polyak step aims at max(best - delta, 0, L) (objectives here are
    nonnegative), halving delta whenever a window fails to improve. The run
    converges once best - L is at most tol * max(1, best), or once a window
    improves the best value by at most tol * scale0 (scale0: the start
    value) with delta at most as small (the delta floor). Returns (best_x,
    best_f, iters_done, converged, the safe value of L's cut): the steps and
    the stop read L, so the allowance moves no iterate.
    """
    x = project(np.array(x0))
    f, g = fg(x)
    best_f, best_x = f, x.copy()
    scale0 = max(f, 1e-300)
    gn2 = _inner(g, g)
    a0 = f / gn2 if gn2 > 0 else 1.0
    delta = 0.5 * max(f, 1e-300)
    window = 50
    window_best = f
    lower = bound = -np.inf  # L and its cut's lowered value
    # the window's sums of f_k - <g_k, x_k>, of g_k and of the first sum's terms' absolute values
    cut_const, cut_g, cut_abs = 0.0, np.zeros_like(g), 0.0
    converged = False
    k = 0
    while k < max_iters:
        if gn2 <= 0.0:
            # zero subgradient: global minimizer of a convex objective
            history.append((len(history), f, 0.0))
            cut, safe = safe_cut(f, g, x, linear_min)
            if cut > lower:
                lower, bound = cut, safe
            converged = True
            k += 1
            break
        cut_const += f - _inner(g, x)
        cut_g += g
        cut_abs += abs(f) + _inner(np.abs(g), np.abs(x))
        alpha = max(f - max(best_f - delta, 0.0, lower), 0.0) / gn2
        if alpha <= 0.0:
            alpha = 1e-3 * a0 / np.sqrt(k + 1.0)
        history.append((len(history), f, alpha))
        x = project(x - alpha * g)
        f, g = fg(x)
        gn2 = _inner(g, g)
        if f < best_f:
            best_f, best_x = f, x.copy()
        k += 1
        if k % window == 0:
            cut, safe = safe_cut(cut_const / window, cut_g / window, np.zeros_like(g), linear_min,
                                 cut_abs / window)
            if cut > lower:
                lower, bound = cut, safe
            cut_const, cut_g, cut_abs = 0.0, np.zeros_like(g), 0.0
            if best_f - lower <= tol * max(1.0, best_f):
                converged = True
                break
            improved = window_best - best_f
            if improved < 0.25 * delta:
                delta *= 0.5
            if improved <= tol * scale0 and delta <= tol * scale0:
                converged = True
                break
            window_best = best_f
    return best_x, best_f, k, converged, bound


def projected_descent(fg, project, x0, *, max_iters, residual_tol, history):
    """Projected gradient descent with Barzilai-Borwein steps and Armijo backtracking.

    Intended for (locally) smooth convex objectives; on a nonsmooth objective
    the line search shrinks until progress stalls. Converged exits: the
    projected-gradient residual ||x - project(x - s g)|| / s drops below
    ``residual_tol``, or a backtracking trial's whole first-order decrease
    t * slope no longer changes f in floating point (the rounding floor: no
    decrease can be verified; Hager & Zhang 2005). Other exits: a failure
    streak, more than 12 iterations in a row that either accept no step or
    accept one whose Barzilai-Borwein step ss / sy falls below its 1e-14
    clamp (the step has collapsed, as at a kink of a nonsmooth objective,
    and the run would crawl on at 1e-14), and ``max_iters``.

    Returns (best_x, best_f, iters_done, converged, -inf): the descent
    certifies no lower bound.
    """
    x = project(np.array(x0))
    f, g = fg(x)
    best_f, best_x = f, x.copy()
    step = 1.0 / max(_norm(g), 1e-12)
    fail_streak = 0
    converged = False
    k = 0
    while k < max_iters:
        history.append((len(history), f, step))
        d = project(x - step * g) - x
        dn = _norm(d)
        if dn <= residual_tol * step:
            converged = True
            k += 1
            break
        slope = _inner(g, d)
        if slope > 0:  # numerical corner: projection moved uphill; shrink step
            step *= 0.25
            k += 1
            fail_streak += 1
            if fail_streak > 12:
                break
            continue
        t = 1.0
        accepted = False
        for _ in range(40):
            if f + t * slope >= f:  # the rounding floor
                converged = True
                break
            xn = x + t * d
            fn, gn_ = fg(xn)
            if fn <= f + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if converged:
            k += 1
            break
        if not accepted:
            fail_streak += 1
            step *= 0.25
            k += 1
            if fail_streak > 12:
                break
            continue
        s_vec = xn - x
        y_vec = gn_ - g
        sy = _inner(s_vec, y_vec)
        ss = _inner(s_vec, s_vec)
        collapsed = sy > 1e-300 and ss / sy < 1e-14
        fail_streak = fail_streak + 1 if collapsed else 0
        if sy > 1e-300:
            step = min(max(ss / sy, 1e-14), 1e14)
        else:
            step *= 2.0
        x, f, g = xn, fn, gn_
        if f < best_f:
            best_f, best_x = f, x.copy()
        k += 1
        if fail_streak > 12:
            break
    return best_x, best_f, k, converged, -np.inf


#: The number of (s, y) pairs ``lbfgs`` keeps.
_LBFGS_MEMORY = 10


def lbfgs(fg, x0, *, max_iters, history):
    """Unconstrained limited-memory BFGS (Liu & Nocedal 1989) with Armijo
    backtracking, for smooth objectives of a vector x.

    The direction is -H g, with H the compact representation of the last
    ``_LBFGS_MEMORY`` pairs (s, y) (Byrd, Nocedal & Schnabel 1994) scaled by
    γ = s·y / y·y of the newest: three products with the stacked pairs per
    iteration. A pair with s·y <= eps y·y is skipped, so H stays positive
    definite. Without pairs, or if -H g is not a descent direction, the
    direction is -g and the pairs are dropped. The line search starts at
    t = 1 and accepts f(x + t d) <= f + 1e-4 t slope; otherwise it moves t
    to the minimizer of the quadratic through f, the slope and f(x + t d),
    kept within [0.1 t, 0.5 t].

    Converged exits: max|g| <= 1e-14, a relative decrease
    (f_old - f) / max(|f_old|, |f|, 1) <= 1e-17, or the rounding floor (the
    next backtracking trial's whole first-order decrease t * slope no longer
    changes f, as in ``projected_descent``). Stopping after ``max_iters``
    iterations is not converged. One row (i, f, 0.0) is logged per accepted
    iteration, and f never increases, so the last point is the best.

    Returns (x, f, iterations, converged, -inf): the run certifies no lower
    bound.
    """
    m = _LBFGS_MEMORY
    x = np.array(x0, dtype=float)
    f, g = fg(x)
    f = float(f)
    # slot i of W holds a pair: s in row i, y in row m + i; slots are reused
    # oldest first. ``perm`` lists the s rows of the pairs in use, oldest
    # first, then their y rows. In that order R[i, j] = s_i·y_j (i <= j) and
    # YY[i, j] = y_i·y_j.
    W = np.zeros((2 * m, x.size))
    R, YY = np.zeros((m, m)), np.zeros((m, m))
    slots, gamma = [], 1.0
    k = 0
    converged = float(np.abs(g).max(initial=0.0)) <= 1e-14
    while not converged and k < max_iters:
        n = len(slots)
        slope = 0.0
        if n:
            ab = (W @ g)[perm]
            u = dtrtrs(R[:n, :n], ab[:n])[0]
            rhs = np.diagonal(R)[:n] * u + gamma * (YY[:n, :n] @ u - ab[n:])
            v = dtrtrs(R[:n, :n], rhs, trans=1)[0]
            c = np.zeros(2 * m)
            c[perm] = np.concatenate((-v, gamma * u))
            d = W.T @ c
            d -= gamma * g
            slope = _inner(d, g)
        if not slope < 0.0:  # no pairs, or -H g is no descent direction
            slots = []
            d = -g
            slope = -_inner(g, g)
        t = 1.0
        while True:
            xn = x + t * d
            fn, gn = fg(xn)
            fn = float(fn)
            if fn <= f + 1e-4 * t * slope:
                break
            t = min(0.5 * t, max(0.1 * t, -slope * t * t / (2.0 * (fn - f - slope * t))))
            if f + t * slope >= f:  # the rounding floor
                return x, f, k, True, -np.inf
        s, y = xn - x, gn - g
        sy, yy = _inner(s, y), _inner(y, y)
        if sy > np.finfo(float).eps * yy:
            if len(slots) == m:
                R[:-1, :-1], YY[:-1, :-1] = R[1:, 1:], YY[1:, 1:]
                slots = slots[1:] + slots[:1]
            else:
                slots.append(len(slots))
            W[slots[-1]], W[m + slots[-1]] = s, y
            perm = np.array(slots + [m + i for i in slots])
            w = (W @ y)[perm]
            n = len(slots)
            R[:n, n - 1], YY[:n, n - 1], YY[n - 1, :n] = w[:n], w[n:], w[n:]
            gamma = sy / yy
        converged = (f - fn <= 1e-17 * max(abs(f), abs(fn), 1.0)
                     or float(np.abs(gn).max(initial=0.0)) <= 1e-14)
        x, f, g = xn, fn, gn
        history.append((len(history), f, 0.0))
        k += 1
    return x, f, k, converged, -np.inf


# -- multistart driver ---------------------------------------------------------------

#: Smoothing parameters of the refinement stages, coarse to fine (relative to
#: each solver's reference scales).
SMOOTHING_LADDER = (1e-2, 1e-4, 1e-6, 1e-9)


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 2000
    tol: float = 1e-7
    seed: int = 0
    restarts: int = 2
    refine: bool = True

    def __post_init__(self):
        for name in ("max_iters", "restarts", "seed"):
            as_int(getattr(self, name), name)
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not (self.tol > 0):
            raise ValidationError("tol must be > 0")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        as_bool(self.refine, "refine")

    @staticmethod
    def from_json(obj):
        obj = obj or {}
        return SolveOptions(**{f.name: obj[f.name] for f in dataclasses.fields(SolveOptions) if f.name in obj})

    def residual_tol(self, f0):
        """``projected_descent``'s residual tolerance for a run from a point of value f0."""
        return max(1e-14, 1e-3 * self.tol) * max(f0, 1e-300)


@dataclass
class SolveReport:
    """Outcome of a variational solve: ``value`` is an upper bound on the inf,
    ``lower`` a certified lower bound, and ``history`` ends with the row
    (iters - 1, value, 0.0)."""

    value: float
    minimizer: object
    history: list
    feasibility_residuals: dict
    converged: bool
    extra: dict = field(default_factory=dict)
    #: a certified lower bound on the inf, at most ``value``
    lower: float = -np.inf

    @property
    def iters(self):
        return len(self.history)

    @classmethod
    def closed_form(cls, value, minimizer, feasibility, lower=np.inf, **extra):
        """Report of a solve with nothing to optimize: ``lower`` is the value
        unless a smaller bound is given."""
        return cls(value, minimizer, [(0, value, 0.0)], feasibility, True, extra, min(lower, value))

    def to_json(self, history_csv=None):
        mini = (matrix_to_json(embed(self.minimizer)) if isinstance(self.minimizer, ContractionVariable)
                else [float(x) for x in self.minimizer])  # else a graph potential
        return {"value_upper": float(self.value), "value_lower": float(self.lower),
                "converged": bool(self.converged),
                "iters": self.iters, "history_csv": history_csv, "minimizer": mini,
                "feasibility_residuals": {k: float(v) for k, v in self.feasibility_residuals.items()},
                **self.extra}


def _starts(center, draw, opts):
    """The start points of a solve: ``center``, then ``draw(rng)`` for each
    further restart, every rng seeded from its own child of
    ``SeedSequence(opts.seed)``."""
    seqs = np.random.SeedSequence(int(opts.seed)).spawn(opts.restarts - 1)
    return [center] + [draw(np.random.default_rng(sq)) for sq in seqs]


class Multistart:
    """One multistart solve: shared history, restart results and the best point.

    ``history`` holds the (iteration, objective, step) rows of every phase of
    every restart, each numbered by its position. A restart body runs its
    phases through ``run`` and ``record``, which offer exactly evaluated
    points; the lowest value offered is the restart's result (the first
    offer always counts).
    ``converged`` is true once an offered phase's own stopping test fired,
    and ``lower`` is the largest lower bound a phase of any restart returned.
    """

    def __init__(self):
        self.history = []
        self.converged = False
        self.lower = -np.inf
        self._best = None

    @classmethod
    def solve(cls, starts, restart, finish, **extra):
        """Run ``restart(ms, x0)`` from every start. The report's value, also
        its closing history row, is the best value a restart offered;
        ``finish`` maps its point to (minimizer, feasibility residuals, point
        bound), and ``lower`` is the largest of the phases' bounds, the point
        bound and 0 (the objectives are nonnegative), capped at the value.
        ``extra`` follows ``restart_values``."""
        ms = cls()
        results = []
        for x0 in starts:
            ms._best = None
            restart(ms, x0)
            results.append(ms._best)
        x, value = min(results, key=lambda r: r[1])
        minimizer, feasibility, point = finish(x)
        ms.history.append((len(ms.history), value, 0.0))
        return SolveReport(value, minimizer, ms.history, feasibility, ms.converged,
                           {"restart_values": [f for _, f in results], **extra},
                           min(max(ms.lower, point, 0.0), value))

    def _offer(self, x, f, converged=False):
        if self._best is None or f < self._best[1]:
            self._best = (x, f)
        self.converged = self.converged or converged

    def run(self, engine, *args, **kwargs):
        """Run ``engine(*args, history=..., **kwargs)``, an engine returning
        (x, f, iterations, converged, lower bound), and offer its point.
        Returns (x, f)."""
        x, f, _, conv, lower = engine(*args, history=self.history, **kwargs)
        self.lower = max(self.lower, lower)
        self._offer(x, f, conv)
        return x, f

    def record(self, x, f, converged=False):
        """Offer an exactly evaluated point and log it as one history row."""
        self.history.append((len(self.history), f, 0.0))
        self._offer(x, f, converged)


# -- smoothing -----------------------------------------------------------------------


def _huber(x, mu):
    """Huber-smoothed l1 norm sum_i sqrt(x_i^2 + mu^2) of a real vector and its
    gradient x / r. The gradient is 0 where r = 0, which happens where x = 0
    once mu^2 underflows (a zero reference scale)."""
    r = np.sqrt(x * x + mu * mu)
    return float(np.sum(r)), np.divide(x, r, out=np.zeros_like(r), where=r > 0)


def _smooth_schatten(x, p, mu):
    """Smoothed Schatten-p gauge of a real vector and its gradient: ``_huber``
    at p = 1; otherwise the exact p-norm, with gradient sign(x) (|x| / |x|_p)^(p - 1)
    (0 at x = 0; x / |x|_2 at p = 2), smooth wherever x != 0; ``mu`` is read
    at p = 1 only."""
    if p == 1:
        return _huber(x, mu)
    if p == 2:
        f = float(np.sqrt(np.dot(x, x)))
        return f, x / f if f > 0 else np.zeros_like(x)
    a = np.abs(x)
    f = float(np.sum(a ** p) ** (1.0 / p))
    return f, np.copysign((a / f) ** (p - 1.0), x) if f > 0 else np.zeros_like(a)


def _smooth_max(fs, grads, eps, scale):
    """Log-sum-exp smoothing of max(fs) at temperature eps * scale / log(n + 1),
    with the matching convex combination of grads; one term passes through."""
    if len(fs) == 1:
        return fs[0], grads[0]
    nu = eps * scale / np.log(len(fs) + 1.0)
    fmax = max(fs)
    ws = np.exp((np.asarray(fs) - fmax) / nu)
    total = ws.sum()
    f = float(fmax + nu * np.log(total))
    ws /= total
    return f, sum(w * g for w, g in zip(ws, grads))


# -- the max-of-norms objective ------------------------------------------------------


def max_norm_fg(spectra, specs, pull):
    """Exact fg of max_j |K_j x|_{J_j}. ``spectra(x)`` lists per component a
    real vector v_j, whose magnitudes are the spectral values of K_j x, and a
    ``lift`` that maps a vector in those coordinates back through K_j^*;
    ``pull`` maps a lifted gradient to the variable. The value is
    ``vector_norm`` of the first maximizing v_j, the subgradient
    pull(lift(g)) with g the ``vector_norm`` subgradient at v_j."""

    def fg(x):
        comps = spectra(x)
        vals = [vector_norm(v, sp) for (v, _), sp in zip(comps, specs)]
        j = int(np.argmax(vals))
        v, lift = comps[j]
        return vals[j], pull(lift(_vector_subgradient(v, specs[j], vals[j])))

    return fg


def smooth_max_norm_fg(spectra, specs, mus, eps, fref, pull):
    """Smoothed fg of the ``max_norm_fg`` objective: ``_smooth_schatten`` of
    each v_j (Huber at mus[j] for p = 1), log-sum-exp across components at
    temperature scale ``fref`` (``_smooth_max``). Upper-bounds the exact one."""

    def fg(x):
        fs, grads = [], []
        for (v, lift), sp, mu in zip(spectra(x), specs, mus):
            f, dv = _smooth_schatten(v, sp.p, mu)
            fs.append(f)
            grads.append(lift(dv))
        f, g = _smooth_max(fs, grads, eps, max(fref, 1e-300))
        return f, pull(g)

    return fg


def solve_max_norm(spectra, specs, pull, project, starts, finish, opts, stage, *, linear_min, **extra):
    """Minimize max_j |K_j x|_{J_j} over a convex set: the multistart solve
    (``Multistart.solve``) of the condenser and the graph capacity. ``spectra``,
    ``specs`` and ``pull`` are those of ``max_norm_fg``, ``project`` maps onto
    the feasible set, and ``stage(k, fg, x, f0, history)`` runs the k-th ε
    stage on the smoothed ``fg`` from x (f0: the exact value the stages start
    from), logs to ``history`` and returns (x, f, converged).

    A restart from x0 with ``opts.refine`` on and every norm Schatten with
    p > 1 (smooth wherever nonzero) logs its start value and runs the stages
    from x0. Otherwise it runs the projected subgradient phase and then, with
    ``opts.refine`` on, the stages (all-Schatten norms) or projected descent on
    the exact objective (weighted norms: valid once the tie pattern of the
    sorted magnitudes stabilizes). The stages' Huber scales are eps * max|v_j|
    at their start point, their log-sum-exp scale f0 and then each stage's f;
    the exact value of the last point closes them with the last stage's flag.
    ``linear_min``, the minimum of <g, x> over the feasible set, gives the
    window bounds (``projected_subgradient``) and the ``point_bound`` at the
    reported point; ``finish(x)`` gives its minimizer and feasibility residuals.
    """
    fg = max_norm_fg(spectra, specs, pull)
    value = lambda comps: max(vector_norm(v, sp) for (v, _), sp in zip(comps, specs))
    schatten = all(sp.kind == "schatten" for sp in specs)

    def ladder(ms, x, comps, f0):
        scales = [max(float(np.abs(v).max(initial=0.0)), 1e-300) for v, _ in comps]
        fref, conv = f0, False
        for k, eps in enumerate(SMOOTHING_LADDER):
            sfg = smooth_max_norm_fg(spectra, specs, [eps * s for s in scales], eps, fref, pull)
            x, fref, conv = stage(k, sfg, x, f0, ms.history)
        ms.record(x, value(spectra(x)), conv)

    def restart(ms, x0):
        if opts.refine and schatten and all(sp.p > 1 for sp in specs):
            comps = spectra(x0)
            f = value(comps)
            ms.record(x0, f)
            ladder(ms, x0, comps, f)
            return
        x, f = ms.run(projected_subgradient, fg, project, x0, max_iters=opts.max_iters, tol=opts.tol,
                      linear_min=linear_min)
        if not opts.refine:
            return
        if schatten:
            ladder(ms, x, spectra(x), f)
        else:
            ms.run(projected_descent, fg, project, x, max_iters=max(200, opts.max_iters // 2),
                   residual_tol=opts.residual_tol(f))

    bounded = lambda x: (*finish(x), point_bound(spectra(x), specs, pull, linear_min, x, opts.tol)[1])
    return Multistart.solve(starts, restart, bounded, **extra)


# -- extrapolation fits ------------------------------------------------------------


def fit_power(scales, values):
    """Fit value = v_inf + a * scale**exponent (exponent < 0 for decay).

    The exponent is found by scanning a log-spaced grid with a linear
    least-squares solve for (v_inf, a) at each candidate, then by a bounded
    scalar minimisation of the residual around the best candidate; the
    better of the two is kept. Returns (v_inf, a, exponent, residual).
    """
    s = np.asarray(scales, dtype=float)
    v = np.asarray(values, dtype=float)

    def solve_for(b):
        A = np.column_stack([np.ones_like(s), s ** (-b)])
        coef, *_ = np.linalg.lstsq(A, v, rcond=None)
        return coef, float(np.linalg.norm(A @ coef - v))

    grid = np.logspace(np.log10(0.05), np.log10(6.0), 160)
    best_b, best_coef, best_res = None, None, np.inf
    for b in grid:
        coef, res = solve_for(b)
        if res < best_res:
            best_b, best_coef, best_res = b, coef, res
    brent = scipy.optimize.minimize_scalar(lambda b: solve_for(b)[1], method="bounded",
                                           bounds=(best_b / 1.6, best_b * 1.6),
                                           options={"xatol": 1e-12})
    coef, res = solve_for(brent.x)
    if res < best_res:
        best_b, best_coef, best_res = brent.x, coef, res
    v_inf, a = float(best_coef[0]), float(best_coef[1])
    return v_inf, a, -float(best_b), best_res


def fit_loglog(scales, values):
    """Pure power-law fit log(value) = c + slope * log(scale); returns (slope, r2)."""
    s = np.log(np.asarray(scales, dtype=float))
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0):
        return 0.0, 0.0
    lv = np.log(v)
    A = np.column_stack([np.ones_like(s), s])
    coef, *_ = np.linalg.lstsq(A, lv, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[1]), r2

