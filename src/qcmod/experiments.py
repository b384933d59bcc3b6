"""Exploratory pipelines probing the exact-formula predictions.

These pipelines estimate condenser moduli on finite surrogates and report
ratios that the exact formulas predict to be constant. Estimated constants
are never asserted: hard checks are limited to exact structure (homogeneity,
direct-sum monotonicity, symmetry), and every constancy claim is labeled SOFT
in the outputs.

The finite surrogate for "finite rank" is a band-limit constraint in the
Fourier basis of a cyclic grid: a cyclic grid compactifies space, so frequency
is the surviving infinity and AQ_highpass = 0 plays the role of finite rank.
"""

import math
from dataclasses import dataclass

import numpy as np

from .condenser_solver import SolveOptions, scale_sweep, solve_condenser
from .errors import ValidationError
from .jsonio import as_int
from .operator_core import OperatorTuple, make_condenser
from .ri_norms import NormSpec

GAMMA1 = 1.0 / math.pi  # reference constant for the single-variable ratio


# -- Fourier machinery on cyclic grids -------------------------------------------------


def mode_order_1d(N):
    """Signed frequencies ordered 0, +1, -1, +2, -2, ...; length N."""
    out = [0]
    for m in range(1, N // 2 + 1):
        out.append(m)
        if m != N - m:
            out.append(-m)
    return out


def real_fourier_basis_1d(N, freqs):
    """Orthonormal real vectors spanning the span of e^(2 pi i f j / N), f in freqs.

    ``freqs`` must be closed under negation (mod N); the returned basis has one
    column per frequency.
    """
    fset = set(f % N for f in freqs)
    if set((-f) % N for f in fset) != fset:
        raise ValidationError("frequency set must be closed under negation")
    j = np.arange(N)
    cols = []
    seen = set()
    for f in freqs:
        fm = f % N
        if fm in seen:
            continue
        neg = (-fm) % N
        if fm == neg:
            cols.append(np.where(j % 2 == 0, 1.0, -1.0) / np.sqrt(N) if fm else np.full(N, 1.0 / np.sqrt(N)))
            seen.add(fm)
        else:
            ang = 2.0 * np.pi * fm * j / N
            cols.append(np.cos(ang) * np.sqrt(2.0 / N))
            cols.append(np.sin(ang) * np.sqrt(2.0 / N))
            seen.add(fm)
            seen.add(neg)
    return np.column_stack(cols)


def _check_modes(N, M, K):
    if not (0 <= M < K < N):
        raise ValidationError("need 0 <= M < K < N")


def timefreq_condenser(N, M, K):
    """Condenser (P = M lowest Fourier modes, Q = modes at index >= K) on C^N.

    M and K should be odd so the mode sets are closed under conjugation and
    the bases are real. Returns (condenser, mode_table).
    """
    _check_modes(N, M, K)
    order = mode_order_1d(N)
    low, mid, high = order[:M], order[M:K], order[K:]
    Vp = real_fourier_basis_1d(N, low) if M else np.zeros((N, 0))
    Vq = real_fourier_basis_1d(N, high)
    Vm = real_fourier_basis_1d(N, mid) if mid else np.zeros((N, 0))
    cond = make_condenser(("basis", Vp), ("basis", Vq), dim=N, middle_basis=Vm)
    return cond, {"low": low, "mid": mid, "high": high}


def position_tuple(N, multiplicity=1, variant="sawtooth"):
    """tau = (position operator on the cyclic N-grid), direct-summed ``multiplicity`` times.

    ``variant="sawtooth"`` is diag(j/N): spectrum [0, 1) with multiplicity 1,
    but discontinuous across the wrap of the cyclic grid (the seam contributes
    an O(1) trace-norm artifact that does not vanish with N).
    ``variant="triangle"`` is diag(2 dist(j/N, Z)): continuous on the circle,
    spectrum [0, 1] with multiplicity 2.
    """
    frac = np.arange(N) / N
    if variant == "sawtooth":
        diag = frac
    elif variant == "triangle":
        diag = 2.0 * np.minimum(frac, 1.0 - frac)
    else:
        raise ValidationError(f"unknown position variant {variant!r}")
    X = np.diag(np.repeat(diag, multiplicity).astype(float))
    return OperatorTuple.of([X], selfadjoint=[True])


def position_multiplicity_integral(variant):
    """Exact integral of the multiplicity function of the position variant."""
    return {"sawtooth": 1.0, "triangle": 2.0}[variant]


def _kron_basis(V, m):
    return np.kron(V, np.eye(m))


def timefreq_problem(N, M, K, multiplicity=1, variant="sawtooth"):
    """(tau, condenser) for the multiplicity-m position operator on the N-grid.

    Multiplicity is realized as a direct sum of m identical copies; the
    projections are direct-summed accordingly.
    """
    cond1, _ = timefreq_condenser(N, M, K)
    if multiplicity == 1:
        return position_tuple(N, 1, variant), cond1
    Vp = _kron_basis(cond1.basis_p, multiplicity)
    Vq = _kron_basis(cond1.basis_q, multiplicity)
    Vm = _kron_basis(cond1.basis_mid, multiplicity)
    cond = make_condenser(("basis", Vp), ("basis", Vq), dim=N * multiplicity, middle_basis=Vm)
    return position_tuple(N, multiplicity, variant), cond


def default_M_rule(N):
    return 2 * max(1, round(math.sqrt(N) / 4.0)) + 1


def default_K_rule(N):
    return (N // 2) | 1


def gamma1_schedule(N_list):
    """(N, M, K) per gamma1 scale: M = ``default_M_rule(N)`` inner and K =
    ``default_K_rule(N)`` first outer modes, checked as in ``timefreq_condenser``."""
    schedule = [(N, default_M_rule(N), default_K_rule(N)) for N in N_list]
    if not schedule:
        raise ValidationError("N_list needs at least one scale")
    for N, M, K in schedule:
        _check_modes(N, M, K)
    return schedule


# -- gamma_1 experiment ----------------------------------------------------------------


def gamma1_experiment(N_list, opts=None, variant="sawtooth"):
    """Trace-norm condenser values on the time-frequency family, extrapolated
    along N and compared (diagnostically) with (1/pi) * integral(m).

    Each N gets the modes of ``gamma1_schedule``; ``scale_sweep`` fits the
    limit when N_list has at least 3 scales and reports the largest-N value
    otherwise.

    The default ``variant="sawtooth"`` uses the raw grid position diag(j/N)
    (multiplicity 1). That operator is discontinuous across the cyclic wrap,
    which adds a seam contribution to the trace norm that does not vanish with
    N; the ratio then typically overshoots the [0.5, 1.5] band. The
    ``"triangle"`` variant is continuous on the circle (multiplicity 2) and is
    seam-free. No hard pass/fail either way: the ratio is a SOFT diagnostic.
    """
    opts = opts or SolveOptions(max_iters=800, tol=1e-7, seed=0, restarts=2)
    spec = NormSpec.schatten(1)
    schedule = gamma1_schedule(N_list)
    reference = GAMMA1 * position_multiplicity_integral(variant)

    problems = [(N, *timefreq_problem(N, M, K, variant=variant)) for (N, M, K) in schedule]
    sweep = scale_sweep(problems, spec, opts)
    values = sweep["values"]
    estimate = sweep["estimate"]
    extrapolation = ({k: sweep[k] for k in ("limit", "exponent", "fit_residual", "reliable")}
                     if sweep["extrapolation_available"] else None)

    # Monotone-in-P diagnostic at the largest scale: shrinking the inner plate
    # cannot increase the value.
    N, M, K = schedule[-1]
    mono_flag = None
    if M >= 5:
        tauS, condS = timefreq_problem(N, M - 2, K, variant=variant)
        repS = solve_condenser(tauS, condS, spec, opts)
        mono_flag = bool(repS.value <= values[-1] + 10 * opts.tol * max(1.0, values[-1]))

    ratio = estimate / reference
    return {
        "variant": variant,
        "schedule": [{"N": N, "M": M, "K": K} for (N, M, K) in schedule],
        "values": values,
        "reports": sweep["reports"],
        "estimate": float(estimate),
        "multiplicity_integral": position_multiplicity_integral(variant),
        "reference": reference,
        "ratio_to_reference": float(ratio),
        "ratio_band": [0.5, 1.5],
        "ratio_in_band": bool(0.5 <= ratio <= 1.5),
        "monotone_in_P": mono_flag,
        "extrapolation": extrapolation,
        "claim_level": "SOFT",
    }


# -- multiplicity models and the ratio experiment --------------------------------------


@dataclass(frozen=True)
class MultiplicityModel:
    """A region/measure surrogate in R^n realized as condenser problem families.

    ``kind`` is "box_step" (an interval with an integer step multiplicity
    function; n = 1) or "cantor_product" (the square of a self-similar Cantor
    set with ``pieces`` maps of ratio ``ratio`` at a given depth; n = 2).
    Construction requires a positive ``integral``; ``model_problem`` rejects
    a box model whose grid misses every cell of positive multiplicity.
    """

    kind: str
    n: int = 1
    multiplicity: tuple = (1,)
    cell_lengths: tuple = (1.0,)
    ratio: float = 1.0 / 3.0
    pieces: int = 2
    depth: int = 2
    scale: float = 1.0
    label: str = ""
    position_variant: str = "sawtooth"  # box models: grid embedding of the spectrum

    def __post_init__(self):
        if self.kind not in ("box_step", "cantor_product"):
            raise ValidationError(f"unknown model kind {self.kind!r}")
        if self.position_variant not in ("sawtooth", "triangle"):
            raise ValidationError(f"unknown position variant {self.position_variant!r}")
        if any(int(m) != m or m < 0 for m in self.multiplicity) or not any(self.multiplicity):
            raise ValidationError("multiplicities must be nonnegative integers, not all 0")
        if not all(0 < x < np.inf for x in (*self.cell_lengths, self.scale)):
            raise ValidationError("cell lengths and scale must be finite and positive")
        if self.kind == "box_step":
            if self.n != 1:
                raise ValidationError("box models are implemented for n = 1")
            if len(self.multiplicity) != len(self.cell_lengths):
                raise ValidationError("one multiplicity per cell required")
        else:
            if not (0 < self.ratio < 1.0 / self.pieces if self.pieces > 1 else 0 < self.ratio < 1):
                raise ValidationError("cantor pieces must not overlap (ratio * pieces < 1)")
            if self.n != 2:
                raise ValidationError("cantor products are implemented for n = 2")
            if len(self.multiplicity) != 1:
                raise ValidationError("a cantor product takes one positive integer multiplicity")
            if self.n * self.hausdorff_dimension_factor < 1.0:
                raise ValidationError(
                    "the product dimension n*log(c)/log(1/r) must be >= 1 for a Lorentz norm"
                )

    @property
    def hausdorff_dimension_factor(self):
        return math.log(self.pieces) / math.log(1.0 / self.ratio)

    @property
    def hausdorff_dimension(self):
        return self.n * self.hausdorff_dimension_factor

    @property
    def integral(self):
        """Exact integral of the multiplicity against the reference measure."""
        if self.kind == "box_step":
            base = sum(m * ln for m, ln in zip(self.multiplicity, self.cell_lengths))
            cover = 2.0 if self.position_variant == "triangle" else 1.0
            return base * cover * self.scale
        # Hutchinson measure has total mass 1 per factor.
        return float(self.multiplicity[0]) * (self.scale ** self.hausdorff_dimension)

    def norm_spec(self):
        if self.kind == "box_step":
            return NormSpec.schatten(1)
        return NormSpec.lorentz(self.hausdorff_dimension)

    def exponent(self):
        """Power applied to the modulus estimate in the predicted-constant ratio."""
        return 1 if self.kind == "box_step" else self.hausdorff_dimension

    @staticmethod
    def from_json(obj):
        kw = {k: obj[k] for k in ("kind", "ratio", "scale", "label", "position_variant") if k in obj}
        kw.update({k: as_int(obj[k], k) for k in ("n", "pieces", "depth") if k in obj})
        if "multiplicity" in obj:
            m = obj["multiplicity"]
            kw["multiplicity"] = tuple(as_int(x, "multiplicity")
                                       for x in (m if isinstance(m, (list, tuple)) else [m]))
        if "cell_lengths" in obj:
            kw["cell_lengths"] = tuple(float(x) for x in obj["cell_lengths"])
        elif "multiplicity" in kw and len(kw["multiplicity"]) > 1:
            k = len(kw["multiplicity"])
            kw["cell_lengths"] = tuple(1.0 / k for _ in range(k))
        return MultiplicityModel(**kw)


def cantor_points(ratio, pieces, depth):
    """Depth-level cell centers of the self-similar set with equally spaced maps."""
    offsets = (
        np.arange(pieces) * (1.0 - ratio) / (pieces - 1) if pieces > 1 else np.zeros(1)
    )
    pts = np.array([0.0])
    for _ in range(depth):
        pts = (ratio * pts[None, :] + offsets[:, None]).ravel()
    return np.sort(pts + ratio ** depth / 2.0)


def model_problem(model, scale_index):
    """(tau, condenser) for the model at an increasing-dimension scale index."""
    if model.kind == "box_step":
        N = 16 * (2 ** scale_index)
        # Step multiplicity: repeat each grid point according to its cell's m.
        edges = np.cumsum((0.0,) + model.cell_lengths)
        total = edges[-1]
        frac = (np.arange(N) + 0.5) / N
        if model.position_variant == "triangle":
            pos = 2.0 * np.minimum(frac, 1.0 - frac) * total
        else:
            pos = frac * total
        cell = np.clip(np.searchsorted(edges, pos, side="right") - 1, 0, len(edges) - 2)
        diag = np.repeat(pos, np.asarray(model.multiplicity, dtype=int)[cell]) * model.scale
        if diag.size == 0:
            raise ValidationError("model has empty spectrum")
        D = diag.size
        cond, _ = timefreq_condenser(D, default_M_rule(D), default_K_rule(D))
        return OperatorTuple.of([np.diag(diag)], selfadjoint=[True]), cond
    pts = cantor_points(model.ratio, model.pieces, model.depth + scale_index) * model.scale
    return _grid2_problem(pts, int(model.multiplicity[0]))


def _grid2_problem(pts, multiplicity=1, swap=False):
    """(tau, condenser) for the two coordinate operators of the grid pts x pts
    (exchanged with ``swap``), each direct-summed ``multiplicity`` times, with
    the 2-d Fourier condenser."""
    g = pts.size
    X = np.kron(np.diag(pts), np.eye(g))
    Y = np.kron(np.eye(g), np.diag(pts))
    if multiplicity > 1:
        X, Y = np.kron(X, np.eye(multiplicity)), np.kron(Y, np.eye(multiplicity))
    tau = OperatorTuple.of([Y, X] if swap else [X, Y], selfadjoint=[True, True])
    return tau, grid2_condenser(g, multiplicity)


def grid2_condenser(g, multiplicity=1):
    """2-d Fourier condenser on a g x g grid (times a multiplicity factor)."""
    order = mode_order_1d(g)
    pairs = [(a, b) for a in order for b in order]
    pairs.sort(key=lambda ab: (max(abs(ab[0]), abs(ab[1])), abs(ab[0]), abs(ab[1]), ab))
    rP = max(0, (g // 8)) or 0
    rK = max(rP + 1, g // 3)
    low = [ab for ab in pairs if max(abs(ab[0]), abs(ab[1])) <= rP]
    mid = [ab for ab in pairs if rP < max(abs(ab[0]), abs(ab[1])) <= rK]
    high = [ab for ab in pairs if max(abs(ab[0]), abs(ab[1])) > rK]
    Vp = _grid2_basis(g, low)
    Vm = _grid2_basis(g, mid)
    Vq = _grid2_basis(g, high)
    if multiplicity > 1:
        Vp, Vm, Vq = (_kron_basis(V, multiplicity) for V in (Vp, Vm, Vq))
    return make_condenser(("basis", Vp), ("basis", Vq), dim=g * g * multiplicity, middle_basis=Vm)


def _grid2_basis(g, modes):
    """Real orthonormal basis for a conjugation-closed set of 2-d modes."""
    j = np.arange(g)
    cols = []
    seen = set()
    for (a, b) in modes:
        key = (a % g, b % g)
        if key in seen:
            continue
        neg = ((-a) % g, (-b) % g)
        phase = 2.0 * np.pi * (np.add.outer(a * j, b * j) % g) / g
        if key == neg:
            vec = np.cos(phase).ravel() / g
            vec = vec / np.linalg.norm(vec)
            cols.append(vec)
            seen.add(key)
        else:
            c = np.cos(phase).ravel() * np.sqrt(2.0) / g
            s = np.sin(phase).ravel() * np.sqrt(2.0) / g
            cols.append(c)
            cols.append(s)
            seen.add(key)
            seen.add(neg)
    if not cols:
        return np.zeros((g * g, 0))
    return np.column_stack(cols)


def ratio_problems(models, n_scales):
    """Per model, the ``scale_sweep`` problems (dim, tau, condenser) of its
    first ``n_scales`` scales (at least 1), all built before anything is solved."""
    if n_scales < 1:
        raise ValidationError("n_scales must be >= 1")
    return [[(tau.dim, tau, cond) for tau, cond in (model_problem(m, s) for s in range(n_scales))]
            for m in models]


def ratio_experiment(models, opts=None, n_scales=3):
    """Estimate the modulus for each model and tabulate estimate^n / integral.

    The exact formulas predict the column is constant across models sharing
    the ambient structure; the coefficient of variation of the column is the
    (SOFT) constancy diagnostic. Models whose member solves fail to converge
    are flagged and excluded from the CV.
    """
    opts = opts or SolveOptions(max_iters=600, tol=1e-6, seed=0, restarts=2)
    models = list(models)
    if len(models) < 2:
        raise ValidationError("ratio experiment needs at least 2 comparable models")

    rows = []
    for model, problems in zip(models, ratio_problems(models, n_scales)):
        sweep = scale_sweep(problems, model.norm_spec(), opts)
        values = sweep["values"]
        est = sweep["estimate"]
        conv = all(sweep["converged"])
        ratio = (est ** model.exponent()) / model.integral
        rows.append({
            "label": model.label or model.kind,
            "values": values,
            "estimate": float(est),
            "integral": float(model.integral),
            "exponent": float(model.exponent()),
            "ratio": float(ratio),
            "converged": bool(conv),
            "histories": [r.history for r in sweep["reports"]],
        })
    used = [r["ratio"] for r in rows if r["converged"]]
    cv = float(np.std(used) / np.mean(used)) if len(used) >= 2 and np.mean(used) > 0 else None
    return {"rows": rows, "ratio_cv": cv, "claim_level": "SOFT"}


# -- hybrid exponent scan ---------------------------------------------------------------


def hybrid_gridsize(gridsize):
    """The number of cells per axis of a hybrid scan's grid, at least 1."""
    g = as_int(gridsize, "gridsize")
    if g < 1:
        raise ValidationError("gridsize must be >= 1")
    return g


def hybrid_exponents(exponent_sets):
    """The exponent sets of a hybrid scan, each two p_j > 1 with sum 1/p_j = 1."""
    for ps in exponent_sets:
        if any(p <= 1 for p in ps):
            raise ValidationError("hybrid exponents must satisfy p_j > 1")
        if abs(sum(1.0 / p for p in ps) - 1.0) > 1e-12:
            raise ValidationError(f"exponents {ps} violate sum 1/p_j = 1")
        if len(ps) != 2:
            raise ValidationError("the grid model is two-dimensional; give 2 exponents")
    return exponent_sets


def hybrid_exponent_scan(gridsize, exponent_sets, opts=None, swap=False):
    """Per-component Lorentz (p_j, 1) condenser values on the 2-d grid model.

    Every exponent set must satisfy sum_j 1/p_j = 1 with all p_j > 1. With
    ``swap=True`` the two position operators are exchanged (coordinate-swapped
    model); the value must be symmetric under swapping the exponents together
    with the model.
    """
    opts = opts or SolveOptions(max_iters=600, tol=1e-6, seed=0, restarts=2)
    g = hybrid_gridsize(gridsize)
    tau, cond = _grid2_problem((np.arange(g) + 0.5) / g, swap=swap)

    results = []
    for ps in hybrid_exponents(exponent_sets):  # every set is checked before the first solve
        specs = [NormSpec.lorentz(p) for p in ps]
        rep = solve_condenser(tau, cond, specs, opts)
        results.append({
            "exponents": list(ps),
            "value": rep.value,
            "converged": rep.converged,
        })
    return {"gridsize": g, "swap": bool(swap), "results": results}
