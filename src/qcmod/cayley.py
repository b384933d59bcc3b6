"""Nonlinear condenser capacities on Cayley-graph balls and the transfer check.

A ball of radius R carries, per generator g_j, the partial map h -> g_j h
(left multiplication). The balls of Z^d and F_k come from one breadth-first
search over int rows (coordinates, or reduced words padded with zeros), one
vectorized map per letter and one sorted level per word length, so the
vertices are ordered by (word length, key) as tuples compare. Potentials u
live on the ball with value 0 outside (finite support realized at the chosen
scale), so the difference function u(g_j .) - u(.) also has entries on edges
crossing the boundary sphere.

The capacity

    cap_J(X1, X2) = inf { max_j |u(g_j .) - u(.)|_J : 0 <= u <= 1,
                          u = 1 on X1, u = 0 on X2 }

is convex and is minimized on the box [0, 1]^vertices with equality pins
by ``solve_max_norm``, the solve the condenser shares, with one run of
``_solvers.lbfgs`` (limited-memory BFGS) per ε stage. Those runs take no
bounds: clipping the free vertices to [0, 1] is 1-Lipschitz and fixes the
pins and the 0 outside the ball (a normal contraction; Beurling & Deny
1959), so no entry of any d_j(u) grows in magnitude, and every stage
objective (the exact p-norm, the Huber sum, the log-sum-exp across
generators) is nondecreasing in each entry's magnitude. Hence
f(clip u) <= f(u) for every u, the unconstrained infimum is the
constrained one, and clipping a stage's result keeps it feasible. Exact
oracles (LP for the trace-norm case, sparse harmonic solve for the
Frobenius case) live alongside for tests.

All of them read the difference structure from one sparse incidence
operator per ball (``CayleyBall.incidence``): the generators' difference
matrices D_j stacked into one CSR matrix D, so that one product D @ u gives
every d_j(u), together with each D_j's transpose restricted to the free
(unpinned) vertices. Every row of D has at most two entries, +1 and -1, and
every column of a D_j has exactly two, so each entry of D @ u and of
D_j^T @ w is one exactly rounded sum of two terms: the same number the
gather / scatter formulation computes. Results are therefore bit-identical
to that formulation, which matters because the solves are not run to
convergence and are sensitive to roundoff.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from ._solvers import SolveOptions, SolveReport, _starts, fit_loglog, lbfgs, point_bound, solve_max_norm
from .condenser_solver import solve_condenser
from .errors import ValidationError
from .jsonio import as_int
from .operator_core import ContractionVariable, OperatorTuple, make_condenser
from .ri_norms import NormSpec, vector_norm

#: Largest dense regular representation ``truncated_regular_rep`` builds, in
#: bytes (n_generators * n_vertices^2 doubles); F2 balls up to R = 6 fit.
_DENSE_REP_LIMIT = 256 << 20


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated group given as a lattice Z^d, free group F_k, or
    explicit permutation tables on a finite vertex set."""

    kind: str  # "zd" | "free" | "custom"
    d: int = 0
    k: int = 0
    tables: tuple | None = None

    def __post_init__(self):
        if self.kind == "zd":
            if self.d < 1:
                raise ValidationError("Z^d requires d >= 1")
        elif self.kind == "free":
            if self.k < 1:
                raise ValidationError("free group requires k >= 1")
        elif self.kind == "custom":
            if not self.tables:
                raise ValidationError("custom group requires permutation tables")
            size = len(self.tables[0])
            for t in self.tables:
                if sorted(t) != list(range(size)):
                    raise ValidationError("custom tables must be bijections on the vertex set")
        else:
            raise ValidationError(f"unknown group kind {self.kind!r}")

    @property
    def n_generators(self):
        if self.kind == "zd":
            return self.d
        if self.kind == "free":
            return self.k
        return len(self.tables)

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError('group JSON needs a "kind" field')
        kind = obj["kind"]
        if kind in ("Z^d", "zd", "Zd"):
            return GroupSpec("zd", d=as_int(obj["d"], "d"))
        if kind == "free":
            return GroupSpec("free", k=as_int(obj["k"], "k"))
        if kind == "custom":
            return GroupSpec("custom", tables=tuple(tuple(as_int(x, "a table entry") for x in t)
                                                    for t in obj["tables"]))
        raise ValidationError(f"unknown group kind {kind!r}")


def ball_size(group, R):
    """Exact vertex count of the radius-R word-metric ball."""
    if group.kind == "zd":
        d = group.d
        return sum(
            (2 ** k) * math.comb(d, k) * math.comb(R, k) for k in range(0, min(d, R) + 1)
        )
    if group.kind == "free":
        k = group.k
        if R == 0:
            return 1
        if k == 1:
            return 2 * R + 1
        return 1 + 2 * k * ((2 * k - 1) ** R - 1) // (2 * k - 2)
    return len(group.tables[0])


@dataclass(frozen=True)
class CayleyBall:
    """Finite ball with per-generator partial vertex maps and marked plates."""

    group: GroupSpec
    R: int
    vertices: tuple            # canonical word forms, BFS-by-length then lexicographic
    word_lengths: np.ndarray
    sigma: tuple               # per generator: int array, sigma[j][i] = index of g_j v_i, -1 if outside
    sigma_inv: tuple           # per generator: index of g_j^{-1} v_i, -1 if outside
    X1: np.ndarray             # sorted vertex indices
    X2: np.ndarray

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_generators(self):
        return len(self.sigma)

    def index_of(self, key):
        try:
            return self.vertices.index(key)
        except ValueError:
            raise ValidationError(f"vertex {key!r} is not inside the ball")

    @cached_property
    def incidence(self):
        """The ball's difference operator, built once (see IncidenceOperator)."""
        return IncidenceOperator.of(self)


def _row_codes(rows):
    """One int64 per row of an int array, ordered as the rows are
    lexicographically (so equal exactly for equal rows): the columns are
    folded in as mixed-radix digits, and the code is rank-compressed by
    ``np.unique`` before a digit that could overflow (a single code fails
    already for Z^30 at R = 2, whose images span 7^30 > 2^63 codes)."""
    code, top = np.zeros(len(rows), dtype=np.int64), 0
    for col in rows.T:
        col = col - col.min()
        span = int(col.max()) + 1
        if (top + 1) * span > 1 << 62:
            code = np.unique(code, return_inverse=True)[1]
            top = int(code.max())
        code, top = code * span + col, top * span + span - 1
    return code


def _word_ball(identity, letters, n_generators, R):
    """The radius-R ball by one breadth-first search over int rows.

    ``letters`` are the left multiplications by the generators, then by
    their inverses, each a vectorized map of a row array. Level r holds the
    rows the letters map level r - 1 to that lie in neither level r - 1 nor
    level r - 2, sorted as ``_row_codes`` sorts them, so the vertices come in
    (word length, key) order. Returns the rows, their word lengths and per
    generator the index of g_j v (-1 outside the ball).
    """
    levels = [identity[None, :]]
    for _ in range(R):
        n_near = sum(map(len, levels[-2:]))
        rows = np.concatenate(levels[-2:] + [a(levels[-1]) for a in letters])
        # a row's first occurrence is new exactly when no row of the near levels equals it
        first = np.unique(_row_codes(rows), return_index=True)[1]
        levels.append(rows[first[first >= n_near]])
    rows = np.concatenate(levels)
    word_lengths = np.repeat(np.arange(R + 1), [len(level) for level in levels])
    # rank every vertex and generator image together; a rank no vertex has is outside
    ranks = np.unique(_row_codes(np.concatenate([rows] + [a(rows) for a in letters[:n_generators]])),
                      return_inverse=True)[1]
    where = np.full(ranks.max() + 1, -1)
    where[ranks[:len(rows)]] = np.arange(len(rows))
    return rows, word_lengths, list(where[ranks[len(rows):].reshape(n_generators, -1)])


def _free_letter(a):
    """Left multiplication by the letter a (+j the generator j, -j its
    inverse) of reduced words stored as rows padded with zeros: a cancelling
    first letter is dropped, else the word shifts right behind a."""
    def mult(W):
        pad = np.zeros((len(W), 1), dtype=W.dtype)
        return np.where(W[:, :1] == -a, np.hstack([W[:, 1:], pad]), np.hstack([pad + a, W[:, :-1]]))
    return mult


def _resolve_plate(descr, group, verts, word_lengths):
    """Vertex-set descriptor -> sorted index array.

    Accepted forms: None/[] (empty), "origin"/"identity", an explicit list of
    vertex keys (coordinate tuples for Z^d, letter tuples for free groups,
    ints for custom), {"sphere": r}, or {"radius_at_least": r}.
    """
    if descr is None:
        return np.array([], dtype=int)
    if isinstance(descr, str):
        if descr in ("origin", "identity", "e"):
            return np.array([0], dtype=int)  # the identity, or a custom group's vertex 0
        raise ValidationError(f"unknown plate descriptor {descr!r}")
    if isinstance(descr, dict):
        if "sphere" in descr:
            r = as_int(descr["sphere"], "sphere")
            return np.flatnonzero(word_lengths == r).astype(int)
        if "radius_at_least" in descr:
            r = as_int(descr["radius_at_least"], "radius_at_least")
            return np.flatnonzero(word_lengths >= r).astype(int)
        raise ValidationError(f"unknown plate descriptor {descr!r}")
    index = {v: i for i, v in enumerate(verts)}
    idx = []
    for key in descr:
        if group.kind == "custom":
            key = as_int(key, "a plate vertex")
        else:
            key = tuple(as_int(x, "a plate vertex coordinate") for x in key)
        if key not in index:
            raise ValidationError(f"plate vertex {key!r} lies outside the ball")
        idx.append(index[key])
    return np.array(sorted(set(idx)), dtype=int)


def build_ball(group, R, X1=None, X2=None):
    """Enumerate the radius-R ball with canonical ordering and generator maps."""
    if R < 0:
        raise ValidationError("R must be >= 0")
    if group.kind == "zd":
        units = np.eye(group.d, dtype=np.int64)
        rows, word_lengths, sigma = _word_ball(
            np.zeros(group.d, dtype=np.int64), [lambda W, e=e: W + e for e in [*units, *-units]],
            group.d, R)
        verts = list(map(tuple, rows.tolist()))
    elif group.kind == "free":
        # R + 1 letters hold every word of the ball and every generator image of one
        letters = [*range(1, group.k + 1), *range(-1, -group.k - 1, -1)]
        rows, word_lengths, sigma = _word_ball(
            np.zeros(R + 1, dtype=np.int64), [_free_letter(a) for a in letters], group.k, R)
        verts = [tuple(v[:r]) for v, r in zip(rows.tolist(), word_lengths.tolist())]
    else:
        verts = list(range(len(group.tables[0])))
        word_lengths = np.zeros(len(verts), dtype=int)
        sigma = [np.asarray(t, dtype=int) for t in group.tables]

    expected = ball_size(group, R)
    if len(verts) != expected:
        raise ValidationError(f"ball growth mismatch: {len(verts)} vertices, expected {expected}")

    x1 = _resolve_plate(X1, group, verts, word_lengths)
    x2 = _resolve_plate(X2, group, verts, word_lengths)
    if np.intersect1d(x1, x2).size:
        raise ValidationError("X1 and X2 must be disjoint")
    sigma_inv = []
    for j, fwd in enumerate(sigma):
        inside = np.flatnonzero(fwd >= 0)
        inv = np.full(len(verts), -1, dtype=int)
        inv[fwd[inside]] = inside
        if np.count_nonzero(inv >= 0) != inside.size:
            raise ValidationError(f"generator map {j} is not injective where defined")
        sigma_inv.append(inv)

    return CayleyBall(
        group=group,
        R=R,
        vertices=tuple(verts),
        word_lengths=word_lengths,
        sigma=tuple(sigma),
        sigma_inv=tuple(sigma_inv),
        X1=x1,
        X2=x2,
    )


# -- difference structure -------------------------------------------------------------


@dataclass(frozen=True)
class IncidenceOperator:
    """The group difference function of a ball as one sparse matrix.

    Block j of ``D`` (rows ``offsets[j]:offsets[j + 1]``) is the generator's
    difference matrix D_j: row h < n_vertices gives u(g_j h) - u(h) (the first
    term is 0 when g_j h lies outside the ball), and one further row per
    vertex v whose g_j-preimage lies outside gives u(v) - 0. Together these
    are exactly the nonzero entries of the difference function of a
    potential supported in the ball. ``free`` lists the unpinned vertices
    (outside X1 and X2), ``D_free`` is D restricted to their columns and
    ``Dt_free[j]`` is D_j^T restricted to them.
    """

    D: scipy.sparse.csr_array
    offsets: tuple
    free: np.ndarray
    D_free: scipy.sparse.csr_array
    Dt_free: tuple

    @staticmethod
    def of(ball):
        nv = ball.n_vertices
        h = np.arange(nv)
        rows, cols, vals, offsets = [], [], [], [0]
        for fwd, bwd in zip(ball.sigma, ball.sigma_inv):
            r0 = offsets[-1]
            inside = np.flatnonzero(fwd >= 0)
            entering = np.flatnonzero(bwd < 0)
            rows += [r0 + inside, r0 + h, r0 + nv + np.arange(entering.size)]
            cols += [fwd[inside], h, entering]
            vals += [np.ones(inside.size), -np.ones(nv), np.ones(entering.size)]
            offsets.append(r0 + nv + entering.size)
        D = scipy.sparse.csr_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(offsets[-1], nv),
        )
        pinned = np.zeros(nv, dtype=bool)
        pinned[ball.X1] = True
        pinned[ball.X2] = True
        free = np.flatnonzero(~pinned)
        D_free = D[:, free]
        Dt_free = tuple(D_free[a:b].T.tocsr() for a, b in zip(offsets[:-1], offsets[1:]))
        return IncidenceOperator(D, tuple(offsets), free, D_free, Dt_free)

    def diffs(self, u):
        """Per generator the difference function d_j(u), from one product D @ u."""
        d = self.D @ u
        return [d[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:])]

    def max_norm(self, u, spec):
        """max_j |d_j(u)|_J, the capacity objective at the full potential u."""
        return max(vector_norm(d, spec) for d in self.diffs(u))

    def laplacian(self):
        """sum_j D_j^T D_j on the free vertices (the Dirichlet energy's matrix)."""
        return (self.D_free.T @ self.D_free).tocsr()


def graph_capacity(ball, spec, opts=None):
    """Condenser capacity of (X1, X2) on the ball for one RI norm.

    The box constraint and pins are kept exactly at every offered point.
    The solve is ``solve_max_norm`` on the free coordinates, as in the
    condenser solve, with one component per generator (its difference
    function) and one unconstrained ``lbfgs`` run per ε stage, whose result
    is clipped to the box (the module docstring's clip lemma). The box's
    linear minimum, Σ_i min(g_i, 0), lets the subgradient phase aim at and
    stop on its window lower bound (``projected_subgradient``) and gives the
    point bound at the minimizer (``point_bound``); the report's ``lower``
    is the larger, floored at 0 and capped at the value.
    """
    opts = opts or SolveOptions()
    nv = ball.n_vertices
    op = ball.incidence
    u = np.zeros(nv)
    u[ball.X1] = 1.0
    free = op.free

    if ball.X1.size == 0:
        # u = 0 is feasible and makes every difference vanish.
        return SolveReport.closed_form(0.0, u, {"box": 0.0, "pins": 0.0},
                                       empty_inner_plate=True, n_vertices=nv)
    if free.size == 0:
        # every vertex pinned: the single feasible potential is the pin pattern
        value = op.max_norm(u, spec)
        return SolveReport.closed_form(value, u, {"box": 0.0, "pins": 0.0},
                                       n_vertices=nv, fully_pinned=True)

    def assemble(x):
        full = u.copy()
        full[free] = x
        return full

    # the spectra of max_norm_fg: each d_j(u) itself, lifted by D_j^T on the free vertices
    lifts = [Dt.__matmul__ for Dt in op.Dt_free]
    spectra = lambda x: list(zip(op.diffs(assemble(x)), lifts))
    proj = lambda x: np.clip(x, 0.0, 1.0)

    def stage(k, fg, x, f0, history):
        """A warm-started ``lbfgs`` run on the k-th smoothing from x, which
        logs each iteration's smoothed value, and its result clipped to the
        box. The logged iterates may lie outside the box; by the clip lemma
        their values bound the clipped points' from above. Only a stop by
        the iteration limit is not converged."""
        x, f, _, converged, _ = lbfgs(fg, x, max_iters=3000, history=history)
        return proj(x), f, converged

    def finish(x):
        full = assemble(x)
        feasibility = {
            "box": float(max(0.0, full.max() - 1.0, -full.min())),
            "pins": float(max(np.abs(full[ball.X1] - 1.0).max(initial=0.0),
                              np.abs(full[ball.X2]).max(initial=0.0))),
        }
        return full, feasibility

    draw = lambda rng: rng.uniform(0.0, 1.0, size=free.size)
    return solve_max_norm(spectra, [spec] * len(lifts), lambda g: g, proj,
                          _starts(np.full(free.size, 0.5), draw, opts), finish, opts, stage,
                          linear_min=_box_linear_min, n_vertices=nv)


def _box_linear_min(g):  # min of <g, x> over the box [0, 1]^free
    return float(np.minimum(g, 0.0).sum())


# -- exact oracles --------------------------------------------------------------------


def total_variation_capacity_lp(ball):
    """Exact trace-norm capacity via linear programming (HiGHS).

    min z  s.t.  z >= sum_e t_{j,e},  t_{j,e} >= +/- d_{j,e}(u),  u in [0,1],
    pins on X1/X2 substituted. Used as an independent oracle for p = 1.
    With c = D u_pins the pinned part of every difference, each row e of D
    gives the pair [D_free, -I] (u, t) <= -c_e and [-D_free, -I] (u, t) <= c_e.
    """
    op = ball.incidence
    u_pins = np.zeros(ball.n_vertices)
    u_pins[ball.X1] = 1.0
    const = op.D @ u_pins
    nfree, nt, n = op.free.size, op.D.shape[0], len(op.Dt_free)
    # variable layout: [u_free (nfree), t (nt), z (1)]
    nvar = nfree + nt + 1
    c = np.zeros(nvar)
    c[-1] = 1.0

    sp = scipy.sparse
    minus_I = -sp.eye_array(nt, format="csr")
    no_z = sp.csr_array((nt, 1))
    pm = sp.vstack([sp.hstack([op.D_free, minus_I, no_z]),
                    sp.hstack([-op.D_free, minus_I, no_z])], format="csr")
    # the two rows of one difference stay adjacent: +d_e, -d_e, +d_(e+1), ...
    pm = pm[np.arange(2 * nt).reshape(2, nt).T.ravel()]
    # one row per generator: the sum of its t's minus z
    per_gen = sp.block_diag([np.ones((1, b - a)) for a, b in zip(op.offsets[:-1], op.offsets[1:])])
    sums = sp.hstack([sp.csr_array((n, nfree)), per_gen, sp.csr_array(-np.ones((n, 1)))])
    A_ub = sp.vstack([pm, sums], format="csc")
    b_ub = np.concatenate([np.column_stack([-const, const]).ravel(), np.zeros(n)])
    bounds = [(0.0, 1.0)] * nfree + [(0.0, None)] * nt + [(0.0, None)]
    res = scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise ValidationError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def harmonic_capacity_oracle(ball):
    """Frobenius-case oracle via one sparse SPD solve.

    Minimizes the Dirichlet energy E(u) = sum_j ||d_j(u)||_2^2 subject to the
    pins, then reports (energy, u*, max_j ||d_j(u*)||_2). On instances whose
    symmetry group permutes the generators, that last quantity equals the
    capacity inf max_j ||d_j(u)||_2 (= sqrt(E/n) there). The system matrix
    is the Laplacian sum_j D_j^T D_j on the free vertices.
    """
    op = ball.incidence
    u = np.full(ball.n_vertices, 0.0)
    u[ball.X1] = 1.0
    if op.free.size:
        rhs = op.D_free.T @ -(op.D @ u)
        u[op.free] = scipy.sparse.linalg.spsolve(op.laplacian(), rhs)
    energy = 0.0
    per_gen = []
    for d in op.diffs(u):
        e = float(np.sum(d * d))
        energy += e
        per_gen.append(np.sqrt(e))
    return {"energy": energy, "u": u, "capacity": float(max(per_gen)), "per_generator": per_gen}


# -- transfer to the operator picture -------------------------------------------------


def truncated_regular_rep(ball):
    """Left regular representation compressed to l^2(ball): partial permutations.

    The matrices are dense; a ball whose tuple would exceed ``_DENSE_REP_LIMIT``
    bytes is rejected before anything is allocated.
    """
    nv = ball.n_vertices
    need = ball.n_generators * nv * nv * 8
    if need > _DENSE_REP_LIMIT:
        raise ValidationError(
            f"the dense regular representation of a {nv}-vertex ball needs "
            f"{need / 2**20:.0f} MiB, above the {_DENSE_REP_LIMIT >> 20} MiB limit"
        )
    mats = []
    for fwd in ball.sigma:
        M = np.zeros((nv, nv))
        inside = np.flatnonzero(fwd >= 0)
        M[fwd[inside], inside] = 1.0
        mats.append(M)
    return OperatorTuple(tuple(mats), (False,) * len(mats), nv)


def _diagonal_bracket(ball, spec, u, tol):
    """``point_bound`` of k at A = diag(u), u feasible, on the tuple of
    ``truncated_regular_rep``: (k_upper, bound). [diag(u), T_j] is a weighted
    partial permutation with entries u(g_j h) - u(h), the rows h < n_vertices
    of D_j with g_j h in the ball (others read 0), lifted by D_j^T. A dual
    y_j is Y_j = T_j diag(y_j), with its singular values, and Σ_j [Y_j, T_j^*]
    = diag(Σ_j D_j^T y_j) has the box's linear minimum on the middle blocks."""
    op, nv = ball.incidence, ball.n_vertices
    comps = [(np.where(fwd >= 0, d[:nv], 0.0), Dt[:, :nv].__matmul__)
             for d, fwd, Dt in zip(op.diffs(u), ball.sigma, op.Dt_free)]
    return point_bound(comps, [spec] * len(comps), lambda g: g, _box_linear_min, u[op.free], tol)


def verify_transfer(ball, spec, opts=None):
    """Compare cap_J(X1, X2) with k_J(lambda(gamma); P_X1, P_X2) on the ball.

    The diagonal matrix of any feasible potential is a feasible matrix
    variable whose commutator entries are a sub-pattern of the difference
    function, so k <= cap holds at every truncation. ``_diagonal_bracket``
    at the graph minimizer u* gives ``k_upper``, the objective at diag(u*),
    and a lower bound on k, floored at 0. ``truncated_regular_rep`` is
    built first, as the size guard, and only the matrix solve reads it.

    When the bracket [that bound, k_upper] is within opts.tol * max(1, k_upper),
    that point is the k report (one history row, converged, its residuals
    read off u*) and no matrix solve runs. Otherwise the matrix solve starts its first restart at
    diag(u*), and every restart keeps its best point, so the inequality
    holds for the reported upper bounds as well. ``k_lower`` is the larger
    of the point bound and the k report's ``lower``, capped at k.
    """
    opts = opts or SolveOptions()
    tau = truncated_regular_rep(ball)
    cap_report = graph_capacity(ball, spec, opts)
    u = np.asarray(cap_report.minimizer, dtype=float)
    cond = make_condenser(list(ball.X1), list(ball.X2), dim=ball.n_vertices)
    # diag(u*)'s middle block, bit for bit its 0/1 compression (+ 0.0 clears -0.0)
    mid = u[ball.incidence.free] + 0.0
    start = np.diag(mid)
    k_upper, k_lower = _diagonal_bracket(ball, spec, u, opts.tol)
    k_lower = max(k_lower, 0.0)
    matrix_solve = k_upper - k_lower > opts.tol * max(1.0, k_upper)
    # on an index condenser AP - P and AQ vanish exactly, and B0's spectrum is mid
    k_report = (solve_condenser(tau, cond, spec, opts, start=start) if matrix_solve else
                SolveReport.closed_form(k_upper, ContractionVariable(cond, start),
                                        ContractionVariable.residuals(0.0, 0.0, mid), k_lower, m0=cond.m0))
    return {
        "cap": cap_report.value,
        "cap_lower": cap_report.lower,
        "k": k_report.value,
        "k_lower": min(max(k_lower, k_report.lower), k_report.value),
        "gap": cap_report.value - k_report.value,
        "cap_report": cap_report,
        "k_report": k_report,
        "matrix_solve": matrix_solve,
        "inequality_ok": k_report.value <= cap_report.value + 1e-9 * max(1.0, cap_report.value),
    }


# -- parabolicity ---------------------------------------------------------------------


def scan_radii(R_list):
    """The radii of a capacity scan as a list: at least 3, strictly increasing."""
    R_list = list(R_list)
    if len(R_list) < 3:
        raise ValidationError("R_list needs at least 3 entries")
    if any(b <= a for a, b in zip(R_list, R_list[1:])):
        raise ValidationError("R_list must be strictly increasing")
    return R_list


def parabolicity_scan(group, p, X1, R_list, opts=None):
    """Capacity decay scan: cap(X1, boundary-at-infinity) along growing balls.

    Uses the Schatten-p norm (a monotone transform of the classical p-energy);
    each entry also reports value**p, the classical p-capacity. Classification
    is a desk-scale heuristic, reported rather than asserted: "vanishing" when
    a log-log power fit decays with exponent < -0.1 and R^2 >= 0.95,
    "positive" when the last two values agree within 5% and exceed 10x the
    solver tolerance.
    """
    opts = opts or SolveOptions()
    R_list = scan_radii(R_list)
    spec = NormSpec.schatten(p)

    def solve_R(R):
        ball = build_ball(group, R, X1=X1, X2=None)
        rep = graph_capacity(ball, spec, opts)
        return {
            "R": R,
            "n_vertices": ball.n_vertices,
            "value": rep.value,
            "value_classical": rep.value ** p,
            "converged": rep.converged,
        }

    entries = [solve_R(R) for R in R_list]
    values = [e["value"] for e in entries]
    warnings = []
    for a, b in zip(entries, entries[1:]):
        if b["value"] > a["value"] + 10 * opts.tol * max(1.0, a["value"]):
            warnings.append(f"non-monotone capacity between R={a['R']} and R={b['R']}")
    slope, r2 = fit_loglog(R_list, values)
    classification = "inconclusive"
    if slope < -0.1 and r2 >= 0.95:
        classification = "vanishing"
    elif (
        abs(values[-1] - values[-2]) < 0.05 * max(values[-1], 1e-300)
        and values[-1] > 10 * opts.tol
    ):
        classification = "positive"
    return {
        "p": p,
        "entries": entries,
        "fit_exponent": slope,
        "fit_r2": r2,
        "classification": classification,
        "warnings": warnings,
    }
