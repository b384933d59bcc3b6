import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcmod import _solvers
from qcmod._solvers import _inner, _smooth_schatten, max_norm_fg, smooth_max_norm_fg
from qcmod.cayley import GroupSpec, build_ball, truncated_regular_rep
from qcmod.condenser_solver import (
    SolveOptions,
    _extrapolate,
    _padded,
    _spectra,
    scale_sweep,
    solve_condenser,
    sup_over_projections,
)
from qcmod.errors import ValidationError
from qcmod.experiments import gamma1_schedule, timefreq_problem
from qcmod.operator_core import (Condenser, ContractionVariable, OperatorTuple, _herm, _middle_linear_min,
                                 commutator, commutator_blocks, embed, make_condenser, objective,
                                 project_middle)
from qcmod.ri_norms import NormSpec, matrix_norm, norm_subgradient, spec_list

from conftest import rand_hermitian, rand_unitary, tridiag_oracle, window_bounds

OPTS = SolveOptions(max_iters=2000, tol=1e-9, seed=1, restarts=2)


def _count_svds_and_fgs(monkeypatch):
    """Count full SVDs, value-only SVDs and the evaluations of every exact
    (``max_norm_fg``) and smoothed (``smooth_max_norm_fg``) objective that
    ``solve_max_norm`` builds."""
    calls = {"full": 0, "values": 0, "fg": 0, "smooth": 0}
    svd = np.linalg.svd

    def counted_svd(a, *args, compute_uv=True, **kwargs):
        calls["full" if compute_uv else "values"] += 1
        return svd(a, *args, compute_uv=compute_uv, **kwargs)

    def counted(kernel, key):
        def build(*args):
            fg = kernel(*args)

            def counted_fg(x):
                calls[key] += 1
                return fg(x)
            return counted_fg
        return build

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(_solvers, "max_norm_fg", counted(_solvers.max_norm_fg, "fg"))
    monkeypatch.setattr(_solvers, "smooth_max_norm_fg", counted(_solvers.smooth_max_norm_fg, "smooth"))
    return calls


class TestSolveCondenser:
    def test_m0_zero_immediate(self):
        tau = OperatorTuple.of([np.diag([1.0, 2.0])])
        cond = make_condenser([0], [1], dim=2)
        rep = solve_condenser(tau, cond, NormSpec.schatten(2), OPTS)
        assert cond.m0 == 0
        assert rep.value == 0.0
        assert rep.converged

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize(
        "spec",
        [NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.lorentz(2)],
        ids=["s1", "s2", "l21"],
    )
    def test_empty_inner_plate_closed_form(self, spec, complex_):
        # P = 0: A = 0 is feasible and commutes with everything, so k = 0
        rng = np.random.default_rng(5)
        tau = OperatorTuple.of([rand_hermitian(rng, 5, complex_=complex_)])
        if complex_:
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            v /= np.linalg.norm(v)
            cond = make_condenser(np.zeros((5, 5), dtype=complex), np.outer(v, v.conj()))
            assert cond.is_complex
        else:
            cond = make_condenser([], [4], dim=5)
        assert cond.rank_p == 0 and cond.m0 == 4
        rep = solve_condenser(tau, cond, spec, OPTS)
        assert rep.value == 0.0
        assert rep.converged
        assert all(v == 0.0 for v in rep.feasibility_residuals.values())
        assert rep.extra["restart_values"] == [0.0]
        assert rep.extra["m0"] == 4
        assert np.all(embed(rep.minimizer) == 0)

    @pytest.mark.parametrize(
        "spec",
        [NormSpec.schatten(2), NormSpec.schatten(1), NormSpec.lorentz(2)],
        ids=["s2", "s1", "l21"],
    )
    def test_tridiag_matches_grid_oracle(self, tridiag_example, spec):
        tau, cond = tridiag_example
        oracle_value, t_star = tridiag_oracle(spec, grid=4001)
        rep = solve_condenser(tau, cond, spec, OPTS)
        assert rep.value == pytest.approx(oracle_value, rel=1e-8)
        assert t_star == pytest.approx(0.5, abs=1e-6)
        assert rep.minimizer.middle[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_value_equals_objective_at_minimizer(self, tridiag_example):
        tau, cond = tridiag_example
        rep = solve_condenser(tau, cond, NormSpec.lorentz(2), OPTS)
        re_eval = objective(tau, embed(rep.minimizer), NormSpec.lorentz(2))
        assert abs(re_eval - rep.value) <= 1e-12 * max(1.0, rep.value)

    def test_value_is_min_of_history(self, tridiag_example):
        tau, cond = tridiag_example
        rep = solve_condenser(tau, cond, NormSpec.schatten(2), OPTS)
        hist_min = min(h[1] for h in rep.history)
        assert abs(rep.value - hist_min) <= 1e-12 * max(1.0, rep.value)

    def test_dimension_mismatch(self):
        tau = OperatorTuple.of([np.eye(3)])
        cond = make_condenser([0], [1], dim=2)
        with pytest.raises(ValidationError):
            solve_condenser(tau, cond, NormSpec.schatten(2), OPTS)

    def test_homogeneity(self, tridiag_example):
        tau, cond = tridiag_example
        spec = NormSpec.schatten(2)
        base = solve_condenser(tau, cond, spec, OPTS).value
        for c in (0.5, 2.0, 7.0):
            scaled = solve_condenser(tau.scaled(c), cond, spec, OPTS).value
            assert scaled == pytest.approx(c * base, rel=2e-8)

    def test_unitary_covariance(self):
        rng = np.random.default_rng(11)
        tau = OperatorTuple.of([rand_hermitian(rng, 4)])
        cond = make_condenser([0], [3], dim=4)
        spec = NormSpec.schatten(2)
        v0 = solve_condenser(tau, cond, spec, OPTS).value
        U = rand_unitary(rng, 4)
        cond_u = make_condenser(U @ cond.P @ U.T, U @ cond.Q @ U.T)
        v1 = solve_condenser(tau.conjugated(U), cond_u, spec, OPTS).value
        assert v1 == pytest.approx(v0, rel=1e-6)

    def test_monotone_in_Q(self):
        rng = np.random.default_rng(12)
        tau = OperatorTuple.of([rand_hermitian(rng, 5)])
        spec = NormSpec.schatten(2)
        small = make_condenser([0], [4], dim=5)
        large = make_condenser([0], [3, 4], dim=5)
        v_small = solve_condenser(tau, small, spec, OPTS).value
        v_large = solve_condenser(tau, large, spec, OPTS).value
        assert v_small <= v_large + 2 * OPTS.tol * max(1.0, v_large)

    def test_restart_consistency(self, tridiag_example):
        tau, cond = tridiag_example
        opts = SolveOptions(max_iters=2000, tol=1e-9, seed=9, restarts=4)
        rep = solve_condenser(tau, cond, NormSpec.schatten(2), opts)
        vals = rep.extra["restart_values"]
        assert max(vals) - min(vals) <= 10 * opts.tol * max(1.0, rep.value)

    def test_hybrid_degeneracy(self):
        rng = np.random.default_rng(13)
        tau = OperatorTuple.of([rand_hermitian(rng, 4), rand_hermitian(rng, 4)])
        cond = make_condenser([0], [3], dim=4)
        spec = NormSpec.schatten(2)
        v_single = solve_condenser(tau, cond, spec, OPTS).value
        v_hybrid = solve_condenser(tau, cond, [spec, spec], OPTS).value
        assert v_hybrid == v_single  # identical code path and seeds

    def test_zero_reference_scale_in_huber_smoothing(self):
        # Every diagonal A commutes with both diagonal components, so the
        # subgradient phase ends at k = 0 and the Huber parameter mu = eps * 0
        # squares to 0; the smoothed gradient must stay finite there.
        d = 9
        tau = OperatorTuple.of([np.diag(np.linspace(0.0, 1.0, d)), np.diag(np.cos(np.arange(d)))])
        cond = make_condenser([0, 1], [8], dim=d)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = solve_condenser(tau, cond, NormSpec.schatten(1), SolveOptions(seed=3))
        assert rep.value == 0.0
        assert all(np.isfinite(h[1]) for h in rep.history)

    @pytest.mark.parametrize("problem", ["gamma1_N32", "f2_R3"])
    def test_one_svd_per_component_per_fg(self, monkeypatch, problem):
        # each exact evaluation, and the point bound at the reported point,
        # decomposes every component's block once, with its singular vectors;
        # no SVD takes values alone
        if problem == "gamma1_N32":
            (tau, cond), spec = timefreq_problem(*gamma1_schedule([32])[0]), NormSpec.schatten(1)
        else:
            ball = build_ball(GroupSpec("free", k=2), 3, X1="origin", X2={"sphere": 3})
            tau, spec = truncated_regular_rep(ball), NormSpec.lorentz(2)
            cond = make_condenser(list(ball.X1), list(ball.X2), dim=ball.n_vertices)
        calls = _count_svds_and_fgs(monkeypatch)
        solve_condenser(tau, cond, spec, SolveOptions(max_iters=20, restarts=2, refine=False))
        assert calls["fg"] > 0
        assert calls["full"] == tau.n * (calls["fg"] + 1)
        assert calls["values"] == 0

    @pytest.mark.parametrize("specs", [NormSpec.schatten(2), [NormSpec.schatten(2), NormSpec.schatten(3)]],
                             ids=["s2", "s2-s3"])
    def test_smooth_route_svds_per_restart(self, monkeypatch, specs):
        # with every norm Schatten p > 1, a restart decomposes each component
        # once per smoothed evaluation, once at its start (value and Huber
        # scales) and once for its closing exact value, and the point bound
        # once at the reported point; the exact kernel is never evaluated,
        # and no SVD takes values alone
        rng = np.random.default_rng(5)
        tau = OperatorTuple.of([rand_hermitian(rng, 5), rand_hermitian(rng, 5)])
        calls = _count_svds_and_fgs(monkeypatch)
        solve_condenser(tau, make_condenser([0], [4], dim=5), specs,
                        SolveOptions(max_iters=50, restarts=2, seed=3))
        assert calls["smooth"] > 0 and calls["fg"] == 0
        assert calls["full"] == tau.n * (calls["smooth"] + 2 * 2 + 1)
        assert calls["values"] == 0

    def test_feasibility_residuals(self, tridiag_example):
        tau, cond = tridiag_example
        rep = solve_condenser(tau, cond, NormSpec.schatten(2), OPTS)
        assert rep.feasibility_residuals["AP_minus_P"] <= 1e-12
        assert rep.feasibility_residuals["AQ"] <= 1e-12


def s2_line_oracle(T):
    """min over t in [0, 1] of ||[diag(1, t, 0), T]||_F in closed form.

    The commutator C0 + t C1 is affine in t, so its squared norm is the
    quadratic a t^2 + 2 b t + c, whose minimizer over [0, 1] clips -b / a.
    """
    E0, E1 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
    C0, C1 = E0 @ T - T @ E0, E1 @ T - T @ E1
    a, b = np.vdot(C1, C1).real, np.vdot(C0, C1).real
    t = min(max(-b / a, 0.0), 1.0) if a > 0 else 0.0
    return float(np.linalg.norm(C0 + t * C1))


class TestSmoothRoute:
    """Solves whose norms are all Schatten p > 1 skip the subgradient phase."""

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_3x3_s2_matches_the_line_oracle(self, restarts):
        opts = SolveOptions(max_iters=150, tol=1e-6, seed=1, restarts=restarts)
        cond = make_condenser([0], [2], dim=3)
        rng = np.random.default_rng(41)
        for _ in range(25):
            T = rand_hermitian(rng, 3)
            rep = solve_condenser(OperatorTuple.of([T]), cond, NormSpec.schatten(2), opts)
            assert rep.value == pytest.approx(s2_line_oracle(T), rel=1e-12)
            vals = rep.extra["restart_values"]
            assert max(vals) - min(vals) <= 10 * opts.tol * max(1.0, rep.value)

    @pytest.mark.parametrize("specs, refine, smooth", [
        ([NormSpec.schatten(2)] * 2, True, True),
        ([NormSpec.schatten(3), NormSpec.schatten(2)], True, True),
        ([NormSpec.schatten(2)] * 2, False, False),
        ([NormSpec.schatten(2), NormSpec.schatten(1)], True, False),
        ([NormSpec.schatten(2), NormSpec.lorentz(2)], True, False),
    ], ids=["s2", "s3-s2", "s2-no-refine", "s2-s1", "s2-l21"])
    def test_route_follows_the_norms(self, specs, refine, smooth):
        # the smooth route logs the start block's exact value as history row 0
        # with step 0; the subgradient phase logs its first Polyak step there
        rng = np.random.default_rng(42)
        tau = OperatorTuple.of([rand_hermitian(rng, 4), rand_hermitian(rng, 4)])
        cond = make_condenser([0], [3], dim=4)
        opts = SolveOptions(max_iters=100, tol=1e-8, seed=2, restarts=2, refine=refine)
        rep = solve_condenser(tau, cond, specs, opts)
        start = objective(tau, embed(ContractionVariable(cond, 0.5 * np.eye(2))), specs)
        assert rep.history[0][:2] == (0, pytest.approx(start, rel=1e-14))
        assert (rep.history[0][2] == 0.0) == smooth


@st.composite
def small_index_problems(draw):
    """A random tuple of 1 or 2 dense real components in dimension 3 to 6, an
    index-plate condenser with P and the middle block nonzero (so a phase
    runs), one of the weighted norms or S1, and the options of a
    subgradient phase of at least one window."""
    d = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tau = OperatorTuple.of([rng.standard_normal((d, d)) for _ in range(draw(st.integers(1, 2)))])
    order = rng.permutation(d)
    n_p = int(rng.integers(1, d - 1))
    n_q = int(rng.integers(0, d - n_p))
    cond = make_condenser(order[:n_p].tolist(), order[n_p:n_p + n_q].tolist(), dim=d)
    spec = draw(st.sampled_from([NormSpec.schatten(1), NormSpec.lorentz(2), NormSpec.macaev(),
                                 NormSpec.from_weights([1.0, 0.5, 0.25])]))
    opts = SolveOptions(max_iters=draw(st.integers(50, 300)), tol=draw(st.sampled_from([1e-3, 1e-6, 1e-9])),
                        seed=draw(st.integers(0, 2 ** 16)), restarts=draw(st.integers(1, 2)), refine=False)
    return tau, cond, spec, opts


#: zero-modulus problems: P = e1 and Q = 0, so A = I commutes with the
#: dense real component, and a modulus of 0 can read 1.4e-16 (Macaev); the
#: window cut, evaluated in floating point, reads 2.2e-16 before its
#: rounding allowance
_ZERO_MODULUS = [(OperatorTuple.of([np.random.default_rng(0).standard_normal((3, 3))]),
                  make_condenser([0], [], dim=3), spec,
                  SolveOptions(max_iters=50, tol=1e-3, seed=0, restarts=1, refine=False))
                 for spec in (NormSpec.macaev(), NormSpec.schatten(1), NormSpec.lorentz(2))]


class TestWindowBound:
    """The subgradient phase's window bound on the middle blocks, from their
    linear minimum, and the report's bracket ``SolveReport.lower``."""

    @settings(max_examples=60, deadline=None)
    @given(small_index_problems())
    @example(_ZERO_MODULUS[0])
    @example(_ZERO_MODULUS[1])
    @example(_ZERO_MODULUS[2])
    def test_lower_is_finite_and_below_the_value(self, problem):
        tau, cond, spec, opts = problem
        with pytest.MonkeyPatch.context() as mp:
            bounds = window_bounds(mp)
            rep = solve_condenser(tau, cond, spec, opts)
        assert 0.0 <= rep.lower <= rep.value
        # the window bound itself can round above the modulus at the
        # problem's scale (see ``_ZERO_MODULUS``)
        assert bounds and all(np.isfinite(bounds))
        assert max(bounds) <= rep.value + 1e-12 * max(1.0, rep.value)

    def test_zero_modulus_lower_is_zero(self, monkeypatch):
        # the Macaev problem of ``_ZERO_MODULUS`` (also the output digest's
        # condenser_zero_modulus run): the modulus is exactly 0, so the
        # window cut, lowered by its rounding allowance, certifies 0 and not
        # the roundoff of the value
        bounds = window_bounds(monkeypatch)
        rep = solve_condenser(*_ZERO_MODULUS[0])
        assert bounds and max(bounds) <= 0.0 < rep.value
        assert rep.lower == 0.0
        assert rep.to_json()["value_lower"] == 0.0

    @pytest.mark.parametrize("spec", [NormSpec.schatten(1), NormSpec.lorentz(2), NormSpec.macaev()],
                             ids=["s1", "l21", "macaev"])
    def test_tridiag_lower_is_below_the_grid_oracle(self, monkeypatch, tridiag_example, spec):
        # the phase meets a zero subgradient at the minimizer t = 1/2, so the
        # bound is the minimum itself; the oracle's raw SVD reads it up to an
        # ulp low (sqrt 2 as 1.414213562373095 for S1)
        tau, cond = tridiag_example
        bounds = window_bounds(monkeypatch)
        rep = solve_condenser(tau, cond, spec, OPTS)
        oracle_value, _ = tridiag_oracle(spec, grid=4001)
        assert bounds and all(np.isfinite(bounds))
        assert max(bounds) <= oracle_value * (1 + 1e-12)
        assert max(bounds) <= rep.lower * (1 + 1e-12) and rep.lower <= rep.value


class TestPointBound:
    """The point bound at the reported point (``_solvers.point_bound``), which
    ``SolveReport.lower`` keeps where it beats the window bound."""

    @pytest.mark.parametrize("spec", [NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.schatten(3),
                                      NormSpec.lorentz(2), NormSpec.macaev()],
                             ids=["s1", "s2", "s3", "l21", "macaev"])
    @pytest.mark.parametrize("refine", [True, False], ids=["refine", "norefine"])
    def test_lower_is_below_the_grid_oracle(self, tridiag_example, spec, refine):
        tau, cond = tridiag_example
        rep = solve_condenser(tau, cond, spec, dataclasses.replace(OPTS, refine=refine))
        oracle_value, _ = tridiag_oracle(spec, grid=4001)
        assert 0.0 < rep.lower <= min(rep.value, oracle_value)
        assert rep.value - rep.lower <= 1e-6 * rep.value

    @settings(max_examples=40, deadline=None)
    @given(small_index_problems(), st.integers(0, 2 ** 16))
    def test_bound_holds_at_perturbed_points(self, problem, seed):
        # the point bound at any feasible block lies below the objective at
        # every other feasible block
        tau, cond, spec, _ = problem
        specs = spec_list(spec, tau.n)
        spectra = _spectra(tau, cond)
        rng = np.random.default_rng(seed)
        draw = lambda: project_middle(cond, rand_hermitian(rng, cond.m0) + 0.5 * np.eye(cond.m0))
        B = draw()
        value, bound = _solvers.point_bound(spectra(B), specs, _middle_linear_min, B, 1e-6)
        assert bound <= value * (1 + 1e-12)
        for _ in range(4):
            assert bound <= objective(tau, cond.embed_middle(draw()), specs) * (1 + 1e-12)


class TestSolveOptions:
    @pytest.mark.parametrize("refine", ["false", 0, 1, None])
    def test_refine_must_be_boolean(self, refine):
        with pytest.raises(ValidationError, match="refine must be a boolean"):
            SolveOptions.from_json({"refine": refine})

    def test_numpy_bool_refine_is_accepted(self):
        assert not SolveOptions(refine=np.bool_(False)).refine


BLOCK_SPECS = [NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.schatten(3), NormSpec.lorentz(2),
               NormSpec.macaev(), NormSpec.from_weights([3.0, 2.0, 2.0, 1.0, 0.5])]


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


def _whole_matrix_spectra(tau, cond):
    """The d x d form of ``_spectra``, the reference for its block form:
    A = embed_middle(B), the whole commutator [A, T_j] cut to its
    ``commutator_blocks`` block, and the lift: the weighted sum of the
    d x d matrices [G_j, T_j^*] of the scattered G_j, compressed to the
    middle block."""
    blocks, d, Vm = commutator_blocks(tau, cond), cond.dim, cond.basis_mid

    def spectra(B):
        A = cond.embed_middle(B)
        svds = [np.linalg.svd(_block(commutator(A, T, t), blk), full_matrices=False)
                for T, t, blk in zip(tau.components, tau.diagonals, blocks)]

        def lift(ys, ws):
            W = sum(w * commutator(_scatter((U * y[:Vh.shape[0]]) @ Vh, blk, d), T.conj().T, t)
                    for (U, _, Vh), T, t, blk, y, w in zip(svds, tau.components, tau.diagonals, blocks, ys, ws)
                    if w)
            return _herm(Vm.conj().T @ W @ Vm)

        return [_padded(s, d) for _, s, _ in svds], lift

    return spectra


def _range_spectra(spectra):
    """``spectra`` with its lift blind to the weights of numerically zero
    singular values (``np.linalg.matrix_rank``'s tolerance). Their singular
    vectors are each fixed only up to a phase, which the SVD picks from the
    signs of zero entries, so u v^* there, and the subgradient term it
    carries, differ between two roundings of one commutator."""

    def out(x):
        vs, lift = spectra(x)
        keeps = [s > s.size * np.finfo(float).eps * s.max() for s in vs]
        return vs, lambda ys, ws: lift([None if y is None else np.where(k, y, 0.0)
                                        for y, k in zip(ys, keeps)], ws)

    return out


def _f2_ball_problem():
    ball = build_ball(GroupSpec("free", k=2), 3, X1="origin", X2={"sphere": 3})
    return truncated_regular_rep(ball), make_condenser(list(ball.X1), list(ball.X2), dim=ball.n_vertices)


def _gamma1_n32_problem():
    return timefreq_problem(*gamma1_schedule([32])[0])


def _path_ramp_problem():
    """The 6-dim tuple (path, diag(cos k)) with plates e1 / e6: the real
    diagonal maps the support into itself, so its block is S x S."""
    d = 6
    path = np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1)
    return OperatorTuple.of([path, np.diag(np.cos(np.arange(d)))]), make_condenser([0], [d - 1], dim=d)


def _path_hop_problem():
    """The 8-dim tuple (path, 2·hop), hop coupling sites two apart, with plates
    e1 / e8: every block is the whole matrix, but the support is not."""
    d = 8
    path = np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1)
    hop = np.diag(np.ones(d - 2), 2) + np.diag(np.ones(d - 2), -2)
    return OperatorTuple.of([path, 2 * hop]), make_condenser([0], [d - 1], dim=d)


@st.composite
def plate_problems(draw):
    """A random index-plate condenser (d <= 12) with partial-permutation,
    real diagonal and dense (real or complex) components: (tau, cond, B,
    commutators [A, T_j] at A = embed_middle(B), ``commutator_blocks``, rng)
    for a random feasible middle block B."""
    d = draw(st.integers(3, 12))
    kinds = draw(st.lists(st.sampled_from(["perm", "diag", "dense", "complex"]), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = rng.permutation(d)
    n_p = int(rng.integers(1, d - 1))
    n_q = int(rng.integers(0, d - n_p))
    cond = make_condenser(order[:n_p].tolist(), order[n_p:n_p + n_q].tolist(), dim=d)
    comps = []
    for kind in kinds:
        if kind == "perm":
            T = np.zeros((d, d))
            src = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
            T[rng.permutation(d)[:src.size], src] = 1.0
        elif kind == "diag":
            T = np.diag(rng.standard_normal(d))
        else:
            T = rng.standard_normal((d, d))
            if kind == "complex":
                T = T + 1j * rng.standard_normal((d, d))
        comps.append(T)
    tau = OperatorTuple.of(comps)
    B = project_middle(cond, rand_hermitian(rng, cond.m0))
    A = cond.embed_middle(B)
    comms = [commutator(A, T, t) for T, t in zip(tau.components, tau.diagonals)]
    return tau, cond, B, comms, commutator_blocks(tau, cond), rng


class TestCommutatorBlocks:
    """Norms, subgradients and the Huber term from the block outside which
    each commutator vanishes (``commutator_blocks``)."""

    @settings(max_examples=60, deadline=None)
    @given(plate_problems())
    def test_block_norm_is_the_full_norm(self, problem):
        _, cond, _, comms, blocks, _ = problem
        for C, blk in zip(comms, blocks):
            if blk is not None:
                outside = C.copy()
                outside[blk] = 0
                assert not outside.any()
            for sp in BLOCK_SPECS:
                full = matrix_norm(C, sp)
                assert abs(matrix_norm(_block(C, blk), sp) - full) <= 1e-12 * max(1.0, full)

    @settings(max_examples=60, deadline=None)
    @given(plate_problems())
    def test_scattered_subgradient(self, problem):
        _, cond, _, comms, blocks, rng = problem
        d = cond.dim
        for C, blk in zip(comms, blocks):
            for sp in BLOCK_SPECS:
                G = _scatter(norm_subgradient(_block(C, blk), sp), blk, d)
                assert G.shape == (d, d)
                fC = matrix_norm(C, sp)
                for t in (1e-3, 0.1, 1.0):
                    E = rng.standard_normal((d, d))
                    if np.iscomplexobj(C):
                        E = E + 1j * rng.standard_normal((d, d))
                    N = C + t * E
                    lin = fC + float(np.real(np.vdot(G, N - C)))
                    assert matrix_norm(N, sp) >= lin - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(plate_problems())
    def test_padded_huber_is_the_full_huber(self, problem):
        _, cond, _, comms, blocks, _ = problem
        for C, blk in zip(comms, blocks):
            s = np.linalg.svd(C, compute_uv=False)
            mu = 1e-2 * max(s.max(), 1e-3)
            full = _smooth_schatten(s, 1, mu)[0]
            sb = np.linalg.svd(_block(C, blk), compute_uv=False)
            padded = _smooth_schatten(_padded(sb, cond.dim), 1, mu)[0]
            assert abs(padded - full) <= 1e-12 * max(1.0, full)

    @settings(max_examples=60, deadline=None)
    @given(plate_problems())
    def test_kernel_value_and_pulled_subgradient(self, problem):
        # max_norm_fg on the block spectra: the value of ``objective``, the
        # value and subgradient of the d x d formula, and a subgradient of the
        # objective in the middle block. A commutator with a zero singular
        # value (B on the boundary makes them often) has a subgradient term
        # of arbitrary phase there (``_range_spectra``), so the two
        # subgradients are compared without it, and each in full must still
        # be a subgradient. Without a zero singular value the comparison is
        # the full one; the bits of the whole one on fixed problems are
        # test_block_kernel_is_the_whole_matrix_formula's
        tau, cond, B, _, _, rng = problem
        spectra = _spectra(tau, cond)
        whole = _whole_matrix_spectra(tau, cond)
        for sp in BLOCK_SPECS:
            specs = [sp] * tau.n
            f, g = max_norm_fg(spectra, specs)(B)
            assert abs(f - objective(tau, cond.embed_middle(B), specs)) <= 1e-12 * max(1.0, f)
            f_whole, g_whole = max_norm_fg(whole, specs)(B)
            assert abs(f - f_whole) <= 1e-12 * max(1.0, f)
            g_range = max_norm_fg(_range_spectra(spectra), specs)(B)[1]
            g_whole_range = max_norm_fg(_range_spectra(whole), specs)(B)[1]
            assert np.abs(g_range - g_whole_range).max() <= 1e-12 * max(1.0, np.abs(g_whole_range).max())
            for _ in range(3):
                B2 = project_middle(cond, rand_hermitian(rng, cond.m0))
                f2 = objective(tau, cond.embed_middle(B2), specs)
                assert f2 >= f + _inner(g, B2 - B) - 1e-12
                assert f2 >= f + _inner(g_whole, B2 - B) - 1e-12

    @pytest.mark.parametrize("problem, tol", [
        (_f2_ball_problem, 0.0), (_path_hop_problem, 1e-12), (_gamma1_n32_problem, 0.0),
        (_path_ramp_problem, 0.0)], ids=["f2_R3", "path_hop", "gamma1_N32", "path_ramp"])
    def test_block_kernel_is_the_whole_matrix_formula(self, problem, tol):
        # partial permutations and real diagonals: every product entry has one
        # nonzero term, so the exact and smoothed fg are the d x d formula's
        # bit for bit; so is a dense basis, whose support is everything and
        # whose A_S is embed_middle's arithmetic; dense components on a
        # smaller support may round differently
        tau, cond = problem()
        block, whole = _spectra(tau, cond), _whole_matrix_spectra(tau, cond)
        rng = np.random.default_rng(17)
        for _ in range(5):
            B = project_middle(cond, 0.5 * np.eye(cond.m0) + 0.3 * rand_hermitian(rng, cond.m0))
            for sp in BLOCK_SPECS:
                specs = [sp] * tau.n
                fgs = [max_norm_fg(spectra, specs)(B) for spectra in (block, whole)]
                if sp.kind == "schatten":
                    fgs += [smooth_max_norm_fg(spectra, specs, [1e-3] * tau.n, 1e-2, fgs[0][0])(B)
                            for spectra in (block, whole)]
                for (f, g), (f_whole, g_whole) in zip(fgs[::2], fgs[1::2]):
                    if tol == 0.0:
                        assert f == f_whole
                        np.testing.assert_array_equal(g.view(np.uint64), g_whole.view(np.uint64))
                    else:
                        assert abs(f - f_whole) <= tol * f_whole
                        assert np.abs(g - g_whole).max() <= tol * np.abs(g_whole).max()

    @pytest.mark.parametrize("problem", [_f2_ball_problem, _gamma1_n32_problem], ids=["index", "dense"])
    def test_no_evaluation_calls_embed_middle(self, monkeypatch, problem):
        # every condenser forms A_S on its support S alone, dense bases too
        tau, cond = problem()
        calls = []
        embed_middle = Condenser.embed_middle
        monkeypatch.setattr(Condenser, "embed_middle", lambda self, B: calls.append(1) or embed_middle(self, B))
        fg = max_norm_fg(_spectra(tau, cond), [NormSpec.schatten(1)] * tau.n)
        for _ in range(3):
            fg(0.5 * np.eye(cond.m0))
        assert not calls

    def test_dense_basis_condenser_has_no_block(self):
        assert commutator_blocks(*timefreq_problem(128, 7, 65)) == [None]


class TestSupOverProjections:
    def test_single_family_matches_solve(self, tridiag_example):
        tau, cond = tridiag_example
        spec = NormSpec.schatten(2)
        out = sup_over_projections(tau, [[0]], [2], spec, OPTS)
        direct = solve_condenser(tau, cond, spec, OPTS)
        assert out["sup"] == pytest.approx(direct.value, rel=1e-10)

    def test_nested_monotone(self):
        rng = np.random.default_rng(14)
        tau = OperatorTuple.of([rand_hermitian(rng, 5)])
        spec = NormSpec.schatten(2)
        out = sup_over_projections(tau, [[0], [0, 1]], [4], spec, OPTS)
        assert out["values"][0] <= out["values"][1] + 2 * OPTS.tol * max(1.0, out["values"][1])
        assert out["monotonicity_warnings"] == []

    def test_empty_family(self):
        tau = OperatorTuple.of([np.eye(2)])
        out = sup_over_projections(tau, [], [0], NormSpec.schatten(2), OPTS)
        assert out["sup"] == 0.0


class TestScaleSweep:
    def test_constant_family(self):
        out = _extrapolate([2, 4, 8], [3.25, 3.25, 3.25])
        assert out["limit"] == pytest.approx(3.25, abs=1e-10)
        assert out["reliable"] is True

    def test_power_fit_exact_for_model_class(self):
        # 0.7 + 0.9 / N: the exponent lies between grid points, so a grid
        # search alone stops at a limit near 0.70022
        from qcmod._solvers import fit_power

        N = np.array([8.0, 16.0, 32.0, 64.0])
        v_inf, a, expo, resid = fit_power(N, 0.7 + 0.9 / N)
        assert v_inf == pytest.approx(0.7, abs=1e-9)
        assert a == pytest.approx(0.9, abs=1e-8)
        assert expo == pytest.approx(-1.0, abs=1e-8)

    def test_exact_decay_is_reliable(self):
        c, a, b = 0.7, 0.9, 1.0
        scales = [8, 16, 32, 64]
        out = _extrapolate(scales, [c + a * s ** (-b) for s in scales])
        assert out["reliable"] is True
        assert out["estimate"] == out["limit"]
        assert out["limit"] == pytest.approx(c, rel=1e-3)

    def test_limit_outside_band_falls_back_to_last_value(self):
        # a slow, nearly logarithmic decline fits with a tiny exponent and a
        # limit far below the data
        values = [1.0, 0.9, 0.8]
        out = _extrapolate([1, 2, 4], values)
        assert out["extrapolation_available"]
        assert not (0.5 * 0.8 <= out["limit"] <= 1.5 * 1.0)
        assert out["reliable"] is False
        assert out["estimate"] == 0.8

    def test_nonpositive_value_is_never_reliable(self):
        c, a = 0.5, -0.5  # exact decay through 0 at the first scale
        scales = [1, 2, 4]
        out = _extrapolate(scales, [c + a / s for s in scales])
        assert out["reliable"] is False
        assert out["estimate"] == c + a / 4

    def test_two_scales_give_no_fit(self):
        out = _extrapolate([1, 2], [1.0, 0.9])
        assert out["extrapolation_available"] is False
        assert out["limit"] is None and out["reliable"] is False
        assert out["estimate"] == 0.9

    def test_zball_lorentz_exponent(self):
        # Capacity family on growing line-graph balls, realized as matrix
        # condenser problems with the boundary sphere pinned. The uniform ramp
        # u(h) = 1 - |h|/R is feasible with value sum_{j<=2R} j^(-1/2) / R
        # ~ p 2^(1/p) R^(1/p-1) at p = 2, so the values must not exceed it and
        # the decay exponent sits near -1/2 (up to a known R^(-1/2) finite-size
        # correction that flattens the small-R slope).
        from qcmod.cayley import GroupSpec, build_ball, truncated_regular_rep
        from qcmod._solvers import fit_loglog

        spec = NormSpec.lorentz(2)
        problems = []
        radii = [4, 6, 9, 13]
        for R in radii:
            ball = build_ball(GroupSpec("zd", d=1), R, X1="origin", X2={"sphere": R})
            tau = truncated_regular_rep(ball)
            cond = make_condenser(list(ball.X1), list(ball.X2), dim=ball.n_vertices)
            problems.append((R, tau, cond))
        opts = SolveOptions(max_iters=1500, tol=1e-8, seed=2, restarts=1)
        out = scale_sweep(problems, spec, opts)
        for R, v in zip(radii, out["values"]):
            ramp_exact = float(np.sum(np.arange(1, 2 * R + 1) ** -0.5) / R)
            assert v <= ramp_exact * (1 + 1e-6)
            assert v == pytest.approx(ramp_exact, rel=1e-5)
            assert v <= 2.0 * 2 ** 0.5 * R ** (-0.5) * (1 + 1e-6)  # asymptotic envelope
        slope, r2 = fit_loglog(radii, out["values"])
        assert r2 >= 0.99
        assert -0.6 <= slope <= -0.33
        assert out["extrapolation_available"]
