import dataclasses
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from qcmod import _solvers, cayley
from qcmod.cayley import (
    CayleyBall,
    GroupSpec,
    ball_size,
    build_ball,
    _diagonal_bracket,
    graph_capacity,
    harmonic_capacity_oracle,
    parabolicity_scan,
    total_variation_capacity_lp,
    truncated_regular_rep,
    verify_transfer,
)
from qcmod.condenser_solver import SolveOptions
from qcmod.errors import ValidationError
from qcmod.operator_core import (ContractionVariable, _herm, embed, make_condenser, objective,
                                 project_middle)
from qcmod.ri_norms import NormSpec, _vector_subgradient, dual_norm, vector_norm

from conftest import window_bounds

Z = GroupSpec("zd", d=1)
Z2 = GroupSpec("zd", d=2)
Z3 = GroupSpec("zd", d=3)
F2 = GroupSpec("free", k=2)

OPTS = SolveOptions(max_iters=1500, tol=1e-8, seed=3, restarts=2)


class TestBuildBall:
    def test_line_ball(self):
        b = build_ball(Z, 3, X1="origin")
        assert b.n_vertices == 7
        # generator map h -> h + 1 defined exactly on {-3..2}
        defined = [b.vertices[i] for i in range(7) if b.sigma[0][i] >= 0]
        assert sorted(v[0] for v in defined) == [-3, -2, -1, 0, 1, 2]

    def test_diamond(self):
        b = build_ball(Z2, 1)
        assert b.n_vertices == 5
        assert b.n_generators == 2

    def test_free_group_tree_growth(self):
        # independent oracle: 1 + sum_l 4 * 3^(l-1)
        for R in (1, 2, 3):
            expected = 1 + sum(4 * 3 ** (l - 1) for l in range(1, R + 1))
            assert ball_size(F2, R) == expected
            assert build_ball(F2, R).n_vertices == expected

    def test_free_rank_one_is_line(self):
        assert ball_size(GroupSpec("free", k=1), 5) == 11

    def test_overlapping_plates_rejected(self):
        with pytest.raises(ValidationError):
            build_ball(Z, 3, X1=[(0,)], X2=[(0,)])

    def test_descriptor_outside_ball_rejected(self):
        with pytest.raises(ValidationError):
            build_ball(Z, 3, X1=[(5,)])

    def test_generator_maps_injective(self):
        for grp, R in ((Z2, 3), (F2, 3)):
            b = build_ball(grp, R)
            for fwd in b.sigma:
                inside = fwd[fwd >= 0]
                assert len(np.unique(inside)) == len(inside)

    @pytest.mark.parametrize("grp, R", [
        (Z3, 4), (F2, 3), (GroupSpec("free", k=3), 2), (Z, 0), (Z, 8), (Z2, 6), (Z3, 14),
        (GroupSpec("zd", d=30), 2), (GroupSpec("free", k=1), 5), (F2, 0), (F2, 6),
        (GroupSpec("free", k=3), 4)],
        ids=["Z3", "F2", "F3", "Z-R0", "Z-R8", "Z2-R6", "Z3-R14", "Z30-R2", "F1-R5", "F2-R0",
             "F2-R6", "F3-R4"])
    def test_canonical_order_lengths_and_maps(self, grp, R):
        # vertices sorted by (word length, key), tuples of Python ints;
        # sigma[j] maps v to g_j v and sigma_inv[j] inverts it
        b = build_ball(grp, R)
        assert b.n_vertices == ball_size(grp, R)
        assert isinstance(b.vertices, tuple)
        assert all(type(v) is tuple and all(type(x) is int for x in v) for v in b.vertices)
        lengths = [sum(map(abs, v)) if grp.kind == "zd" else len(v) for v in b.vertices]
        assert b.word_lengths.tolist() == lengths
        assert list(zip(lengths, b.vertices)) == sorted(zip(lengths, b.vertices))
        index = {v: i for i, v in enumerate(b.vertices)}
        assert len(index) == b.n_vertices
        for j, (fwd, bwd) in enumerate(zip(b.sigma, b.sigma_inv)):
            for v, image in zip(b.vertices, fwd):
                if grp.kind == "zd":
                    w = tuple(x + (k == j) for k, x in enumerate(v))
                else:
                    w = v[1:] if v and v[0] == -(j + 1) else (j + 1,) + v
                assert image == index.get(w, -1)
            inside = np.flatnonzero(fwd >= 0)
            assert np.array_equal(bwd[fwd[inside]], inside)
            assert np.count_nonzero(bwd >= 0) == inside.size

    def test_custom_group(self):
        tables = [[1, 2, 0], [2, 0, 1]]
        g = GroupSpec("custom", tables=tuple(tuple(t) for t in tables))
        b = build_ball(g, 0, X1=[0], X2=[2])
        assert b.n_vertices == 3
        assert list(b.X1) == [0] and list(b.X2) == [2]

    def test_custom_non_bijection_rejected(self):
        with pytest.raises(ValidationError):
            GroupSpec("custom", tables=((0, 0, 1),))


class TestTruncatedRep:
    def test_line_shift(self):
        b = build_ball(Z, 1)
        lam = truncated_regular_rep(b).components[0]
        # vertices ordered [0, -1, 1]: -1 -> 0 and 0 -> 1 stay in the ball
        expected = np.zeros((3, 3))
        expected[b.index_of((0,)), b.index_of((-1,))] = 1
        expected[b.index_of((1,)), b.index_of((0,))] = 1
        assert np.array_equal(lam, expected)

    def test_partial_permutation_columns(self):
        for grp, R in ((Z2, 2), (F2, 2)):
            tau = truncated_regular_rep(build_ball(grp, R))
            for M in tau.components:
                sums = M.sum(axis=0)
                assert set(np.unique(sums)) <= {0.0, 1.0}

    def test_f2_r1_adjacency_oracle(self):
        b = build_ball(F2, 1)
        tau = truncated_regular_rep(b)
        assert all(M.shape == (5, 5) for M in tau.components)
        # adjacency oracle on the tree ball: generator j maps its inverse
        # letter to the identity and the identity to the letter, nothing else
        for j, M in enumerate(tau.components, start=1):
            nz = {(r, c) for r, c in zip(*np.nonzero(M))}
            e = b.index_of(())
            assert nz == {(b.index_of((j,)), e), (e, b.index_of((-j,)))}

    def test_dense_guard_rejects_before_allocating(self):
        # F2 R = 8 has 13,121 vertices: two dense 1.4 GB partial permutations
        b = build_ball(F2, 8, X1="origin", X2={"sphere": 8})
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="MiB"):
                truncated_regular_rep(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dense_guard_admits_f2_r6(self):
        tau = truncated_regular_rep(build_ball(F2, 6))
        assert all(M.shape == (1457, 1457) for M in tau.components)

    @pytest.mark.parametrize("grp,R", [(Z2, 2), (F2, 2), (Z3, 1)], ids=["Z2", "F2", "Z3"])
    def test_indexed_fill_matches_loop(self, grp, R):
        b = build_ball(grp, R)
        for M, fwd in zip(truncated_regular_rep(b).components, b.sigma):
            ref = np.zeros_like(M)
            for h, hp in enumerate(fwd):
                if hp >= 0:
                    ref[hp, h] = 1.0
            assert np.array_equal(M, ref)


def _edge_rows(ball):
    """Edge-by-edge reference encoding: per generator (head, tail) vertex
    lists, -1 meaning "outside the ball, value 0"; rows h = 0..nv-1 are
    u(g_j h) - u(h), then one row u(v) - 0 per v with g_j^{-1} v outside."""
    nv = ball.n_vertices
    out = []
    for fwd, bwd in zip(ball.sigma, ball.sigma_inv):
        head, tail = [int(x) for x in fwd], list(range(nv))
        for v in range(nv):
            if bwd[v] < 0:
                head.append(v)
                tail.append(-1)
        out.append((head, tail))
    return out


def _pinned_balls():
    fixed_point = GroupSpec("custom", tables=((1, 0, 2, 4, 3), (2, 3, 4, 0, 1)))
    return [
        build_ball(Z, 6, X1="origin", X2={"radius_at_least": 5}),
        build_ball(Z2, 4, X1="origin", X2={"sphere": 4}),
        build_ball(Z3, 3, X1="origin", X2={"sphere": 3}),
        build_ball(F2, 3, X1="origin", X2={"sphere": 3}),
        build_ball(fixed_point, 0, X1=[0], X2=[3]),
    ]


def _scatter(ball, j, w):
    """D_j^T w on the free vertices by ``np.add.at`` over the edge rows."""
    head, tail = (np.asarray(e) for e in _edge_rows(ball)[j])
    grad = np.zeros(ball.n_vertices)
    np.add.at(grad, head[head >= 0], w[head >= 0])
    np.add.at(grad, tail[tail >= 0], -w[tail >= 0])
    return grad[ball.incidence.free]


class TestIncidenceOperator:
    @pytest.mark.parametrize("ball", _pinned_balls(), ids=["Z", "Z2", "Z3", "F2", "custom"])
    def test_matvec_is_the_edge_by_edge_difference(self, ball):
        # K x + c, split into blocks, is every d_j bit for bit
        rng = np.random.default_rng(ball.n_vertices)
        op = ball.incidence
        u = rng.uniform(0.0, 1.0, ball.n_vertices)
        u[ball.X1], u[ball.X2] = 1.0, 0.0
        vs, _ = op.spectra(u[op.free])
        assert len(vs) == ball.n_generators
        for d, (head, tail) in zip(vs, _edge_rows(ball)):
            expected = np.array([(u[h] if h >= 0 else 0.0) - (u[t] if t >= 0 else 0.0)
                                 for h, t in zip(head, tail)])
            np.testing.assert_array_equal(d.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("ball", _pinned_balls(), ids=["Z", "Z2", "Z3", "F2", "custom"])
    def test_transpose_is_the_adjoint_and_the_scatter(self, ball):
        # the one-hot lift of block j is the np.add.at scatter bit for bit,
        # and the weighted lift is K's adjoint
        rng = np.random.default_rng(ball.n_vertices + 1)
        op = ball.incidence
        n = ball.n_generators
        x = rng.standard_normal(op.free.size)
        ws = rng.uniform(0.5, 2.0, n)
        ys = np.split(rng.standard_normal(op.K.shape[0]), op.offsets[1:-1])
        np.testing.assert_array_equal(op.Kt.toarray(), op.K.T.toarray())
        lhs = sum(w * float(np.dot(d, y)) for w, d, y in zip(ws, op.spectra(x)[0], ys))
        lhs -= sum(w * float(np.dot(c, y)) for w, c, y in zip(ws, np.split(op.c, op.offsets[1:-1]), ys))
        assert lhs == pytest.approx(float(np.dot(x, op.lift(ys, ws))), rel=1e-12, abs=1e-12)
        for j in range(n):
            one_hot = [None] * n
            one_hot[j] = ys[j]
            np.testing.assert_array_equal(op.lift(one_hot, np.eye(n)[j]).view(np.uint64),
                                          _scatter(ball, j, ys[j]).view(np.uint64))

    def test_laplacian_matches_loop_built_one(self):
        ball = build_ball(Z2, 3, X1="origin", X2={"sphere": 3})
        nv = ball.n_vertices
        pinned_val = np.full(nv, np.nan)
        pinned_val[ball.X1], pinned_val[ball.X2] = 1.0, 0.0
        free = np.flatnonzero(np.isnan(pinned_val))
        fmap = {int(v): i for i, v in enumerate(free)}
        L = np.zeros((free.size, free.size))
        rhs = np.zeros(free.size)
        for head, tail in _edge_rows(ball):
            for h, t in zip(head, tail):
                ends, const = [], 0.0
                for v, sgn in ((h, 1.0), (t, -1.0)):
                    if v >= 0 and np.isnan(pinned_val[v]):
                        ends.append((fmap[v], sgn))
                    elif v >= 0:
                        const += sgn * pinned_val[v]
                for i, si in ends:
                    for k, sk in ends:
                        L[i, k] += si * sk
                    rhs[i] -= si * const
        op = ball.incidence
        np.testing.assert_array_equal(op.free, free)
        np.testing.assert_array_equal(op.laplacian.toarray(), L)
        np.testing.assert_array_equal(op.Kt @ -op.c, rhs)
        orc = harmonic_capacity_oracle(ball)
        np.testing.assert_allclose(orc["u"][free], np.linalg.solve(L, rhs), rtol=1e-12, atol=1e-14)


#: balls of the clip lemma's test, each with and without an outer plate
_CLIP_BALLS = [build_ball(grp, R, X1="origin", X2=X2)
               for grp, R in ((Z, 6), (Z2, 3), (F2, 2)) for X2 in (None, {"sphere": R})]


class TestGraphCapacity:
    def test_zero_capacity_cycle_has_no_nan_smoothing(self):
        # On a finite cycle u = 1 is feasible, so the capacity is 0 and the
        # Huber parameter's reference scale is 0 (mu^2 underflows).
        ball = build_ball(GroupSpec("custom", tables=((1, 2, 3, 4, 0),)), 0, X1=[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = graph_capacity(ball, NormSpec.schatten(1), OPTS)
        assert rep.value == 0.0
        assert all(np.isfinite(h[1]) for h in rep.history)

    def test_trace_norm_line_vs_lp(self):
        b = build_ball(Z, 5, X1="origin")
        lp = total_variation_capacity_lp(b)
        assert lp == pytest.approx(2.0, abs=1e-9)
        rep = graph_capacity(b, NormSpec.schatten(1), OPTS)
        assert rep.value == pytest.approx(lp, rel=1e-7)

    def test_trace_norm_capacity_solves_no_lp(self, monkeypatch):
        # the LP is a test oracle only: the trace-norm solve certifies its own
        # bracket and never calls linprog
        def no_linprog(*args, **kwargs):
            raise AssertionError("graph_capacity called linprog")

        ball = build_ball(Z2, 3, X1="origin")
        lp = total_variation_capacity_lp(ball)
        monkeypatch.setattr(scipy.optimize, "linprog", no_linprog)
        rep = graph_capacity(ball, NormSpec.schatten(1), OPTS)
        assert rep.value == pytest.approx(lp, rel=1e-7)
        assert not any(key.startswith("lp_crosscheck") for key in rep.extra)

    def test_lorentz_ramp_upper_bound(self):
        R = 8
        b = build_ball(Z, R, X1="origin")
        rep = graph_capacity(b, NormSpec.lorentz(2), OPTS)
        ramp = float(np.sum(np.arange(1, 2 * (R + 1) + 1) ** -0.5) / (R + 1))
        assert rep.value <= ramp * (1 + 1e-6)

    def test_f2_trace_norm_stops_at_its_window_bound(self, monkeypatch):
        # the capacity is 2; the window bound closes on it, so the subgradient
        # phase stops after a few windows, certified, instead of running out
        # its delta floor
        bounds = window_bounds(monkeypatch)
        ball = build_ball(F2, 3, X1="origin", X2={"sphere": 3})
        rep = graph_capacity(ball, NormSpec.schatten(1), SolveOptions(max_iters=3000, tol=1e-9, restarts=1))
        assert abs(rep.value - 2.0) <= 1e-10
        assert rep.converged and rep.iters <= 400
        assert len(bounds) == 1 and bounds[0] <= rep.lower <= rep.value
        assert rep.value - bounds[0] <= 1e-9 * rep.value

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(Z, 2, 6), (Z2, 1, 3), (F2, 1, 2)]), st.data(),
           st.sampled_from([NormSpec.schatten(1), NormSpec.lorentz(2), NormSpec.macaev(),
                            NormSpec.from_weights([1.0, 0.5, 0.25])]),
           st.integers(1, 400), st.sampled_from([1e-3, 1e-6, 1e-9]), st.integers(0, 2 ** 16))
    def test_window_bound_is_below_the_capacity(self, group, data, spec, max_iters, tol, seed):
        # on random small balls and plates the subgradient phase's window bound
        # stays below the capacity: the LP value for the trace norm, the
        # solved value (an upper bound) for the weighted norms
        grp, r_min, r_max = group
        R = data.draw(st.integers(r_min, r_max))
        X2 = data.draw(st.sampled_from([None, {"sphere": R}, {"radius_at_least": max(R - 1, 1)}]))
        ball = build_ball(grp, R, X1="origin", X2=X2)
        with pytest.MonkeyPatch.context() as mp:
            bounds = window_bounds(mp)
            rep = graph_capacity(ball, spec, SolveOptions(max_iters=max_iters, tol=tol, seed=seed,
                                                          restarts=2, refine=False))
        assert 0.0 <= rep.lower <= rep.value
        # (the value itself may round an ulp below the capacity)
        if spec.kind == "schatten":
            cap = total_variation_capacity_lp(ball)
            assert max(bounds, default=-np.inf) <= cap * (1 + 1e-12)
        else:
            assert max(bounds, default=-np.inf) <= rep.value * (1 + 1e-12)

    def test_value_lower_never_exceeds_the_value(self, monkeypatch):
        # the zero-subgradient cut lands on the capacity 2.0 while the value
        # rounds an ulp below it (1.9999999999999998); the cut's rounding
        # allowance, 8 ulps of its one term f, keeps the bracket from inverting
        bounds = window_bounds(monkeypatch)
        ball = build_ball(Z, 3, X1="origin")
        rep = graph_capacity(ball, NormSpec.schatten(1),
                             SolveOptions(max_iters=39, tol=1e-3, seed=0, restarts=2, refine=False))
        assert max(bounds) == 2.0 - 16 * np.finfo(float).eps < rep.value < 2.0
        assert max(bounds) <= rep.lower <= rep.value

    def test_adjacent_singletons_unit_drop(self):
        b = build_ball(Z, 2, X1=[(0,)], X2=[(1,)])
        rep = graph_capacity(b, NormSpec.schatten(1), OPTS)
        assert rep.value >= 1.0 - 1e-9

    def test_empty_inner_plate(self):
        b = build_ball(Z, 3)
        rep = graph_capacity(b, NormSpec.schatten(1), OPTS)
        assert rep.value == 0.0
        assert rep.extra.get("empty_inner_plate")

    def test_harmonic_oracle_agreement_small(self):
        for grp, R in ((Z, 8), (Z2, 4), (Z3, 2)):
            b = build_ball(grp, R, X1="origin")
            orc = harmonic_capacity_oracle(b)
            rep = graph_capacity(b, NormSpec.schatten(2), OPTS)
            assert rep.value == pytest.approx(orc["capacity"], rel=1e-10)

    @pytest.mark.parametrize("spec, refine, smooth", [
        (NormSpec.schatten(2), True, True),
        (NormSpec.schatten(3), True, True),
        (NormSpec.schatten(2), False, False),
        (NormSpec.schatten(1), True, False),
        (NormSpec.lorentz(2), True, False),
    ], ids=["s2", "s3", "s2-no-refine", "s1", "l21"])
    def test_route_follows_the_norm(self, spec, refine, smooth):
        # the smooth route logs the start potential's exact value as history
        # row 0 with step 0; the subgradient phase logs its first Polyak step
        b = build_ball(Z2, 3, X1="origin")
        opts = SolveOptions(max_iters=100, tol=1e-8, seed=3, restarts=2, refine=refine)
        rep = graph_capacity(b, spec, opts)
        u0 = np.full(b.n_vertices, 0.5)
        u0[b.X1], u0[b.X2] = 1.0, 0.0
        start = max(vector_norm(d, spec) for d in b.incidence.spectra(u0[b.incidence.free])[0])
        assert rep.history[0][:2] == (0, start)
        assert (rep.history[0][2] == 0.0) == smooth

    @pytest.mark.parametrize("spec", [
        NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.schatten(3), NormSpec.lorentz(2),
        NormSpec.macaev(), NormSpec.from_weights([1.0, 0.5, 0.25]),
    ], ids=["s1", "s2", "s3", "l21", "macaev", "weights"])
    def test_kernel_is_the_norm_and_its_subgradient(self, monkeypatch, spec):
        # the exact fg graph_capacity's solve_max_norm builds: at the center
        # (tied generators) and at random potentials, vector_norm of the
        # maximizing d_j and the scatter D_j^T of its ``_vector_subgradient``,
        # bit for bit
        b = build_ball(Z2, 3, X1="origin", X2={"sphere": 3})
        op = b.incidence
        captured = []
        kernel = _solvers.max_norm_fg

        def capture(*args):
            captured.append(kernel(*args))
            return captured[-1]

        monkeypatch.setattr(_solvers, "max_norm_fg", capture)
        graph_capacity(b, spec, SolveOptions(restarts=1, max_iters=1, refine=False))
        rng = np.random.default_rng(11)
        for x in [np.full(op.free.size, 0.5)] + [rng.uniform(0, 1, op.free.size) for _ in range(5)]:
            diffs = op.spectra(x)[0]
            j = int(np.argmax([vector_norm(d, spec) for d in diffs]))
            f, g = captured[0](x)
            assert f == vector_norm(diffs[j], spec)
            np.testing.assert_array_equal(
                g.view(np.uint64), _scatter(b, j, _vector_subgradient(diffs[j], spec)).view(np.uint64))

    def test_monotone_in_X1(self):
        spec = NormSpec.schatten(2)
        small = graph_capacity(build_ball(Z, 6, X1=[(0,)]), spec, OPTS).value
        large = graph_capacity(build_ball(Z, 6, X1=[(0,), (1,)]), spec, OPTS).value
        assert large >= small - 1e-8

    def test_monotone_in_R(self):
        spec = NormSpec.schatten(2)
        vals = [graph_capacity(build_ball(Z, R, X1="origin"), spec, OPTS).value for R in (3, 5, 8)]
        assert vals[0] >= vals[1] >= vals[2]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_CLIP_BALLS), st.sampled_from([1, 2, 3]), st.integers(0, 2 ** 32 - 1))
    def test_clipping_never_raises_the_objective(self, ball, p, seed):
        # the lemma behind the unbounded lbfgs stages: clipping the free
        # vertices to [0, 1] is 1-Lipschitz and fixes the pins, so no entry of
        # any d_j(u) grows in magnitude, and the exact and the smoothed
        # objectives are nondecreasing in every one. In floating point the
        # exact objective's bound holds exactly (its rounding is monotone);
        # the smoothed one's is allowed 4 ulps, as the log-sum-exp's rounding
        # need not be monotone where the largest term moves (9,000 draws of
        # these balls all held it exactly).
        op = ball.incidence
        specs = [NormSpec.schatten(p)] * ball.n_generators

        x = np.random.default_rng(seed).uniform(-1.0, 2.0, op.free.size)
        clipped = np.clip(x, 0.0, 1.0)
        exact = _solvers.max_norm_fg(op.spectra, specs)
        assert exact(clipped)[0] <= exact(x)[0]
        for mu, eps in ((1e-2, 1e-2), (1e-6, 1e-4), (1e-9, 1e-9)):
            fg = _solvers.smooth_max_norm_fg(op.spectra, specs, [mu] * len(specs), eps, exact(x)[0])
            assert fg(clipped)[0] <= fg(x)[0] * (1 + 4 * np.finfo(float).eps)

    def test_minimizer_feasible(self):
        # the lbfgs stages run without bounds, and their iterates leave
        # [0, 1] on these balls; each stage returns its point clipped, so the
        # minimizer is in the box and on the pins exactly. Inside a ring plate
        # the minimizer is 1, and unclipped stages end up to 1e-5 above it.
        z2 = build_ball(Z2, 6, X1="origin")
        cases = [(build_ball(Z2, 3, X1="origin"), 2, 3)]
        cases += [(z2, p, seed) for p in (1, 2, 3) for seed in range(4)]
        cases += [(build_ball(Z, 8, X1="origin", X2={"radius_at_least": 6}), 2, 2)]
        cases += [(build_ball(Z2, 4, X1={"sphere": 2}), p, 1) for p in (2, 3)]
        cases += [(build_ball(Z, 6, X1={"sphere": 2}), 3, 0)]
        for ball, p, seed in cases:
            rep = graph_capacity(ball, NormSpec.schatten(p), dataclasses.replace(OPTS, seed=seed))
            u = rep.minimizer
            assert rep.feasibility_residuals == {"box": 0.0, "pins": 0.0}
            assert u.min() >= 0.0 and u.max() <= 1.0
            assert np.all(u[ball.X1] == 1.0) and np.all(u[ball.X2] == 0.0)

    def test_ring_plate_iterates_leave_the_box(self, monkeypatch):
        # inside a ring plate the minimizer is 1; a stage's last accepted
        # lbfgs iterate lies above it, and the clipped result keeps the
        # report exactly feasible
        engine = cayley.lbfgs
        ends = []

        def recorded(*args, **kwargs):
            out = engine(*args, **kwargs)
            ends.append((out[0].min(), out[0].max()))
            return out

        monkeypatch.setattr(cayley, "lbfgs", recorded)
        ball = build_ball(Z2, 4, X1={"sphere": 2})
        rep = graph_capacity(ball, NormSpec.schatten(3), dataclasses.replace(OPTS, seed=1))
        assert any(hi > 1.0 for _, hi in ends)
        assert rep.feasibility_residuals == {"box": 0.0, "pins": 0.0}


# small balls, the first three with X2 holding the boundary sphere (so every
# difference on an edge that leaves the ball vanishes), the last two without
_DUAL_BALLS = (
    build_ball(Z, 4, X1="origin", X2={"sphere": 4}),
    build_ball(Z2, 3, X1="origin", X2={"sphere": 3}),
    build_ball(F2, 2, X1="origin", X2={"sphere": 2}),
    build_ball(Z2, 2, X1="origin"),
    build_ball(F2, 2, X1="origin", X2={"sphere": 1}),
)
_DUAL_SPECS = (NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.schatten(3), NormSpec.lorentz(2),
               NormSpec.macaev(), NormSpec.from_weights([1.0, 0.5, 0.5, 0.1]))


@lru_cache(maxsize=None)
def _dual_setting(b, s):
    """Ball b and spec s of the tables above, with its truncated tuple, its
    condenser and its capacity report."""
    ball, spec = _DUAL_BALLS[b], _DUAL_SPECS[s]
    tau = truncated_regular_rep(ball)
    cond = make_condenser(list(ball.X1), list(ball.X2), dim=ball.n_vertices)
    rep = graph_capacity(ball, spec, SolveOptions(max_iters=300, tol=1e-6, restarts=1))
    return ball, spec, tau, cond, rep


@st.composite
def dual_points(draw, n_balls=len(_DUAL_BALLS)):
    """A setting among the first n_balls balls, a feasible potential (random,
    or on the grid {0, 1/2, 1} for tied differences) and the tol that
    chooses the weights λ."""
    b = draw(st.integers(0, n_balls - 1))
    s = draw(st.integers(0, len(_DUAL_SPECS) - 1))
    ball, spec, tau, cond, rep = _dual_setting(b, s)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.uniform(0.0, 1.0, ball.n_vertices)
    if draw(st.booleans()):
        u = np.round(2 * u) / 2
    u[ball.X1], u[ball.X2] = 1.0, 0.0
    return (ball, spec, tau, cond, rep), u, draw(st.sampled_from([0.0, 1e-8, 0.3, 10.0])), rng


def capacity_point_bound(ball, spec, u, tol, duals=None):
    """``_solvers.point_bound`` of the capacity at a feasible potential u,
    one of the bounds ``graph_capacity`` takes at its minimizer; the weighted
    duals λ_j y_j it lifts are appended to ``duals``."""
    op = ball.incidence
    seen = [] if duals is None else duals

    def lift(ys, ws):
        seen.extend(y for y, w in zip(ys, ws) if w)
        return op.lift(ys, ws)

    vs = op.spectra(u[op.free])[0]
    box = lambda g: float(np.minimum(g, 0.0).sum())
    return _solvers.point_bound((vs, lift), [spec] * len(vs), box, u[op.free], tol)[1]


def capacity_bound(ball, spec, u, tol):
    """The bound ``graph_capacity`` reports at u: the larger of the point
    bound and the flow bound."""
    op = ball.incidence
    flow = op.flow_bound(op.spectra(u[op.free])[0], spec, u[op.free], tol)
    return max(capacity_point_bound(ball, spec, u, tol), flow)


class TestGraphDual:
    """The shared point bound (``_solvers.point_bound``) on the capacity and,
    through ``_diagonal_bracket``, on k at the diagonal of a potential."""

    @settings(max_examples=150, deadline=None)
    @given(dual_points())
    def test_bound_is_below_the_capacity(self, point):
        (ball, spec, _, _, rep), u, tol, _ = point
        duals = []
        bound = capacity_point_bound(ball, spec, u, tol, duals)
        assert 0.0 <= rep.lower <= rep.value
        assert bound <= rep.value * (1 + 1e-12)
        assert duals and sum(dual_norm(y, spec) for y in duals) <= 1.0 + 1e-12
        # the flow bound is a valid cut at every potential too
        assert capacity_bound(ball, spec, u, tol) <= rep.value * (1 + 1e-12)

    @settings(max_examples=150, deadline=None)
    @given(dual_points())
    def test_lifted_bound_is_below_the_objective(self, point):
        # k_upper is the objective at diag(u), read without the matrices
        (ball, spec, tau, cond, _), u, tol, rng = point
        k_upper, k_lower = _diagonal_bracket(ball, spec, u, tol)
        diag = cond.compress_middle(np.diag(u))
        assert k_upper == pytest.approx(objective(tau, cond.embed_middle(diag), spec), rel=1e-13, abs=1e-15)
        H = rng.standard_normal((cond.m0, cond.m0))
        for B in (project_middle(cond, 0.5 * np.eye(cond.m0) + _herm(H)), diag):
            value = objective(tau, cond.embed_middle(B), spec)
            assert k_lower <= value + 1e-12 * max(1.0, value)

    @settings(max_examples=150, deadline=None)
    @given(dual_points(n_balls=3))
    def test_lift_is_the_graph_bound_when_x2_holds_the_boundary(self, point):
        (ball, spec, _, _, _), u, tol, _ = point
        bound = capacity_bound(ball, spec, u, tol)
        assert _diagonal_bracket(ball, spec, u, tol)[1] == pytest.approx(bound, rel=1e-12, abs=1e-12)

    def test_capacity_reports_its_point_bound(self):
        ball = build_ball(F2, 3, X1="origin", X2={"sphere": 3})
        spec = NormSpec.schatten(2)
        rep = graph_capacity(ball, spec, OPTS)
        point = capacity_point_bound(ball, spec, rep.minimizer, OPTS.tol)
        assert point <= rep.lower == capacity_bound(ball, spec, rep.minimizer, OPTS.tol)
        assert rep.value - 1e-7 <= rep.lower <= rep.value

    def test_point_bound_stays_below_the_capacity(self):
        # every u has total variation at least 2 along the e1 line through
        # the origin, so the S1 capacity is 2; the point bound at the
        # minimizer read 2.0000000000000004 before it carried an allowance
        ball = build_ball(Z2, 6, X1="origin")
        rep = graph_capacity(ball, NormSpec.schatten(1), SolveOptions())
        assert rep.lower <= 2.0 <= rep.value
        assert rep.lower == capacity_bound(ball, NormSpec.schatten(1), rep.minimizer, 1e-7)
        assert rep.value - rep.lower <= 1e-7

    def test_flow_dual_brackets_k_at_a_perturbed_minimizer(self):
        # F2 R = 6 S2 at the CLI transfer options: 1e-9 noise on the graph
        # minimizer (clipped to the box) parts the generators' values by about
        # tol and drops the point bound's cut by 3e-7 k to 3.3 k; the flow
        # dual's cut moves only at second order
        ball = build_ball(F2, 6, X1="origin", X2={"sphere": 6})
        spec, opts = NormSpec.schatten(2), SolveOptions(max_iters=3000, tol=1e-9, restarts=2)
        u0 = graph_capacity(ball, spec, opts).minimizer
        k = _diagonal_bracket(ball, spec, u0, opts.tol)[0]
        free = ball.incidence.free
        for seed in range(4):
            u = u0.copy()
            u[free] = np.clip(u[free] + 1e-9 * np.random.default_rng(seed).standard_normal(free.size), 0.0, 1.0)
            k_upper, k_lower = _diagonal_bracket(ball, spec, u, opts.tol)
            assert k_lower <= k <= k_upper
            assert k - k_lower <= 1e-12 * k

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(Z, 2, 6), (Z2, 1, 3), (F2, 1, 2)]), st.data(),
           st.sampled_from([1, 2]), st.integers(1, 400), st.booleans(), st.integers(0, 2 ** 16))
    def test_lower_is_below_the_oracles(self, group, data, p, max_iters, refine, seed):
        # the report's bracket on random small balls: S1 below the LP value,
        # S2 below the harmonic oracle's (the objective at the Dirichlet
        # energy's minimizer, at least the capacity)
        grp, r_min, r_max = group
        R = data.draw(st.integers(r_min, r_max))
        X2 = data.draw(st.sampled_from([None, {"sphere": R}, {"radius_at_least": max(R - 1, 1)}]))
        ball = build_ball(grp, R, X1="origin", X2=X2)
        rep = graph_capacity(ball, NormSpec.schatten(p), SolveOptions(max_iters=max_iters, tol=1e-9,
                                                                      seed=seed, refine=refine))
        oracle = total_variation_capacity_lp(ball) if p == 1 else harmonic_capacity_oracle(ball)["capacity"]
        assert 0.0 <= rep.lower <= min(rep.value, oracle)

    @pytest.mark.parametrize("ball", [build_ball(Z, 3, X2={"sphere": 3}),
                                      build_ball(GroupSpec("custom", tables=((1, 0),)), 0, X1=[0], X2=[1])],
                             ids=["empty-inner-plate", "fully-pinned"])
    def test_closed_forms_are_their_own_bound(self, ball):
        rep = graph_capacity(ball, NormSpec.schatten(2), OPTS)
        assert rep.lower == rep.value
        assert rep.to_json()["value_lower"] == rep.value


class TestTransfer:
    def test_line_trace_norm(self):
        ball = build_ball(Z, 6, X1="origin", X2={"radius_at_least": 4})
        out = verify_transfer(ball, NormSpec.schatten(1), OPTS)
        assert out["inequality_ok"]
        assert out["k"] <= out["cap"] + 1e-9 * max(1.0, out["cap"])
        assert abs(out["gap"]) / out["cap"] < 1e-4  # equality holds on Z at truncation

    @pytest.mark.parametrize("spec", [NormSpec.schatten(1), NormSpec.schatten(2)], ids=["s1", "s2"])
    def test_diagonal_candidate_closes_the_history(self, spec):
        # the matrix solve starts at the diagonal of the graph minimizer, so its
        # first history row is that candidate's value and k is at most it; the
        # report's value is its last history row
        ball = build_ball(Z, 8, X1="origin", X2={"radius_at_least": 6})
        out = verify_transfer(ball, spec, OPTS)
        k = out["k_report"]
        cond = make_condenser(list(ball.X1), list(ball.X2), dim=ball.n_vertices)
        B = project_middle(cond, cond.compress_middle(np.diag(out["cap_report"].minimizer)))
        candidate = objective(truncated_regular_rep(ball), embed(ContractionVariable(cond, B)), spec)
        assert k.value <= k.history[0][1]
        assert k.history[0][1] == pytest.approx(candidate, rel=1e-14)
        assert k.history[-1] == (k.iters - 1, k.value, 0.0)

    def test_k_is_the_best_restart_value(self):
        # both restarts of the S1 matrix solve offer 1.9999999999999998; k is
        # their minimum, not a re-evaluation of the best block (which read 2.0)
        ball = build_ball(Z, 8, X1="origin", X2={"radius_at_least": 6})
        out = verify_transfer(ball, NormSpec.schatten(1), OPTS)
        k = out["k_report"]
        assert out["matrix_solve"] and len(k.extra["restart_values"]) == 2
        assert k.value == min(k.extra["restart_values"])
        assert 0.0 <= out["k_lower"] <= k.value <= out["cap"]

    @staticmethod
    def _matrix_steps(monkeypatch):
        """The step counts of the matrix solve's subgradient phases, filled in
        as ``verify_transfer`` runs."""
        steps = []
        engine = _solvers.projected_subgradient

        def counted(fg, project, x0, **kwargs):
            out = engine(fg, project, x0, **kwargs)
            if np.ndim(x0) == 2:  # the matrix solve's middle block, not a potential
                steps.append(out[2])
            return out

        monkeypatch.setattr(_solvers, "projected_subgradient", counted)
        return steps

    def test_f2_lorentz_certified_without_matrix_solve(self, monkeypatch):
        # CLI transfer options, one restart. The lifted graph dual at the graph
        # minimizer brackets k within tol (2.1e-11 against 1.71e-9), so no
        # matrix subgradient step runs and k is the diagonal point's value
        steps = self._matrix_steps(monkeypatch)
        ball = build_ball(F2, 3, X1="origin", X2={"sphere": 3})
        out = verify_transfer(ball, NormSpec.lorentz(2), SolveOptions(max_iters=3000, tol=1e-9, restarts=1))
        assert steps == [] and not out["matrix_solve"]
        assert out["k_report"].iters == 1 and out["k_report"].converged
        assert 0.0 <= out["k"] - out["k_lower"] <= 1e-9 * max(1.0, out["k"])
        assert out["k"] <= out["cap"]
        # the bound is the point bound less its rounding allowance, a few ulps
        assert (1 + 2 ** -0.5) * (1 - 1e-14) <= out["k_lower"] <= 1 + 2 ** -0.5

    def test_f2_lorentz_graph_phase_closes_the_bracket(self):
        # the graph subgradient phase stops once its window bound is within
        # tol of its best value, at a minimizer whose point bound brackets k
        # far inside tol
        ball = build_ball(F2, 3, X1="origin", X2={"sphere": 3})
        out = verify_transfer(ball, NormSpec.lorentz(2), SolveOptions(max_iters=3000, tol=1e-9, restarts=1))
        assert not out["matrix_solve"] and out["cap_report"].converged
        assert out["k"] - out["k_lower"] <= 1e-10
        assert out["cap_report"].iters <= 400

    def test_z_lorentz_loose_bracket_falls_back_to_the_matrix_solve(self, monkeypatch):
        # X2 = {5} leaves the boundary free, so diag(u*) is far from optimal
        # for k: the bracket at u* is about 0.3 wide, and the matrix solve
        # runs from there. k is that solve's value, bit for bit, and k_lower
        # at least the solve's own bound
        steps = self._matrix_steps(monkeypatch)
        ball = build_ball(Z, 8, X1="origin", X2=[(5,)])
        spec, opts = NormSpec.lorentz(2), SolveOptions(max_iters=3000, tol=1e-9, restarts=1)
        out = verify_transfer(ball, spec, opts)
        assert out["matrix_solve"] and len(steps) == 1 and steps[0] > 0
        k_upper, point = _diagonal_bracket(ball, spec, out["cap_report"].minimizer, opts.tol)
        assert point < k_upper - 0.25 and k_upper == out["k_report"].history[0][1]
        assert max(point, out["k_report"].lower) <= out["k_lower"] <= out["k"]
        assert out["k"] == 0.6463341297341758

    def test_f2_trace_norm_fallback_certifies_its_own_bound(self):
        # X1 a neighbour of the origin: the generators do not tie at the graph
        # minimizer, so its lifted duals leave the bracket open and the matrix
        # solve runs; its subgradient phase stops on its window bound, which
        # k_lower reports
        ball = build_ball(F2, 3, X1=[(1,)], X2={"sphere": 3})
        opts = SolveOptions(max_iters=3000, tol=1e-9, seed=5, restarts=1)
        out = verify_transfer(ball, NormSpec.schatten(1), opts)
        k = out["k_report"]
        assert out["matrix_solve"] and k.converged and k.iters <= 1000
        assert out["k"] - out["k_lower"] <= 1e-9 * out["k"]
        assert out["k_lower"] == k.lower

    @pytest.mark.parametrize("grp, R, X2", [(Z, 6, {"radius_at_least": 4}), (Z2, 3, {"sphere": 3}),
                                            (F2, 3, {"sphere": 3}), (F2, 2, None)],
                             ids=["Z", "Z2", "F2", "F2-no-outer-plate"])
    def test_closed_form_residuals_are_the_dense_ones(self, grp, R, X2):
        # the residuals verify_transfer reads off u* equal the dense
        # feasibility_residuals of diag(u*), also with entries at exactly 0 and 1
        ball = build_ball(grp, R, X1="origin", X2=X2)
        cond = make_condenser(list(ball.X1), list(ball.X2), dim=ball.n_vertices)
        free = ball.incidence.free
        u = graph_capacity(ball, NormSpec.schatten(2), OPTS).minimizer
        rng = np.random.default_rng(0)
        clipped = u.copy()
        clipped[free] = rng.choice([0.0, 1.0, 0.5, -1e-11, 1 + 1e-11], size=free.size)
        for v in (u, clipped):
            var = ContractionVariable(cond, cond.compress_middle(np.diag(v)))
            assert np.array_equal(var.middle, np.diag(v[free]))
            assert (ContractionVariable.residuals(0.0, 0.0, v[free] + 0.0)
                    == var.feasibility_residuals())

    def test_certified_transfer_reports_the_closed_form_residuals(self):
        ball = build_ball(F2, 3, X1="origin", X2={"sphere": 3})
        out = verify_transfer(ball, NormSpec.lorentz(2), SolveOptions(max_iters=3000, tol=1e-9, restarts=1))
        k = out["k_report"]
        assert not out["matrix_solve"]
        assert k.feasibility_residuals == k.minimizer.feasibility_residuals()
        u = out["cap_report"].minimizer
        assert np.array_equal(k.minimizer.middle, np.diag(u[ball.incidence.free]))

    def test_empty_inner_plate_both_zero(self):
        ball = build_ball(Z, 4, X2={"sphere": 4})
        out = verify_transfer(ball, NormSpec.schatten(2), OPTS)
        assert out["cap"] == 0.0
        assert out["k"] <= 1e-7

    def test_restart_seed_stability(self):
        ball = build_ball(Z, 5, X1="origin", X2={"sphere": 5})
        a = graph_capacity(ball, NormSpec.schatten(2), SolveOptions(max_iters=1500, tol=1e-8, seed=1)).value
        b = graph_capacity(ball, NormSpec.schatten(2), SolveOptions(max_iters=1500, tol=1e-8, seed=99)).value
        assert abs(a - b) <= 10 * 1e-8 * max(1.0, a)


class TestParabolicity:
    def test_line_is_parabolic(self):
        # Path-graph oracle: the optimal potential is the linear ramp, so the
        # capacity is sqrt(2/(R+1)); values decay ~ R^(-1/2) to zero.
        out = parabolicity_scan(Z, 2.0, "origin", [4, 8, 16, 32], OPTS)
        for e in out["entries"]:
            R = e["R"]
            assert e["value"] == pytest.approx(np.sqrt(2.0 / (R + 1)), rel=1e-6)
        assert out["classification"] == "vanishing"
        assert out["fit_exponent"] == pytest.approx(-0.5, abs=0.05)

    def test_z3_is_transient(self):
        out = parabolicity_scan(Z3, 2.0, "origin", [3, 5, 7], OPTS)
        # harmonic-solve oracle cross-check per entry
        for e in out["entries"]:
            b = build_ball(Z3, e["R"], X1="origin")
            orc = harmonic_capacity_oracle(b)
            assert e["value"] == pytest.approx(orc["capacity"], rel=1e-6)
        assert out["classification"] == "positive"

    def test_z2_slow_decay(self):
        out = parabolicity_scan(Z2, 2.0, "origin", [8, 16, 32], OPTS)
        vals = [e["value"] for e in out["entries"]]
        # harmonic oracle agreement and 1/sqrt(log R) style slow decay
        for e in out["entries"]:
            orc = harmonic_capacity_oracle(build_ball(Z2, e["R"], X1="origin"))
            assert e["value"] == pytest.approx(orc["capacity"], rel=1e-6)
        assert vals[0] > vals[1] > vals[2]
        ratios = [vals[i] / vals[i + 1] for i in range(2)]
        assert all(1.0 < r < 1.35 for r in ratios)

    def test_requires_increasing_R(self):
        with pytest.raises(ValidationError):
            parabolicity_scan(Z, 2.0, "origin", [4, 4, 8], OPTS)
