"""Coverage for the less-traveled solver paths: complex data, Macaev and
explicit-weight solves, asymmetric hybrid norms, custom groups, fully pinned
graphs, boundary-active minimizers, and numeric failure signaling."""

import json

import numpy as np
import pytest

from qcmod.cayley import GroupSpec, build_ball, graph_capacity, harmonic_capacity_oracle
from qcmod.condenser_solver import SolveOptions, solve_condenser
from qcmod.errors import NumericError
from qcmod.operator_core import OperatorTuple, embed, make_condenser, objective
from qcmod.plaplace import SmoothProblem, euler_lagrange_report, minimize_smooth
from qcmod.ri_norms import NormSpec, matrix_norm

from conftest import rand_hermitian, rand_unitary

OPTS = SolveOptions(max_iters=2000, tol=1e-9, seed=4, restarts=2)


class TestComplexSolves:
    def test_complex_tridiag_phase_twist(self):
        # conjugating the real example by a diagonal unitary leaves the value
        # at 1.0 but makes every matrix genuinely complex
        T = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
        rng = np.random.default_rng(5)
        U = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
        tau = OperatorTuple.of([U @ T @ U.conj().T])
        cond = make_condenser(U @ np.diag([1.0, 0, 0]) @ U.conj().T,
                              U @ np.diag([0.0, 0, 1.0]) @ U.conj().T)
        assert cond.is_complex
        rep = solve_condenser(tau, cond, NormSpec.schatten(2), OPTS)
        assert rep.value == pytest.approx(1.0, rel=1e-7)

    def test_complex_random_covariance(self):
        rng = np.random.default_rng(6)
        tau = OperatorTuple.of([rand_hermitian(rng, 4, complex_=True)])
        cond = make_condenser([0], [3], dim=4)
        v0 = solve_condenser(tau, cond, NormSpec.schatten(1), OPTS).value
        U = rand_unitary(rng, 4, complex_=True)
        cond_u = make_condenser(U @ cond.P.astype(complex) @ U.conj().T,
                                U @ cond.Q.astype(complex) @ U.conj().T)
        v1 = solve_condenser(tau.conjugated(U), cond_u, NormSpec.schatten(1), OPTS).value
        assert v1 == pytest.approx(v0, rel=1e-6)


class TestOtherNormSolves:
    def test_macaev_tridiag_oracle(self, tridiag_example):
        tau, cond = tridiag_example
        from conftest import tridiag_oracle

        oracle, _ = tridiag_oracle(NormSpec.macaev(), grid=4001)
        rep = solve_condenser(tau, cond, NormSpec.macaev(), OPTS)
        # weights (1, 1/2, 1/3) on singular values (s, s, 0): value 1.5 s(t),
        # minimized at t = 1/2
        assert oracle == pytest.approx(1.5 * np.sqrt(0.5), rel=1e-9)
        assert rep.value == pytest.approx(oracle, rel=1e-7)

    def test_explicit_weights_tridiag_oracle(self, tridiag_example):
        tau, cond = tridiag_example
        spec = NormSpec.from_weights([1.0, 0.25, 0.0])
        from conftest import tridiag_oracle

        oracle, _ = tridiag_oracle(spec, grid=4001)
        rep = solve_condenser(tau, cond, spec, OPTS)
        assert oracle == pytest.approx(1.25 * np.sqrt(0.5), rel=1e-9)
        assert rep.value == pytest.approx(oracle, rel=1e-7)

    def test_asymmetric_hybrid_grid_oracle(self):
        # two components, different ideals; the feasible set is the scalar
        # t in [0, 1], so a raw grid search is an independent oracle
        T1 = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
        T2 = np.array([[0.0, 2, 0], [2, 0, 0.5], [0, 0.5, 0]])
        tau = OperatorTuple.of([T1, T2])
        cond = make_condenser([0], [2], dim=3)
        specs = [NormSpec.schatten(1), NormSpec.lorentz(2)]

        def f(t):
            A = np.diag([1.0, t, 0.0])
            vals = []
            for T, sp in zip((T1, T2), specs):
                s = np.linalg.svd(A @ T - T @ A, compute_uv=False)
                if sp.kind == "schatten":
                    vals.append(float(np.sum(s)))
                else:
                    from qcmod.ri_norms import induced_weights

                    vals.append(float(np.sort(s)[::-1] @ induced_weights(sp, s.size)))
            return max(vals)

        from conftest import scalar_grid_oracle

        oracle, _ = scalar_grid_oracle(f, grid=4001)
        rep = solve_condenser(tau, cond, specs, OPTS)
        assert rep.value == pytest.approx(oracle, rel=1e-6)
        assert rep.value <= oracle + 1e-7


class TestCustomGroup:
    def test_cycle_capacity_matches_harmonic(self):
        # cyclic group Z_12 with the rotation generator; capacity of opposite
        # vertices on the 12-cycle, checked against the sparse harmonic oracle
        n = 12
        table = tuple((i + 1) % n for i in range(n))
        grp = GroupSpec("custom", tables=(table,))
        ball = build_ball(grp, 0, X1=[0], X2=[6])
        orc = harmonic_capacity_oracle(ball)
        rep = graph_capacity(ball, NormSpec.schatten(2), OPTS)
        assert rep.value == pytest.approx(orc["capacity"], rel=1e-8)
        # two independent arcs of 6 edges each: energy 2 * (1/6)^2 * 6 = 1/3
        assert orc["energy"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_two_generator_custom(self):
        n = 8
        rot = tuple((i + 1) % n for i in range(n))
        swap = tuple(i ^ 1 for i in range(n))
        grp = GroupSpec("custom", tables=(rot, swap))
        ball = build_ball(grp, 0, X1=[0], X2=[5])
        rep = graph_capacity(ball, NormSpec.schatten(2), OPTS)
        assert rep.value > 0
        assert rep.converged


class TestDegenerateGraphs:
    def test_fully_pinned_ball(self):
        b = build_ball(GroupSpec("zd", d=1), 1, X1=[(0,)], X2=[(-1,), (1,)])
        rep = graph_capacity(b, NormSpec.schatten(2), OPTS)
        assert rep.extra.get("fully_pinned")
        # unique potential: (0, 1, 0) on vertices (0, -1, 1); differences are
        # (1, -1, -0...) per the edge slots -> norm sqrt(2) exactly... computed
        u = rep.minimizer
        assert np.allclose(sorted(u), [0, 0, 1])
        assert rep.value == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_single_vertex_ball(self):
        b = build_ball(GroupSpec("zd", d=1), 0, X1="origin")
        rep = graph_capacity(b, NormSpec.schatten(1), OPTS)
        # u(0) = 1, edges out both sides are boundary slots: |1| + |-1| = 2
        assert rep.value == pytest.approx(2.0, abs=1e-12)


class TestBoundaryActiveMinimizer:
    def test_enlarged_projection_extraction(self):
        # T couples the inner plate with the middle only, so the objective
        # 2 (1 - t)^p is minimized at the boundary t = 1; P1 must absorb the
        # middle vector and all compressions vanish there
        T = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 0]])
        tau = OperatorTuple.of([T])
        cond = make_condenser([0], [2], dim=3)
        prob = SmoothProblem(tau, cond, 2.0)
        rep = minimize_smooth(prob, SolveOptions(max_iters=20000, tol=1e-12, seed=3, restarts=2))
        assert rep.converged
        assert rep.value <= 1e-18
        assert rep.minimizer.middle[0, 0] == pytest.approx(1.0, abs=1e-9)
        el = euler_lagrange_report(prob, rep.minimizer)
        assert el.passed
        # P1 strictly contains P
        assert np.trace(el.P1).real == pytest.approx(2.0, abs=1e-8)
        assert not el.flags


class TestNumericFailures:
    def test_nan_matrix_raises(self):
        M = np.full((3, 3), np.nan)
        with pytest.raises((NumericError, ValueError)):
            matrix_norm(M, NormSpec.schatten(1))


class TestCliHybridExperiment:
    def test_hybrid_cli(self, tmp_path):
        from qcmod.cli import main

        payload = {
            "experiment": "hybrid",
            "gridsize": 6,
            "exponent_sets": [[2.0, 2.0], [3.0, 1.5]],
            "options": {"max_iters": 200, "restarts": 1},
        }
        code = main(["experiment", "--inline", json.dumps(payload), "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert len(rep["results"]) == 2
        assert all(r["value"] > 0 for r in rep["results"])

    def test_hybrid_bad_exponents_exit_2(self, tmp_path):
        from qcmod.cli import main

        payload = {"experiment": "hybrid", "gridsize": 6, "exponent_sets": [[2.0, 3.0]]}
        code = main(["experiment", "--inline", json.dumps(payload), "--out", str(tmp_path)])
        assert code == 2


class TestConcurrencyModel:
    def test_parallel_sweep_merges_by_index(self):
        # sweep members come back in the order they were given
        from qcmod.condenser_solver import scale_sweep

        path = np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1)
        cond = make_condenser([0], [2], dim=3)
        spec = NormSpec.schatten(2)
        problems = [(r, OperatorTuple.of([r * path]), cond) for r in (3.0, 1.0, 2.0)]
        out = scale_sweep(problems, spec, OPTS)
        assert out["scales"] == [3.0, 1.0, 2.0]
        assert out["values"] == [solve_condenser(tau, c, spec, OPTS).value for _, tau, c in problems]
        assert out["values"][0] > out["values"][2] > out["values"][1]


class TestMatrixProjectionFamilies:
    def test_sup_over_projections_matrix_inputs(self):
        from qcmod.condenser_solver import sup_over_projections

        rng = np.random.default_rng(21)
        tau = OperatorTuple.of([rand_hermitian(rng, 5)])
        P1 = np.diag([1.0, 0, 0, 0, 0])
        P2 = np.diag([1.0, 1.0, 0, 0, 0])
        Q = np.diag([0.0, 0, 0, 0, 1.0])
        out = sup_over_projections(tau, [P1, P2], Q, NormSpec.schatten(2), OPTS)
        assert out["sup"] == max(out["values"])
        assert out["values"][0] <= out["values"][1] + 2 * OPTS.tol * max(1.0, out["values"][1])
        assert out["monotonicity_warnings"] == []


class TestBallGrowthFormulas:
    def test_free_rank_three(self):
        from qcmod.cayley import ball_size

        # 1 + 2k((2k-1)^R - 1)/(2k-2) at k = 3: spheres of size 6, 30, 150
        assert ball_size(GroupSpec("free", k=3), 2) == 37
        assert ball_size(GroupSpec("free", k=3), 3) == 187
        assert build_ball(GroupSpec("free", k=3), 2).n_vertices == 37
