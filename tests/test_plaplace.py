import numpy as np
import pytest

from qcmod.condenser_solver import SolveOptions
from qcmod.errors import ValidationError
from qcmod.operator_core import (
    ContractionVariable,
    OperatorTuple,
    commutators,
    embed,
    make_condenser,
    project_middle,
)
from qcmod.plaplace import (
    SmoothProblem,
    _middle_fg,
    euler_lagrange_report,
    minimize_smooth,
    smooth_objective,
    theta,
    uniqueness_probe,
)
from qcmod.ri_norms import NormSpec, matrix_norm

from conftest import rand_hermitian, rand_unitary

OPTS = SolveOptions(max_iters=20000, tol=1e-12, seed=2, restarts=2)


def _tridiag_problem(p):
    T = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
    tau = OperatorTuple.of([T])
    cond = make_condenser([0], [2], dim=3)
    return SmoothProblem(tau, cond, p)


def _random_problem(seed, d=8, p=2.0):
    rng = np.random.default_rng(seed)
    tau = OperatorTuple.of([rand_hermitian(rng, d), rand_hermitian(rng, d)])
    cond = make_condenser([0], [d - 1], dim=d)
    return SmoothProblem(tau, cond, p)


class TestProblemValidation:
    def test_requires_selfadjoint(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        tau = OperatorTuple.of([M])
        cond = make_condenser([0], [], dim=2)
        with pytest.raises(ValidationError):
            SmoothProblem(tau, cond, 2.0)

    def test_requires_p_at_least_two(self):
        T = np.eye(2)
        tau = OperatorTuple.of([T])
        cond = make_condenser([0], [], dim=2)
        with pytest.raises(ValidationError):
            SmoothProblem(tau, cond, 1.5)


class TestSmoothObjective:
    def test_commuting_zero(self):
        tau = OperatorTuple.of([np.diag([1.0, 2.0, 3.0])])
        cond = make_condenser([0], [2], dim=3)
        prob = SmoothProblem(tau, cond, 3.0)
        assert smooth_objective(prob, np.diag([1.0, 0.7, 0.0])) == 0.0

    @pytest.mark.parametrize("p,expected", [(2.0, 1.0), (4.0, 0.5)])
    def test_tridiag_closed_form(self, p, expected):
        # singular values of the commutator at t = 1/2 are (s, s, 0) with
        # s^2 = 1/2, so I = 2 s^p; verified against a raw eigenvalue oracle
        prob = _tridiag_problem(p)
        X = np.diag([1.0, 0.5, 0.0])
        C = X @ prob.tau.components[0] - prob.tau.components[0] @ X
        S = -C @ C
        w = np.clip(np.linalg.eigvalsh(S), 0, None)
        oracle = float(np.sum(w ** (p / 2)))
        got = smooth_objective(prob, X)
        assert got == pytest.approx(oracle, rel=1e-14)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_equals_column_norm_power(self):
        rng = np.random.default_rng(3)
        prob = _random_problem(5, d=6, p=3.0)
        B = project_middle(prob.condenser, rand_hermitian(rng, prob.condenser.m0))
        A = prob.condenser.embed_middle(B)
        col = np.vstack(commutators(prob.tau, A))
        assert smooth_objective(prob, A) == pytest.approx(
            matrix_norm(col, NormSpec.schatten(3.0)) ** 3.0, rel=1e-10
        )

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(4)
        prob = _random_problem(6, d=6, p=4.0)
        cond = prob.condenser
        for _ in range(1000):
            B1 = project_middle(cond, rand_hermitian(rng, cond.m0))
            B2 = project_middle(cond, rand_hermitian(rng, cond.m0))
            f1 = smooth_objective(prob, cond.embed_middle(B1))
            f2 = smooth_objective(prob, cond.embed_middle(B2))
            fm = smooth_objective(prob, cond.embed_middle(0.5 * (B1 + B2)))
            assert fm <= 0.5 * (f1 + f2) + 1e-10 * max(1.0, f1, f2)


class TestTheta:
    def test_zero_when_commuting(self):
        tau = OperatorTuple.of([np.diag([1.0, 2.0, 3.0]), np.diag([4.0, 5.0, 6.0])])
        cond = make_condenser([0], [2], dim=3)
        prob = SmoothProblem(tau, cond, 3.0)
        th = theta(prob, np.diag([1.0, 0.4, 0.0])).Theta
        assert np.abs(th).max() <= 1e-12

    def test_tridiag_hand_value(self):
        prob = _tridiag_problem(2.0)
        th = theta(prob, np.diag([1.0, 0.5, 0.0])).Theta
        assert np.allclose(th, 2.0 * np.diag([-1.0, 0.0, 1.0]), atol=1e-14)

    def test_unitary_covariance(self):
        rng = np.random.default_rng(7)
        prob = _random_problem(8, d=6, p=3.0)
        X = prob.condenser.embed_middle(
            project_middle(prob.condenser, rand_hermitian(rng, prob.condenser.m0))
        )
        U = rand_unitary(rng, 6)
        tauU = prob.tau.conjugated(U)
        condU = make_condenser(U @ prob.condenser.P @ U.T, U @ prob.condenser.Q @ U.T)
        probU = SmoothProblem(tauU, condU, prob.p)
        lhs = theta(probU, U @ X @ U.T).Theta
        rhs = U @ theta(prob, X).Theta @ U.T
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_gradient_identity_finite_differences(self, p):
        rng = np.random.default_rng(9)
        prob = _random_problem(10, d=8, p=p)
        cond = prob.condenser
        for _ in range(5):
            B = project_middle(cond, 0.5 * np.eye(cond.m0) + 0.2 * rand_hermitian(rng, cond.m0))
            X = cond.embed_middle(B)
            H = rand_hermitian(rng, cond.m0)
            H /= np.linalg.norm(H)
            Hf = cond.basis_mid @ H @ cond.basis_mid.T
            h = 1e-5
            fd = (smooth_objective(prob, X + h * Hf) - smooth_objective(prob, X - h * Hf)) / (2 * h)
            an = -(p / 2.0) * float(np.real(np.trace(theta(prob, X).Theta @ Hf)))
            assert fd == pytest.approx(an, rel=1e-5)


class TestEnergyKernel:
    @pytest.mark.parametrize("p, calls", [(2.0, []), (3.0, ["eigh"]), (4.0, ["eigh"])])
    def test_one_fg_decomposes_at_most_once(self, monkeypatch, p, calls):
        prob = _random_problem(11, d=8, p=p)
        fg = _middle_fg(prob)
        B = 0.5 * np.eye(prob.condenser.m0)
        seen = []
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
            kernel = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _k=kernel, _n=name, **kw: seen.append(_n) or _k(*a, **kw))
        fg(B)
        assert seen == calls

    def test_p2_value_is_the_commutator_frobenius_sum(self):
        rng = np.random.default_rng(12)
        prob = _random_problem(13, d=8, p=2.0)
        for A in (rand_hermitian(rng, 8), np.diag(rng.uniform(0.0, 1.0, 8))):
            expected = sum(np.linalg.norm(C, "fro") ** 2 for C in commutators(prob.tau, A))
            assert smooth_objective(prob, A) == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestMinimize:
    @pytest.mark.parametrize("p,expected", [(2.0, 1.0), (4.0, 0.5)])
    def test_tridiag_minimum(self, p, expected):
        prob = _tridiag_problem(p)
        rep = minimize_smooth(prob, OPTS)
        assert rep.converged
        assert rep.value == pytest.approx(expected, rel=1e-10)
        assert rep.minimizer.middle[0, 0] == pytest.approx(0.5, abs=1e-9)

    def test_m0_zero(self):
        T = np.array([[0.0, 1.0], [1.0, 0.0]])
        tau = OperatorTuple.of([T])
        cond = make_condenser([0], [1], dim=2)
        prob = SmoothProblem(tau, cond, 2.0)
        rep = minimize_smooth(prob, OPTS)
        assert rep.converged and rep.iters == 1
        assert rep.value == pytest.approx(smooth_objective(prob, cond.P), rel=1e-14)
        assert rep.feasibility_residuals == {"AP_minus_P": 0.0, "AQ": 0.0, "eig_below_0": 0.0,
                                             "eig_above_1": 0.0}

    def test_empty_inner_plate_closed_form(self):
        # P = 0: A = 0 is feasible with I(0) = 0, so nothing is iterated
        prob = SmoothProblem(_random_problem(9, d=5, p=3.0).tau, make_condenser([], [4], dim=5), 3.0)
        rep = minimize_smooth(prob, OPTS)
        assert rep.value == 0.0 and rep.iters == 1 and rep.converged
        assert rep.feasibility_residuals == {"AP_minus_P": 0.0, "AQ": 0.0, "eig_below_0": 0.0,
                                             "eig_above_1": 0.0}
        assert np.all(embed(rep.minimizer) == 0)

    def test_norm_sandwich_at_minimizer(self):
        # Block-column sandwich for p >= 2: the column p-norm dominates both
        # the max and the l_p-sum of the per-component norms (C^*C is the sum
        # of the blocks' C_j^* C_j, and trace of a power is superadditive for
        # exponents >= 1), and is dominated by the l_2-sum.
        prob = _random_problem(11, d=8, p=3.0)
        rep = minimize_smooth(prob, OPTS)
        X = embed(rep.minimizer)
        p = prob.p
        col_norm = matrix_norm(np.vstack(commutators(prob.tau, X)), NormSpec.schatten(p))
        per = np.asarray([matrix_norm(C, NormSpec.schatten(p)) for C in commutators(prob.tau, X)])
        assert col_norm >= max(per) - 1e-10
        assert col_norm >= float(np.sum(per ** p) ** (1 / p)) - 1e-10
        assert col_norm <= float(np.sqrt(np.sum(per ** 2))) + 1e-10
        assert rep.value == pytest.approx(col_norm ** p, rel=1e-10)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_lower_is_the_gradient_cut(self, p):
        # the report's lower bound, the gradient cut at the minimizer less its
        # rounding allowance, is positive, below the value and below I at
        # random feasible middle blocks; the bracket closes to 1e-6 relative
        prob = _random_problem(13, d=8, p=p)
        rep = minimize_smooth(prob, SolveOptions(seed=1))
        assert 0.0 < rep.lower <= rep.value
        assert rep.value - rep.lower <= 1e-6 * rep.value
        rng = np.random.default_rng(0)
        cond = prob.condenser
        for _ in range(5):
            B = project_middle(cond, rng.uniform(-0.5, 1.5) * rand_hermitian(rng, cond.m0))
            assert rep.lower <= smooth_objective(prob, cond.embed_middle(B))

    def test_restart_consistency(self):
        prob = _random_problem(12, d=6, p=2.0)
        rep = minimize_smooth(prob, SolveOptions(max_iters=20000, tol=1e-12, seed=3, restarts=3))
        vals = rep.extra["restart_values"]
        assert max(vals) - min(vals) <= 1e-9 * max(1.0, rep.value)


class TestEulerLagrange:
    def test_tridiag_compressions_vanish(self):
        prob = _tridiag_problem(2.0)
        rep = minimize_smooth(prob, OPTS)
        el = euler_lagrange_report(prob, rep.minimizer)
        assert el.passed
        assert np.allclose(el.P1, np.diag([1.0, 0.0, 0.0]), atol=1e-10)
        assert np.allclose(el.Q1, np.diag([0.0, 0.0, 1.0]), atol=1e-10)
        for eigs in el.compression_eigs.values():
            assert np.abs(np.asarray(eigs)).max() <= 1e-10

    def test_interior_case_reduces_to_stationarity(self):
        prob = _random_problem(13, d=8, p=2.0)
        rep = minimize_smooth(prob, OPTS)
        w = np.linalg.eigvalsh(rep.minimizer.middle)
        el = euler_lagrange_report(prob, rep.minimizer)
        if w.min() > 1e-5 and w.max() < 1 - 1e-5:
            # interior minimizer: P1 = P, Q1 = Q and the middle compression is
            # the (scaled) gradient, which must vanish
            assert np.allclose(el.P1, prob.condenser.P, atol=1e-8)
            assert np.allclose(el.Q1, prob.condenser.Q, atol=1e-8)
        assert el.passed

    def test_non_minimizer_violates(self):
        prob = _tridiag_problem(2.0)
        X_bad = np.diag([1.0, 0.123, 0.0])  # feasible but not optimal
        el = euler_lagrange_report(prob, X_bad)
        assert not el.passed

    @staticmethod
    def _face_instance():
        """p = 4, 8-dim two-tuple whose minimizer has eigenvalue 1 twice while
        P = e1 has rank 1: the third pair of 0.5 (W + W^T) tuples drawn from
        default_rng(1050896091), solved with the plaplace CLI's defaults."""
        rng = np.random.default_rng(1050896091)
        pairs = []
        for _ in range(3):
            Ts = []
            for _ in range(2):
                W = rng.standard_normal((8, 8))
                Ts.append(0.5 * (W + W.T))
            pairs.append(Ts)
        prob = SmoothProblem(OperatorTuple.of(pairs[2], selfadjoint=[True, True]),
                             make_condenser([0], [7], dim=8), 4.0)
        rep = minimize_smooth(prob, SolveOptions(max_iters=20000, tol=1e-10,
                                                 seed=1050896091, restarts=2))
        X = embed(rep.minimizer)
        w, V = np.linalg.eigh(X)
        V1 = V[:, w >= 1.0 - 1e-6]
        extra = V1 - np.outer(prob.condenser.P[:, 0], prob.condenser.P[0] @ V1)
        u = extra[:, np.argmax(np.linalg.norm(extra, axis=0))]
        return prob, rep, X, u / np.linalg.norm(u)

    def test_minimizer_on_the_eigenvalue_one_face_passes(self):
        prob, rep, X, u = self._face_instance()
        assert rep.converged
        el = euler_lagrange_report(prob, rep.minimizer)
        assert el.passed, el.checks
        assert np.trace(el.P1).real == pytest.approx(2.0, abs=1e-8)
        # the compressions are those of -Theta (gradient / (p/2))
        Th = el.Theta
        assert float(u @ Th @ u) > 1e-2
        assert max(el.compression_eigs["upper"]) <= el.tolerances["delta"]

    def test_face_minimizer_confirmed_by_finite_differences(self):
        prob, rep, X, u = self._face_instance()
        f0 = smooth_objective(prob, X)
        # lowering X along u, the only move off the face, raises I at the
        # rate (p/2) u* Theta u that the gradient -(p/2) Theta predicts
        rate = 0.5 * prob.p * float(u @ theta(prob, X).Theta @ u)
        t = 1e-6
        fd = (smooth_objective(prob, X - t * np.outer(u, u)) - f0) / t
        assert fd > 0 and fd == pytest.approx(rate, rel=1e-3)
        # no feasible chord X + t (Y - X) decreases I to first order
        rng = np.random.default_rng(5)
        cond = prob.condenser
        for _ in range(20):
            Y = cond.embed_middle(project_middle(cond, rand_hermitian(rng, cond.m0) + 0.5 * np.eye(cond.m0)))
            slope = (smooth_objective(prob, X + t * (Y - X)) - f0) / t
            assert slope >= -1e-4 * max(1.0, f0)

    def test_feasible_perturbation_of_face_minimizer_fails(self):
        prob, rep, X, u = self._face_instance()
        X_off = X - 1e-3 * np.outer(u, u)  # feasible: eigenvalue 1 -> 0.999
        assert np.linalg.eigvalsh(X_off).min() >= -1e-12
        el = euler_lagrange_report(prob, X_off)
        assert not el.passed
        assert not el.checks["middle_compression_zero"]

    def test_boundary_ambiguity_flag(self):
        prob = _tridiag_problem(2.0)
        X = np.diag([1.0, 1.5e-6, 0.0])  # eigenvalue inside (eps1, 2 eps1), eps1 = 1e-6
        el = euler_lagrange_report(prob, X)
        assert "boundary-ambiguous" in el.flags


class TestUniqueness:
    def test_tridiag_strictly_convex(self):
        prob = _tridiag_problem(2.0)
        out = uniqueness_probe(prob, OPTS, trials=3)
        assert out["max_commutator_distance"] <= 1e-6
        assert out["max_variable_distance"] <= 1e-6  # X itself unique here

    def test_scalar_tuple_commutant_is_everything(self):
        tau = OperatorTuple.of([2.0 * np.eye(4), -1.0 * np.eye(4)])
        cond = make_condenser([0], [3], dim=4)
        prob = SmoothProblem(tau, cond, 2.0)
        out = uniqueness_probe(prob, SolveOptions(max_iters=50, tol=1e-10, seed=4), trials=3)
        assert out["max_commutator_distance"] == 0.0
        assert all(v == 0.0 for v in out["values"])

    def test_random_two_tuple_commutator_uniqueness(self):
        prob = _random_problem(14, d=8, p=3.0)
        out = uniqueness_probe(prob, SolveOptions(max_iters=20000, tol=1e-12, seed=5), trials=4)
        assert out["excluded_nonconverged"] == 0
        scale = 1.0 + max(
            np.linalg.norm(C)
            for r in out["reports"]
            for C in commutators(prob.tau, embed(r.minimizer))
        )
        assert out["max_commutator_distance"] <= 1e-4 * scale

    def test_trials_validated(self):
        with pytest.raises(ValidationError):
            uniqueness_probe(_tridiag_problem(2.0), OPTS, trials=1)
