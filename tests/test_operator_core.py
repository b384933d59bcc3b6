import numpy as np
import pytest

from qcmod.errors import CondenserError, ValidationError
from qcmod.operator_core import (
    ContractionVariable,
    OperatorTuple,
    commutator,
    commutators,
    embed,
    make_condenser,
    objective,
    project_middle,
)
from qcmod.ri_norms import NormSpec

from conftest import rand_hermitian, rand_unitary


class TestOperatorTuple:
    def test_dimension_consistency(self):
        with pytest.raises(ValidationError):
            OperatorTuple.of([np.eye(2), np.eye(3)])

    def test_selfadjoint_flag_enforced(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            OperatorTuple.of([M], selfadjoint=[True])
        t = OperatorTuple.of([M])
        assert t.selfadjoint_flags == (False,)

    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        mats = [rand_hermitian(rng, 3), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
        t = OperatorTuple.of(mats)
        back = OperatorTuple.from_json(t.to_json())
        for A, B in zip(t.components, back.components):
            assert np.allclose(A, B, atol=0)


class TestCondenser:
    def test_coordinate_projections(self):
        c = make_condenser([0], [2], dim=3)
        assert c.m0 == 1
        assert np.allclose(c.basis_mid[:, 0], [0, 1, 0])
        assert c.rank_p == 1 and c.rank_q == 1

    def test_overlapping_ranges_rejected(self):
        P = np.zeros((3, 3))
        P[0, 0] = 1.0
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        Q = np.outer(v, v)
        with pytest.raises(CondenserError):
            make_condenser(P, Q)

    def test_empty_condenser(self):
        c = make_condenser([], [], dim=4)
        assert c.m0 == 4 and c.rank_p == 0 and c.rank_q == 0

    def test_matrix_inputs_reorthogonalized(self):
        rng = np.random.default_rng(1)
        U = rand_unitary(rng, 5)
        P = U[:, :2] @ U[:, :2].T
        Q = U[:, 2:3] @ U[:, 2:3].T
        c = make_condenser(P + 1e-13 * rand_hermitian(rng, 5), Q)
        assert c.rank_p == 2 and c.rank_q == 1 and c.m0 == 2
        # exact block orthogonality after construction
        assert np.linalg.norm(c.basis_p.conj().T @ c.basis_q) < 1e-12
        assert np.linalg.norm(c.basis_p.conj().T @ c.basis_mid) < 1e-12

    def test_non_projection_rejected(self):
        with pytest.raises(ValidationError):
            make_condenser(np.diag([0.5, 0.0, 0.0]), [2], dim=3)

    def test_rank_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            idx = rng.permutation(d)
            rp = int(rng.integers(0, d + 1))
            rq = int(rng.integers(0, d - rp + 1))
            c = make_condenser(list(idx[:rp]), list(idx[rp : rp + rq]), dim=d)
            assert c.rank_p + c.rank_q + c.m0 == d


class TestCachedProjections:
    def test_P_and_Q_cached_read_only(self):
        c = make_condenser([0, 1], [3], dim=5)
        assert c.P is c.P and c.Q is c.Q
        np.testing.assert_array_equal(c.P, np.diag([1.0, 1, 0, 0, 0]))
        np.testing.assert_array_equal(c.Q, np.diag([0.0, 0, 0, 1, 0]))
        for M in (c.P, c.Q):
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[0, 0] = 5.0

    def test_embed_without_middle_hands_out_a_copy(self):
        c = make_condenser([0, 1], [2], dim=3)
        assert c.m0 == 0
        A = c.embed_middle(np.zeros((0, 0)))
        assert A.flags.writeable and not np.shares_memory(A, c.P)
        A[0, 0] = 7.0
        assert c.P[0, 0] == 1.0


def _project(c, A):
    """The metric projection of a full-space selfadjoint A onto the feasible
    set: A compressed to the middle block, then clipped (``project_middle``)."""
    return ContractionVariable(c, project_middle(c, c.compress_middle(A)))


class TestEmbedProject:
    def test_projection_case(self):
        c = make_condenser([0], [2], dim=3)
        var = ContractionVariable(c, np.eye(1))
        A = embed(var)
        assert np.allclose(A @ c.P, c.P)
        assert np.allclose(A @ c.Q, 0.0)
        assert np.allclose(A @ A, A)

    def test_clip_at_one(self):
        c = make_condenser([0], [2], dim=3)
        var = _project(c, np.eye(3))
        assert np.allclose(embed(var), np.diag([1.0, 1.0, 0.0]))

    def test_clip_example(self):
        c = make_condenser([0], [2], dim=3)
        var = _project(c, np.diag([7.0, 0.5, -2.0]))
        assert np.allclose(embed(var), np.diag([1.0, 0.5, 0.0]))

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(3)
        c = make_condenser([0, 1], [5], dim=6)
        for _ in range(200):
            A = rand_hermitian(rng, 6) * rng.uniform(0.2, 3)
            B = rand_hermitian(rng, 6) * rng.uniform(0.2, 3)
            pa, pb = _project(c, A), _project(c, B)
            # idempotent
            paa = _project(c, embed(pa))
            assert np.allclose(pa.middle, paa.middle, atol=1e-12)
            # non-expansive on the middle blocks (Frobenius geometry)
            da = np.linalg.norm(pa.middle - pb.middle)
            db = np.linalg.norm(c.compress_middle(A) - c.compress_middle(B))
            assert da <= db + 1e-12

    def test_block_characterization_forward(self):
        rng = np.random.default_rng(4)
        c = make_condenser([0], [4], dim=5)
        for _ in range(1000):
            B = project_middle(c, rand_hermitian(rng, c.m0))
            A = embed(ContractionVariable(c, B))
            assert np.linalg.norm(A @ c.P - c.P) <= 1e-12
            assert np.linalg.norm(A @ c.Q) <= 1e-12
            w = np.linalg.eigvalsh(A)
            assert w.min() >= -1e-12 and w.max() <= 1 + 1e-12

    def test_block_characterization_converse(self):
        # Any selfadjoint A satisfying the constraints to 1e-12 has off-middle
        # blocks vanishing to 1e-10.
        rng = np.random.default_rng(5)
        c = make_condenser([0], [4], dim=5)
        for _ in range(200):
            B = project_middle(c, rand_hermitian(rng, c.m0))
            A = embed(ContractionVariable(c, B)) + 1e-13 * rand_hermitian(rng, 5)
            assert np.linalg.norm(A @ c.P - c.P) <= 1e-12
            assert np.linalg.norm(A @ c.Q) <= 1e-12
            offs = [
                c.basis_p.conj().T @ A @ c.basis_mid,
                c.basis_p.conj().T @ A @ c.basis_q,
                c.basis_mid.conj().T @ A @ c.basis_q,
                c.basis_p.conj().T @ A @ c.basis_p - np.eye(c.rank_p),
                c.basis_q.conj().T @ A @ c.basis_q,
            ]
            assert max(np.linalg.norm(o) for o in offs) <= 1e-10


class TestCommutators:
    def test_commuting_gives_zero(self):
        tau = OperatorTuple.of([np.diag([1.0, 2.0, 3.0])])
        A = np.diag([5.0, 6.0, 7.0])
        assert np.allclose(np.vstack(commutators(tau, A)), 0.0)

    def test_two_by_two_oracle(self):
        # orientation [X, Y] = XY - YX: [A, T] for T = diag(1,2), A = e_12
        T = np.diag([1.0, 2.0])
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        C = commutators(OperatorTuple.of([T]), A)[0]
        # direct 2x2 multiplication oracle
        expected = A @ T - T @ A
        assert np.allclose(C, expected)
        assert expected[0, 1] == 1.0  # (A T)_{12} - (T A)_{12} = 2 - 1

    def test_diagonal_detection(self):
        rng = np.random.default_rng(8)
        D = np.diag(rng.standard_normal(4))
        H = rand_hermitian(rng, 4)
        tau = OperatorTuple.of([D, H, np.diag(rng.standard_normal(4) + 0j)])
        t, none_h, none_c = tau.diagonals
        np.testing.assert_array_equal(t, np.diagonal(D))
        assert none_h is None and none_c is None

    @pytest.mark.parametrize("d", [1, 3, 58, 128])
    def test_broadcast_equals_matmul_for_real_diagonal(self, d):
        rng = np.random.default_rng(d)
        for trial in range(20):
            t = rng.standard_normal(d)
            if trial % 4 == 0:
                t[rng.integers(0, d, size=d // 2 + 1)] = 0.0
            T = np.diag(t)
            A = rand_hermitian(rng, d) if trial % 2 else rng.standard_normal((d, d))
            np.testing.assert_array_equal(commutator(A, T, t), A @ T - T @ A)
            assert commutators(OperatorTuple.of([T]), A)[0].shape == (d, d)

    def test_complex_variable_takes_the_matmul_path(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal(5)
        A = rand_hermitian(rng, 5, complex_=True)
        np.testing.assert_array_equal(commutator(A, np.diag(t), t), A @ np.diag(t) - np.diag(t) @ A)

    def test_column_shape(self):
        rng = np.random.default_rng(6)
        tau = OperatorTuple.of([rand_hermitian(rng, 4), rand_hermitian(rng, 4)])
        col = np.vstack(commutators(tau, rand_hermitian(rng, 4)))
        assert col.shape == (8, 4)


class TestObjective:
    def test_diagonal_zero(self):
        tau = OperatorTuple.of([np.diag([1.0, 2.0])])
        assert objective(tau, np.diag([0.3, 0.9]), NormSpec.schatten(2)) == 0.0

    def test_tridiag_closed_form(self, tridiag_example):
        tau, cond = tridiag_example
        for t in (0.0, 0.25, 0.5, 0.9):
            A = np.diag([1.0, t, 0.0])
            got = objective(tau, A, NormSpec.schatten(2))
            want = np.sqrt(2 * ((1 - t) ** 2 + t ** 2))
            # verified against a raw SVD oracle
            s = np.linalg.svd(A @ tau.components[0] - tau.components[0] @ A, compute_uv=False)
            assert got == pytest.approx(np.sqrt(np.sum(s ** 2)), rel=1e-14)
            assert got == pytest.approx(want, rel=1e-12)

    def test_hybrid_degenerates_to_single(self):
        rng = np.random.default_rng(7)
        tau = OperatorTuple.of([rand_hermitian(rng, 4), rand_hermitian(rng, 4)])
        A = project_middle(make_condenser([0], [3], dim=4), rand_hermitian(rng, 2))
        cond = make_condenser([0], [3], dim=4)
        Afull = cond.embed_middle(A)
        spec = NormSpec.schatten(2)
        assert objective(tau, Afull, spec) == objective(tau, Afull, [spec, spec])

    def test_convexity_midpoint(self):
        rng = np.random.default_rng(8)
        cond = make_condenser([0], [5], dim=6)
        tau = OperatorTuple.of([rand_hermitian(rng, 6), rand_hermitian(rng, 6)])
        spec = NormSpec.lorentz(2)
        for _ in range(1000):
            B1 = project_middle(cond, rand_hermitian(rng, cond.m0))
            B2 = project_middle(cond, rand_hermitian(rng, cond.m0))
            A1, A2 = cond.embed_middle(B1), cond.embed_middle(B2)
            f1, f2 = objective(tau, A1, spec), objective(tau, A2, spec)
            fm = objective(tau, 0.5 * (A1 + A2), spec)
            scale = max(1.0, f1, f2)
            assert fm <= 0.5 * (f1 + f2) + 1e-10 * scale

    def test_unitary_covariance(self):
        rng = np.random.default_rng(9)
        cond = make_condenser([0], [4], dim=5)
        tau = OperatorTuple.of([rand_hermitian(rng, 5, complex_=True)])
        spec = NormSpec.macaev()
        for _ in range(200):
            B = project_middle(cond, rand_hermitian(rng, cond.m0, complex_=True))
            A = cond.embed_middle(B)
            U = rand_unitary(rng, 5, complex_=True)
            a = objective(tau, A, spec)
            b = objective(tau.conjugated(U), U @ A @ U.conj().T, spec)
            assert abs(a - b) <= 1e-10 * max(1.0, a)
