import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcmod.errors import ValidationError
from qcmod.ri_norms import (
    NormSpec,
    _eval_weights,
    _tie_averaged,
    _vector_subgradient,
    dual_norm,
    induced_weights,
    matrix_norm,
    norm_subgradient,
    vector_norm,
)

from conftest import rand_unitary

ALL_SPECS = [
    NormSpec.schatten(1),
    NormSpec.schatten(2),
    NormSpec.schatten(3.5),
    NormSpec.lorentz(1),
    NormSpec.lorentz(2),
    NormSpec.macaev(),
    NormSpec.from_weights([1.0, 0.5, 0.5, 0.1, 0.0]),
]


class TestInducedWeights:
    def test_lorentz_p1_is_flat(self):
        assert np.allclose(induced_weights(NormSpec.lorentz(1), 3), [1, 1, 1])

    def test_macaev_harmonic(self):
        w = induced_weights(NormSpec.macaev(), 4)
        assert np.allclose(w, [1, 1 / 2, 1 / 3, 1 / 4])

    def test_lorentz_p2(self):
        w = induced_weights(NormSpec.lorentz(2), 3)
        assert np.allclose(w, [1, 2 ** -0.5, 3 ** -0.5])

    def test_schatten_marker(self):
        assert induced_weights(NormSpec.schatten(2), 5) is None

    def test_invalid_p(self):
        with pytest.raises(ValidationError):
            NormSpec.schatten(0.5)
        with pytest.raises(ValidationError):
            NormSpec.lorentz(0.99)

    def test_non_monotone_weights_rejected(self):
        with pytest.raises(ValidationError):
            NormSpec.from_weights([1.0, 2.0])
        with pytest.raises(ValidationError):
            NormSpec.from_weights([1.0, -0.1])


class TestVectorNorm:
    def test_euclidean(self):
        assert vector_norm([3, 4], NormSpec.schatten(2)) == pytest.approx(5.0, abs=0)

    def test_macaev_ones(self):
        assert vector_norm([1, 1, 1, 1], NormSpec.macaev()) == pytest.approx(25 / 12, rel=1e-15)

    def test_lorentz_sorts_then_weights(self):
        v = vector_norm([0.5, 1], NormSpec.lorentz(2))
        assert v == pytest.approx(1 + 0.5 * 2 ** -0.5, rel=1e-15)

    def test_absolute_value_first(self):
        assert vector_norm([-3, 4], NormSpec.schatten(2)) == pytest.approx(5.0)
        assert vector_norm([3j, 4], NormSpec.schatten(2)) == pytest.approx(5.0)


class TestMatrixNorm:
    def test_identity_trace_norm(self):
        assert matrix_norm(np.eye(3), NormSpec.schatten(1)) == pytest.approx(3.0)

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        M = np.outer(u, v)
        for spec in ALL_SPECS:
            w1 = 1.0 if spec.kind == "schatten" else induced_weights(spec, 1)[0]
            assert matrix_norm(M, spec) == pytest.approx(w1, rel=1e-12)

    def test_diagonal_vs_svd_oracle(self):
        M = np.diag([2.0, 1.0])
        s = np.linalg.svd(M, compute_uv=False)  # independent oracle
        w = induced_weights(NormSpec.lorentz(2), 2)
        expected = float(np.sort(s)[::-1] @ w)
        assert expected == pytest.approx(2 + 2 ** -0.5, rel=1e-15)
        assert matrix_norm(M, NormSpec.lorentz(2)) == pytest.approx(expected, rel=1e-14)

    def test_rectangular(self):
        M = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert matrix_norm(M, NormSpec.schatten(1)) == pytest.approx(3.0)


class TestSubgradient:
    def test_trace_norm_positive_diagonal(self):
        G = norm_subgradient(np.diag([2.0, 1.0]), NormSpec.schatten(1))
        assert np.allclose(G, np.eye(2), atol=1e-14)

    def test_zero_matrix(self):
        for spec in ALL_SPECS:
            G = norm_subgradient(np.zeros((3, 3)), spec)
            assert np.allclose(G, 0.0)

    def test_lorentz_diagonal(self):
        G = norm_subgradient(np.diag([2.0, 1.0]), NormSpec.lorentz(2))
        assert np.allclose(G, np.diag([1.0, 2 ** -0.5]), atol=1e-14)

    def test_supporting_inequality_diag_case(self):
        rng = np.random.default_rng(1)
        spec = NormSpec.lorentz(2)
        M = np.diag([2.0, 1.0])
        G = norm_subgradient(M, spec)
        fM = matrix_norm(M, spec)
        for _ in range(100):
            N = rng.standard_normal((2, 2)) * rng.uniform(0.1, 3)
            lhs = matrix_norm(N, spec)
            rhs = fM + np.real(np.trace(G.conj().T @ (N - M)))
            assert lhs >= rhs - 1e-9 * max(1.0, lhs)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
    def test_supporting_inequality_random(self, spec):
        rng = np.random.default_rng(7)
        for trial in range(1000):
            d = int(rng.integers(1, 6))
            complex_ = trial % 3 == 0
            M = rng.standard_normal((d, d))
            N = rng.standard_normal((d, d)) * rng.uniform(0.05, 4)
            if complex_:
                M = M + 1j * rng.standard_normal((d, d))
                N = N + 1j * rng.standard_normal((d, d))
            if trial % 5 == 0:
                M = np.diag(np.sort(rng.uniform(0, 2, d))[::-1])  # force exact ties sometimes
                M[0, 0] = M[min(1, d - 1), min(1, d - 1)]
            G = norm_subgradient(M, spec)
            lhs = matrix_norm(N, spec)
            rhs = matrix_norm(M, spec) + np.real(np.trace(G.conj().T @ (N - M)))
            scale = max(1.0, lhs, matrix_norm(M, spec))
            assert lhs - rhs >= -1e-9 * scale

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
    def test_vector_subgradient_supporting(self, spec):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            v = rng.standard_normal(n) * rng.uniform(0.1, 3)
            w = rng.standard_normal(n) * rng.uniform(0.1, 3)
            g = _vector_subgradient(v, spec)
            lhs = vector_norm(w, spec)
            rhs = vector_norm(v, spec) + float(np.dot(g, w - v))
            assert lhs - rhs >= -1e-9 * max(1.0, lhs)


class TestSubgradientFastPaths:
    """The argsort-free and loop-free paths reproduce the sorted ones bit for bit."""

    @classmethod
    def _argsort_path(cls, v, spec):
        """The gauge subgradient taken at the sorted magnitudes s and scattered
        back: weights tie-averaged by ``ndarray.mean``, or (s / |s|_p)^(p - 1)
        for Schatten, rescaled to dual norm 1 for p > 2."""
        a = np.abs(v)
        order = np.argsort(-a, kind="stable")
        s = a[order]
        if spec.kind != "schatten":
            gauge = cls._loop_tie_averaged(s, _eval_weights(spec, s.size))
        elif spec.p == 1:
            gauge = np.ones(s.size)
        else:
            gauge = (s / vector_norm(s, spec)) ** (spec.p - 1.0)
            if spec.p > 2:
                gauge /= dual_norm(gauge, spec)
        d = np.empty(a.size)
        d[order] = gauge
        with np.errstate(invalid="ignore", divide="ignore"):
            phase = np.where(a > 0, v / np.where(a > 0, a, 1.0), 0.0)
        return d * phase

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 3.5])
    def test_schatten_skips_argsort_bitwise(self, p):
        spec = NormSpec.schatten(p)
        rng = np.random.default_rng(41)
        for trial in range(200):
            n = int(rng.integers(1, 5000))
            v = rng.standard_normal(n) * rng.uniform(0.01, 5)
            if trial % 3 == 0:
                v[rng.integers(0, n, size=n // 3)] = 0.0  # zeros and ties
                v[: n // 4] = np.round(v[: n // 4], 1)
            np.testing.assert_array_equal(
                _vector_subgradient(v, spec).view(np.uint64),
                self._argsort_path(v, spec).view(np.uint64),
            )

    @pytest.mark.parametrize("spec", [NormSpec.lorentz(2), NormSpec.macaev(),
                                      NormSpec.from_weights([1.0, 0.5, 0.5, 0.1])],
                             ids=["lorentz", "macaev", "short-weights"])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_weighted_skips_the_zero_group_bitwise(self, spec, complex_):
        # the weights of the zero group are not averaged, since its phase is 0
        rng = np.random.default_rng(43)
        for trial in range(300):
            n = int(rng.integers(1, 60))
            v = rng.integers(-3, 4, size=n).astype(float)  # zeros and ties
            if trial % 2:
                v = v * rng.uniform(0.1, 2.0, size=n)
            if complex_:
                v = v * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
            np.testing.assert_array_equal(
                _vector_subgradient(v, spec).view(np.uint64),
                self._argsort_path(v, spec).view(np.uint64),
            )

    @staticmethod
    def _loop_tie_averaged(values_sorted, w):
        out = np.array(w, dtype=float)
        i, n = 0, len(values_sorted)
        while i < n:
            j = i + 1
            while j < n and values_sorted[j] == values_sorted[i]:
                j += 1
            if j - i > 1:
                out[i:j] = out[i:j].mean()
            i = j
        return out

    def test_tie_groups_match_the_elementwise_loop(self):
        # numpy's pairwise sum changes its blocking above 8 and above 128
        # entries, so the draws reach tie groups of both lengths
        rng = np.random.default_rng(42)
        longest = []
        for _ in range(300):
            n = int(rng.integers(1, 401))
            s = np.sort(rng.integers(0, int(rng.integers(1, 12)), size=n).astype(float))[::-1]
            w = np.sort(rng.uniform(0, 1, n))[::-1]
            np.testing.assert_array_equal(
                _tie_averaged(s, w).view(np.uint64), self._loop_tie_averaged(s, w).view(np.uint64)
            )
            longest.append(np.unique(s, return_counts=True)[1].max())
        assert any(8 < m <= 128 for m in longest) and max(longest) > 128

    # tie groups of exactly 2 (summed by reduceat) next to the lengths at which
    # numpy's reduce changes its blocking (3, 8, 9 and above 128)
    GROUPS = [2, 1, 2, 3, 2, 8, 2, 9, 1, 2, 130, 2, 2]

    def test_pairs_next_to_longer_groups_match_the_loop(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            sizes = rng.permutation(self.GROUPS)
            s = np.repeat(np.sort(rng.uniform(0.1, 5.0, len(sizes)))[::-1], sizes)
            w = np.sort(rng.uniform(0, 1, s.size))[::-1]
            np.testing.assert_array_equal(
                _tie_averaged(s, w).view(np.uint64), self._loop_tie_averaged(s, w).view(np.uint64)
            )

    @pytest.mark.parametrize("spec", [NormSpec.lorentz(2), NormSpec.macaev(),
                                      NormSpec.from_weights([1.0, 0.5, 0.5, 0.1, -0.0, -0.0])],
                             ids=["lorentz", "macaev", "signed-zero-weights"])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_signed_zeros_and_tie_groups_bitwise(self, spec, complex_):
        # magnitudes repeated in the GROUPS pattern, random signs or phases, and
        # entries of +0.0 and -0.0 (phase 0, weight not averaged)
        rng = np.random.default_rng(45)
        for _ in range(40):
            sizes = rng.permutation(self.GROUPS)
            v = np.repeat(rng.uniform(0.1, 5.0, len(sizes)), sizes)
            v = rng.permutation(v * rng.choice([-1.0, 1.0], size=v.size))
            if complex_:
                v = v * np.exp(1j * rng.uniform(0, 2 * np.pi, size=v.size))
            zeros = rng.choice(v.size, size=int(rng.integers(1, 12)), replace=False)
            v[zeros] = rng.choice([0.0, -0.0], size=zeros.size)
            got = _vector_subgradient(v, spec)
            want = self._argsort_path(v, spec)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            assert not np.signbit(got[zeros].view(float)).any()

    def test_weights_cached_read_only(self):
        spec = NormSpec.lorentz(2)
        w = _eval_weights(spec, 17)
        assert _eval_weights(NormSpec.lorentz(2), 17) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 2.0


@st.composite
def vectors(draw):
    """A real or complex vector with random magnitudes, or with ties and zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    v = rng.standard_normal(n) * rng.uniform(1e-3, 10.0)
    if draw(st.booleans()):
        v = rng.integers(-2, 3, size=n) * rng.uniform(0.1, 3.0)
    if draw(st.booleans()):
        v = v * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
    return v


class TestDualNorm:
    @pytest.mark.parametrize("spec, y, expected", [
        (NormSpec.schatten(1), [3.0, -4.0, 1.0], 4.0),
        (NormSpec.schatten(2), [3.0, -4.0], 5.0),
        (NormSpec.schatten(3), [1.0, 1.0], 2.0 ** (2.0 / 3.0)),
        # l1's dual is the max: partial sums of (4, 3, 1) over 1, 2, 3
        (NormSpec.lorentz(1), [3.0, -4.0, 1.0], 4.0),
        # Macaev: (2 + 2) / (1 + 1/2)
        (NormSpec.macaev(), [2.0, 2.0], 8.0 / 3.0),
        # explicit weights shorter than y are padded with zeros
        (NormSpec.from_weights([1.0, 0.5]), [1.0, 1.0, 1.0], 2.0),
        (NormSpec.from_weights([0.0]), [1.0], np.inf),
    ], ids=["s1", "s2", "s3", "lorentz1", "macaev", "short-weights", "zero-weights"])
    def test_closed_forms(self, spec, y, expected):
        assert dual_norm(np.asarray(y), spec) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
    def test_zero_and_empty_are_zero(self, spec):
        assert dual_norm(np.zeros(4), spec) == 0.0
        assert dual_norm(np.zeros(0), spec) == 0.0

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
    @settings(max_examples=40, deadline=None)
    @given(v=vectors())
    def test_subgradient_is_a_unit_dual_that_attains_the_norm(self, spec, v):
        y = _vector_subgradient(v, spec)
        assert dual_norm(y, spec) <= 1.0 + 4 * np.finfo(float).eps
        pairing = float(np.real(np.vdot(y, v)))
        assert pairing == pytest.approx(vector_norm(v, spec), rel=1e-12, abs=1e-300)

    def test_tie_averaged_subgradient_does_not_round_past_one(self):
        # Two long tie groups: plain running sums of |y| and of the weights put
        # the ratio 7 ulps above 1 although it is 1 in exact arithmetic.
        a, b = 0.41460049, 0.20730024
        signs = [0, 2, -1, 1, 2, 1, 2, 1, 0, -1, 2, 2, -1, -1, -1, -2, -1, -2, 1, -2,
                 1, -1, 1, -2, 2, -2, -1, -2, -1, 2, 1, 0, 1, 2, 1, 1, -1, -2, 2, -2]
        v = np.array([{0: 0.0, 1: b, 2: a}[abs(s)] * np.sign(s) for s in signs])
        spec = NormSpec.lorentz(2)
        assert dual_norm(_vector_subgradient(v, spec), spec) <= 1.0 + 4 * np.finfo(float).eps

    @pytest.mark.parametrize("p", [3.0, 3.5, 5.0])
    def test_schatten_subgradient_does_not_round_past_one(self, p):
        # (v / |v|_p)^(p - 1) alone lands more than 4 ulps above 1 on some draws
        spec = NormSpec.schatten(p)
        rng = np.random.default_rng(5)
        for trial in range(3000):
            n = int(rng.integers(1, 41))
            v = rng.standard_normal(n) * rng.uniform(1e-3, 10.0)
            if trial % 2:
                v = v * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
            assert dual_norm(_vector_subgradient(v, spec), spec) <= 1.0 + 4 * np.finfo(float).eps

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
    @settings(max_examples=40, deadline=None)
    @given(y=vectors(), x=vectors())
    def test_holder(self, spec, y, x):
        n = min(y.size, x.size)
        y, x = y[:n], x[:n]
        bound = dual_norm(y, spec) * vector_norm(x, spec)
        assert abs(np.vdot(y, x)) <= bound * (1 + 1e-12) + 1e-300


class TestNormAxioms:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
    def test_rearrangement_invariance_exact(self, spec):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            s = rng.uniform(0, 5, n)
            perm = rng.permutation(n)
            assert vector_norm(s, spec) == vector_norm(s[perm], spec)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
    def test_homogeneity_and_triangle(self, spec):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            s = rng.uniform(0, 5, n)
            t = rng.uniform(0, 5, n)
            c = rng.uniform(-3, 3)
            scale = max(1.0, vector_norm(s, spec))
            assert abs(vector_norm(c * s, spec) - abs(c) * vector_norm(s, spec)) <= 1e-12 * scale * max(1, abs(c))
            lhs = vector_norm(s + t, spec)
            rhs = vector_norm(s, spec) + vector_norm(t, spec)
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
    def test_unitary_invariance(self, spec):
        rng = np.random.default_rng(5)
        for trial in range(100):
            d = int(rng.integers(2, 6))
            M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            U = rand_unitary(rng, d, complex_=True)
            V = rand_unitary(rng, d, complex_=True)
            a = matrix_norm(M, spec)
            b = matrix_norm(U @ M @ V, spec)
            assert abs(a - b) <= 1e-10 * max(1.0, a)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.p}")
    def test_ideal_property(self, spec):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = int(rng.integers(2, 5))
            A = rng.standard_normal((d, d))
            X = rng.standard_normal((d, d))
            B = rng.standard_normal((d, d))
            lhs = matrix_norm(A @ X @ B, spec)
            rhs = np.linalg.norm(A, 2) * matrix_norm(X, spec) * np.linalg.norm(B, 2)
            assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    def test_domination_chain(self):
        # Lorentz (p,1) dominates Schatten p on every nonnegative sequence.
        rng = np.random.default_rng(8)
        for p in (1.0, 1.5, 2.0, 3.0):
            for _ in range(200):
                n = int(rng.integers(1, 9))
                s = rng.uniform(0, 4, n)
                assert vector_norm(s, NormSpec.schatten(p)) <= vector_norm(
                    s, NormSpec.lorentz(p)
                ) + 1e-12


class TestJson:
    def test_bit_exact_round_trip(self):
        import json

        specs = ALL_SPECS + [NormSpec("weights", weights=(0.1 + 0.2,))]
        for spec in specs:
            blob = json.dumps(spec.to_json())
            back = NormSpec.from_json(json.loads(blob))
            assert back.kind == spec.kind
            assert back.p == spec.p
            assert back.weights == spec.weights
