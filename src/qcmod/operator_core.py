"""Operator tuples, condensers, and the block parametrization of the feasible set.

A condenser is a pair of orthogonal projections (P, Q) with PQ = 0. The
positive contractions A with AP = P, AQ = 0 are exactly the block-diagonal
matrices P (+) B0 (+) 0 in the orthogonal decomposition

    C^d = ran(P) (+) ran(I - P - Q) (+) ran(Q),      0 <= B0 <= I.

Solvers therefore work on the middle block only: every iterate is exactly
feasible and the dimension drops from d^2 to m0^2.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import null_space

from .errors import ValidationError, CondenserError
from .jsonio import matrix_to_json, matrix_from_json
from .ri_norms import matrix_norm, spec_list

_PROJ_TOL = 1e-10


def _herm(X):
    return 0.5 * (X + X.conj().T)


def _is_hermitian(M, rtol=1e-12):
    scale = float(np.linalg.norm(M)) or 1.0
    return float(np.linalg.norm(M - M.conj().T)) <= rtol * scale


@dataclass(frozen=True)
class OperatorTuple:
    """An n-tuple of d x d matrices with per-component selfadjointness flags."""

    components: tuple
    selfadjoint_flags: tuple
    dim: int

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValidationError("operator tuple needs at least one component")
        for T in self.components:
            if T.ndim != 2 or T.shape != (self.dim, self.dim):
                raise ValidationError(f"component shape {T.shape} != ({self.dim}, {self.dim})")
        if len(self.selfadjoint_flags) != len(self.components):
            raise ValidationError("one selfadjoint flag per component required")
        for T, flag in zip(self.components, self.selfadjoint_flags):
            if flag and not _is_hermitian(T):
                raise ValidationError("component flagged selfadjoint is not selfadjoint")

    @property
    def n(self):
        return len(self.components)

    @cached_property
    def diagonals(self):
        """Per component: its diagonal if it is a real diagonal matrix, else None."""
        out = []
        for T in self.components:
            t = np.diagonal(T)
            real_diag = not np.iscomplexobj(T) and np.count_nonzero(T) == np.count_nonzero(t)
            out.append(t.copy() if real_diag else None)
        return tuple(out)

    @staticmethod
    def of(matrices, selfadjoint=None):
        """Build a tuple from matrices; flags are auto-detected when omitted."""
        mats = tuple(np.asarray(M) for M in matrices)
        if not mats:
            raise ValidationError("operator tuple needs at least one component")
        d = mats[0].shape[0]
        if selfadjoint is None:
            flags = tuple(_is_hermitian(M) if M.shape == (d, d) else False for M in mats)
        elif isinstance(selfadjoint, bool):
            flags = (selfadjoint,) * len(mats)
        else:
            flags = tuple(bool(b) for b in selfadjoint)
        return OperatorTuple(mats, flags, d)

    def scaled(self, c):
        return OperatorTuple(tuple(c * T for T in self.components), self.selfadjoint_flags, self.dim)

    def conjugated(self, U):
        Uh = U.conj().T
        return OperatorTuple(
            tuple(U @ T @ Uh for T in self.components), self.selfadjoint_flags, self.dim
        )

    def to_json(self):
        return {
            "components": [matrix_to_json(T) for T in self.components],
            "selfadjoint": [bool(b) for b in self.selfadjoint_flags],
        }

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or "components" not in obj:
            raise ValidationError('tuple JSON needs a "components" list')
        mats = [matrix_from_json(m) for m in obj["components"]]
        flags = obj.get("selfadjoint")
        return OperatorTuple.of(mats, selfadjoint=flags)


def _orthonormal_columns(V):
    """Re-orthonormalize columns (QR with sign fixed for determinism)."""
    Q, R = np.linalg.qr(V)
    signs = np.sign(np.real(np.diag(R)))
    signs[signs == 0] = 1.0
    return Q * signs


def _range_basis(P):
    """Orthonormal basis of the range of a (near-)projection matrix."""
    P = np.asarray(P)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValidationError("projection must be a square matrix")
    if not _is_hermitian(P, rtol=1e-8):
        raise ValidationError("projection input is not selfadjoint")
    H = _herm(P)
    if np.linalg.norm(H @ H - H, 2) > 100 * _PROJ_TOL:
        raise ValidationError("projection input is not idempotent within tolerance")
    w, V = np.linalg.eigh(H)
    rank = int(np.sum(w > 0.5))
    if rank == 0:
        return np.zeros((P.shape[0], 0), dtype=H.dtype)
    return V[:, w > 0.5]


@dataclass(frozen=True)
class Condenser:
    """Validated orthogonal pair (P, Q), PQ = 0, with its exact block basis."""

    dim: int
    basis_p: np.ndarray   # d x rank_p, orthonormal
    basis_q: np.ndarray   # d x rank_q, orthonormal
    basis_mid: np.ndarray  # d x m0, orthonormal, spans ran(I - P - Q)

    @property
    def rank_p(self):
        return self.basis_p.shape[1]

    @property
    def rank_q(self):
        return self.basis_q.shape[1]

    @property
    def m0(self):
        return self.basis_mid.shape[1]

    @cached_property
    def P(self):
        """The projection onto ran(P), computed once and read-only."""
        return _readonly(self.basis_p @ self.basis_p.conj().T)

    @cached_property
    def Q(self):
        """The projection onto ran(Q), computed once and read-only."""
        return _readonly(self.basis_q @ self.basis_q.conj().T)

    @property
    def is_complex(self):
        return any(np.iscomplexobj(b) for b in (self.basis_p, self.basis_q, self.basis_mid))

    def embed_middle(self, B0):
        """A = P (+) B0 (+) 0 as a full d x d matrix (a new, writable array)."""
        if self.m0:
            return self.P + self.basis_mid @ B0 @ self.basis_mid.conj().T
        return self.P.copy()

    def compress_middle(self, A):
        return self.basis_mid.conj().T @ A @ self.basis_mid


def _readonly(M):
    M.flags.writeable = False
    return M


def _as_basis(source, dim, dtype):
    """Interpret a projection source as an orthonormal column basis."""
    if isinstance(source, tuple) and len(source) == 2 and source[0] == "indices":
        idx = sorted(set(int(i) for i in source[1]))
        if idx and (idx[0] < 0 or idx[-1] >= dim):
            raise ValidationError(f"basis index out of range for dimension {dim}")
        V = np.zeros((dim, len(idx)), dtype=dtype)
        V[idx, np.arange(len(idx))] = 1.0
        return V, set(idx)
    if isinstance(source, tuple) and len(source) == 2 and source[0] == "basis":
        V = np.asarray(source[1])
        if V.shape[0] != dim:
            raise ValidationError("basis rows must equal the ambient dimension")
        if V.shape[1] and np.linalg.norm(V.conj().T @ V - np.eye(V.shape[1]), 2) > 1e-8:
            raise ValidationError("basis columns are not orthonormal")
        return V, None
    V = _range_basis(source)
    if V.shape[0] != dim:
        raise ValidationError("projection dimension mismatch")
    return V, None


def make_condenser(P_source, Q_source, *, dim=None, middle_basis=None):
    """Build a condenser from projections given as matrices, index sets, or bases.

    Index sets (``("indices", [...])`` or a plain list/set/range of ints) give
    exact standard-basis projections. Matrix inputs are validated as
    projections, then re-orthogonalized so downstream block algebra is exact.
    """
    def canon(src):
        if isinstance(src, (list, set, frozenset, range)):
            return ("indices", sorted(int(i) for i in src))
        return src

    P_source, Q_source = canon(P_source), canon(Q_source)
    if dim is None:
        for src in (P_source, Q_source):
            if isinstance(src, np.ndarray):
                dim = src.shape[0]
                break
            if isinstance(src, tuple) and src[0] == "basis":
                dim = np.asarray(src[1]).shape[0]
                break
        else:
            raise ValidationError("dim is required when both projections are index sets")
    dim = int(dim)
    dtype = float
    for src in (P_source, Q_source, ("basis", middle_basis) if middle_basis is not None else None):
        if src is None:
            continue
        arr = src[1] if isinstance(src, tuple) else src
        if isinstance(arr, np.ndarray) and np.iscomplexobj(arr):
            dtype = complex

    Vp, p_idx = _as_basis(P_source, dim, dtype)
    Vq, q_idx = _as_basis(Q_source, dim, dtype)
    if dtype is complex:
        Vp, Vq = Vp.astype(complex), Vq.astype(complex)

    if p_idx is not None and q_idx is not None:
        if p_idx & q_idx:
            raise CondenserError(f"index projections overlap: {sorted(p_idx & q_idx)}")
        mid_idx = sorted(set(range(dim)) - p_idx - q_idx)
        Vm = np.zeros((dim, len(mid_idx)), dtype=dtype)
        Vm[mid_idx, np.arange(len(mid_idx))] = 1.0
        return Condenser(dim, Vp, Vq, Vm)

    overlap = np.linalg.norm(Vp.conj().T @ Vq, 2) if Vp.size and Vq.size else 0.0
    if overlap > _PROJ_TOL:
        raise CondenserError(f"PQ != 0: range overlap {overlap:.3e} exceeds {_PROJ_TOL:.1e}")
    if Vp.size and Vq.size:
        # Re-orthogonalize Q's basis against P so the block basis is exactly
        # orthogonal despite roundoff in the inputs.
        Vq = _orthonormal_columns(Vq - Vp @ (Vp.conj().T @ Vq))
    if middle_basis is not None:
        Vm = np.asarray(middle_basis)
        if Vm.shape != (dim, dim - Vp.shape[1] - Vq.shape[1]):
            raise ValidationError("middle basis has wrong shape")
    else:
        stacked = np.hstack([Vp, Vq]) if (Vp.size or Vq.size) else np.zeros((dim, 0), dtype=dtype)
        if stacked.shape[1] == 0:
            Vm = np.eye(dim, dtype=dtype)
        else:
            Vm = null_space(stacked.conj().T)
    if Vp.shape[1] + Vq.shape[1] + Vm.shape[1] != dim:
        raise CondenserError("block ranks do not sum to the ambient dimension")
    return Condenser(dim, Vp, Vq, Vm)


@dataclass(frozen=True)
class ContractionVariable:
    """Feasible variable: a selfadjoint middle block with spectrum in [0, 1]."""

    condenser: Condenser
    middle: np.ndarray

    def __post_init__(self):
        m0 = self.condenser.m0
        if self.middle.shape != (m0, m0):
            raise ValidationError(f"middle block must be {m0} x {m0}")
        if m0:
            if not _is_hermitian(self.middle, rtol=1e-10):
                raise ValidationError("middle block must be selfadjoint")
            # a diagonal block's eigenvalues are its diagonal
            d = np.diagonal(self.middle)
            diagonal = np.count_nonzero(self.middle) == np.count_nonzero(d)
            w = d.real if diagonal else np.linalg.eigvalsh(_herm(self.middle))
            if w.min() < -1e-10 or w.max() > 1 + 1e-10:
                raise ValidationError("middle block spectrum leaves [0, 1]")

    def feasibility_residuals(self):
        """Frobenius norms of AP - P and AQ for A = embed(self) (the plate
        constraints) and how far the spectrum of B0 leaves [0, 1]."""
        P, Q, A = self.condenser.P, self.condenser.Q, embed(self)
        return self.residuals(np.linalg.norm(A @ P - P), np.linalg.norm(A @ Q),
                              np.linalg.eigvalsh(_herm(self.middle)))

    @staticmethod
    def residuals(ap_minus_p, aq, w):
        """The ``feasibility_residuals`` dict of the plate residuals and the
        spectrum w of B0."""
        return {"AP_minus_P": float(ap_minus_p), "AQ": float(aq),
                "eig_below_0": float(max(0.0, -w.min(initial=0.0))),
                "eig_above_1": float(max(0.0, w.max(initial=1.0) - 1.0))}


def _fixed_variable(cond):
    """The one candidate of a condenser with nothing to optimize, else None:
    with m0 = 0, A = P is the only feasible point, and with P = 0, A = 0 is
    feasible and commutes with every tuple. Its middle block is zero."""
    if cond.m0 == 0 or cond.rank_p == 0:
        return ContractionVariable(cond, np.zeros((cond.m0, cond.m0), dtype=cond.basis_mid.dtype))
    return None


def embed(variable):
    """Full-space matrix A = P (+) B0 (+) 0 of a feasible variable."""
    return variable.condenser.embed_middle(variable.middle)


def project_middle(condenser, B_raw):
    """Metric projection of a raw middle block onto {0 <= B <= I} (selfadjoint)."""
    B = _herm(B_raw)
    if B.shape[0] == 0:
        return B
    w, V = np.linalg.eigh(B)
    np.clip(w, 0.0, 1.0, out=w)
    return (V * w) @ V.conj().T


def _middle_linear_min(G):
    """min of Re <G, B0> over the middle blocks 0 <= B0 <= I, G selfadjoint:
    the sum of G's negative eigenvalues (B0 the projection onto their
    eigenvectors attains it)."""
    return float(np.minimum(np.linalg.eigvalsh(G), 0.0).sum())


def _middle_starts(cond, divisor):
    """The center 0.5 I of the middle blocks and the draw of a further start
    from an rng: the projected perturbation 0.5 I + 0.35 herm(W) / divisor,
    W standard Gaussian (complex on a complex condenser, real part drawn first)."""
    center = 0.5 * np.eye(cond.m0, dtype=complex if cond.is_complex else float)

    def draw(rng):
        W = rng.standard_normal(center.shape)
        if cond.is_complex:
            W = W + 1j * rng.standard_normal(center.shape)
        return project_middle(cond, center + 0.35 * _herm(W) / divisor)

    return center, draw


def commutator(A, T, t):
    """[A, T] = A T - T A.

    When T is the real diagonal matrix diag(t) and A is real, the products
    are formed by broadcasting in O(d^2). Each entry is then the one product
    the dense matmul adds to exact zeros, so both forms agree bit for bit
    (up to the sign of a zero entry).
    """
    if t is not None and not np.iscomplexobj(A):
        return A * t - t[:, None] * A
    return A @ T - T @ A


def _support(cond):
    """S, the sorted nonzero rows of ``basis_p`` and ``basis_mid``: every
    feasible A = P (+) B0 (+) 0 is zero outside S x S."""
    return np.flatnonzero(np.any(cond.basis_p != 0, axis=1) | np.any(cond.basis_mid != 0, axis=1))


def commutator_blocks(tau, cond):
    """Per component T_j, the block outside which [A, T_j] vanishes for every
    feasible A = P (+) B0 (+) 0, as an ``np.ix_`` index pair (rows, columns),
    or None when it is the whole matrix.

    A is zero outside S x S (``_support``), so A T_j lives in the rows S and
    the columns that the rows S of T_j reach, and T_j A in the columns S and
    the rows that the columns S of T_j reach. Those entries of a computed
    commutator are exact zeros, and the block's singular values are the
    nonzero ones of [A, T_j]. The block is S x S where T_j and T_j^* map S
    into S, so on a dense basis (S everything) every block is None.
    """
    S = _support(cond)
    blocks = []
    for T in tau.components:
        rows = np.union1d(S, np.flatnonzero(np.any(T[:, S] != 0, axis=1)))
        cols = np.union1d(S, np.flatnonzero(np.any(T[S, :] != 0, axis=0)))
        whole = rows.size == cond.dim and cols.size == cond.dim
        blocks.append(None if whole else np.ix_(rows, cols))
    return blocks


def commutators(tau, A):
    """Per-component commutators [A, T_j] = A T_j - T_j A."""
    return [commutator(A, T, t) for T, t in zip(tau.components, tau.diagonals)]


def objective(tau, A, specs):
    """max_j of the J_j-norm of [A, T_j]; a single spec is broadcast."""
    specs = spec_list(specs, tau.n)
    return max(matrix_norm(C, sp) for C, sp in zip(commutators(tau, A), specs))
