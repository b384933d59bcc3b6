"""Rearrangement-invariant norms of sequences and matrices, with subgradients.

Supported families:

* ``schatten``    -- (sum_j s_j^p)^(1/p), p >= 1
* ``lorentz_p1``  -- sum_j j^(-1+1/p) s*_j, p >= 1 (weighted by rank)
* ``macaev``      -- sum_j s*_j / j (the p = infinity Lorentz weights)
* ``weights``     -- an explicit nonincreasing nonnegative weight sequence

where s* denotes the nonincreasing rearrangement of the absolute values.
Matrix norms apply the sequence norm to singular values; subgradients align a
weight subgradient of the sequence norm with the singular vectors, so that for
every N

    norm(N) >= norm(M) + Re trace(G^* (N - M)).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError, NumericError

_KINDS = ("schatten", "lorentz_p1", "macaev", "weights")


@dataclass(frozen=True)
class NormSpec:
    """Description of a rearrangement-invariant norm.

    ``p`` is required for ``schatten`` and ``lorentz_p1``; ``weights`` is
    required for kind ``weights`` and must be nonincreasing and nonnegative.
    """

    kind: str
    p: float | None = None
    weights: tuple | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown norm kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind in ("schatten", "lorentz_p1"):
            if self.p is None or not np.isfinite(self.p) or self.p < 1:
                raise ValidationError(f"{self.kind} norm requires p >= 1, got {self.p!r}")
        if self.kind == "weights":
            if self.weights is None or len(self.weights) == 0:
                raise ValidationError("kind=weights requires a nonempty weight sequence")
            w = np.asarray(self.weights, dtype=float)
            if np.any(w < 0) or np.any(np.diff(w) > 0):
                raise ValidationError("weights must be nonnegative and nonincreasing")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))

    # -- convenience constructors -------------------------------------------------
    @staticmethod
    def schatten(p):
        return NormSpec("schatten", p=float(p))

    @staticmethod
    def lorentz(p):
        return NormSpec("lorentz_p1", p=float(p))

    @staticmethod
    def macaev():
        return NormSpec("macaev")

    @staticmethod
    def from_weights(w):
        return NormSpec("weights", weights=tuple(float(x) for x in w))

    # -- JSON ----------------------------------------------------------------------
    def to_json(self):
        obj = {"kind": self.kind}
        if self.p is not None:
            obj["p"] = float(self.p)
        if self.weights is not None:
            obj["weights"] = list(self.weights)
        return obj

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError('norm JSON must be an object with a "kind" field')
        kind = obj["kind"]
        kwargs = {}
        if "p" in obj and obj["p"] is not None:
            kwargs["p"] = float(obj["p"])
        if "weights" in obj and obj["weights"] is not None:
            kwargs["weights"] = tuple(float(x) for x in obj["weights"])
        return NormSpec(kind, **kwargs)


def induced_weights(spec, n):
    """First ``n`` weights of a weighted-sum norm; ``None`` for schatten.

    Schatten norms are not weighted sums of the rearrangement, so callers must
    branch on ``spec.kind``.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if spec.kind == "schatten":
        return None
    j = np.arange(1, n + 1, dtype=float)
    if spec.kind == "lorentz_p1":
        return j ** (-1.0 + 1.0 / spec.p)
    if spec.kind == "macaev":
        return 1.0 / j
    if n > len(spec.weights):
        raise ValidationError(
            f"requested {n} weights but the explicit sequence has {len(spec.weights)}"
        )
    return np.asarray(spec.weights[:n], dtype=float)


@lru_cache(maxsize=64)
def _eval_weights(spec, n):
    """Weights for a length-n sorted sequence (an explicit sequence shorter
    than n is padded with zeros); cached, read-only."""
    m = min(n, len(spec.weights)) if spec.kind == "weights" else n
    w = np.zeros(n)
    if m > 0:
        w[:m] = induced_weights(spec, m)
    w.flags.writeable = False
    return w


def vector_norm(s, spec):
    """RI norm of a sequence; general inputs pass through absolute value."""
    s = np.abs(np.asarray(s)).astype(float)
    if s.size == 0:
        return 0.0
    # Summation happens in sorted order so rearrangement invariance is exact
    # in floating point, not just up to roundoff.
    srt = np.sort(s)[::-1]
    if spec.kind == "schatten":
        if spec.p == 1:
            return float(np.sum(srt))
        if spec.p == 2:
            return float(np.sqrt(np.sum(srt * srt)))
        return float(np.sum(srt ** spec.p) ** (1.0 / spec.p))
    w = _eval_weights(spec, srt.size)
    return float(w @ srt)


def dual_norm(y, spec):
    """The dual norm sup { |<y, x>| : vector_norm(x) <= 1 } of a sequence:
    l_q with 1/p + 1/q = 1 for Schatten-p, and max_k of the partial sums of
    the sorted |y| over those of the weights for a weighted norm (infinite
    for all-zero weights, whose gauge vanishes)."""
    a = np.abs(np.asarray(y)).astype(float)
    if a.size == 0 or a.max() == 0.0:
        return 0.0
    srt = np.sort(a)[::-1]
    if spec.kind == "schatten":
        if spec.p == 1:
            return float(srt[0])
        q = spec.p / (spec.p - 1.0)
        return float(np.sum(srt ** q) ** (1.0 / q))
    w = _eval_weights(spec, a.size)
    if w[0] == 0.0:
        return np.inf
    sw = np.cumsum(w)
    c = np.max(np.cumsum(srt) / sw)
    # c carries the roundoff of two running sums, which grows with the length.
    # Refine it as c * (1 + sum(srt / c - w) / sum(w)): near the maximum the
    # terms srt / c - w are small (a tie-averaged subgradient's are ~0), so
    # their running sum rounds far less, and c times the factor stays within
    # a few ulps of the exact ratio.
    return float(c * np.max(1.0 + np.cumsum(srt / c - w) / sw))


def matrix_norm(M, spec):
    """RI norm of a matrix, computed from its singular values."""
    try:
        s = np.linalg.svd(np.asarray(M), compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NumericError(f"singular value computation failed: {exc}") from exc
    return vector_norm(s, spec)


def _tie_averaged(values_sorted, w):
    """Average weights over groups of exactly equal sorted values, each by
    ``ndarray.mean``'s own pairwise sum and division, without its overhead."""
    out = np.array(w, dtype=float)
    v = np.asarray(values_sorted)
    # group boundaries: 0, every index where the value changes, n
    bounds = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1], [True])))
    tied = np.flatnonzero(np.diff(bounds) > 1)
    for lo, hi in zip(bounds[tied].tolist(), bounds[tied + 1].tolist()):
        out[lo:hi] = np.add.reduce(out[lo:hi]) / (hi - lo)
    return out


def norm_subgradient(M, spec):
    """Matrix G with norm(N) >= norm(M) + Re trace(G^*(N-M)) for all N: U d V*
    for M = U diag(s) V* and d the ``vector_norm`` subgradient at s.

    Weight ties across equal singular values are averaged, and zero singular
    values get weight 0, which makes the result independent of the SVD basis
    chosen inside tied blocks.
    """
    try:
        U, s, Vh = np.linalg.svd(np.asarray(M), full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"SVD failed: {exc}") from exc
    return (U * _vector_subgradient(s, spec)) @ Vh


def _vector_subgradient(v, spec, norm=None):
    """Subgradient of ``vector_norm`` at a real or complex vector v: the gauge
    subgradient d at |v| (Schatten: entrywise (|v| / norm)^(p - 1), so |v|
    needs no sorting; weighted norms: the weights, tie-averaged, at the rank
    of each entry), times the phase of v (0 where v = 0). ``norm`` is
    vector_norm(v, spec) when the caller already has it, which spares the
    Schatten gauge a sort."""
    v = np.asarray(v)
    a = np.abs(v)
    if a.size == 0 or a.max() == 0.0:
        return np.zeros_like(v, dtype=float if not np.iscomplexobj(v) else complex)
    if spec.kind != "schatten":
        # the zero group sorts last and its phase is 0: average only the rest
        order = np.argsort(-a, kind="stable")
        srt = a[order]
        nz = np.count_nonzero(srt)
        d = np.zeros(a.size)
        d[order[:nz]] = _tie_averaged(srt[:nz], _eval_weights(spec, a.size)[:nz])
    elif spec.p == 1:
        d = np.ones(a.size)
    else:
        d = (a / (vector_norm(a, spec) if norm is None else norm)) ** (spec.p - 1.0)
        if spec.p > 2:
            # the power p - 1 > 1 magnifies the rounding of the norm and can put
            # d several ulps outside the dual unit ball: rescale d onto it
            d /= dual_norm(d, spec)
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = np.where(a > 0, v / np.where(a > 0, a, 1.0), 0.0)
    return d * phase


def spec_list(specs, n):
    """Normalize a single spec or per-component list to a list of length n."""
    if isinstance(specs, NormSpec):
        return [specs] * n
    specs = list(specs)
    if len(specs) != n:
        raise ValidationError(f"expected {n} norm specs, got {len(specs)}")
    for s in specs:
        if not isinstance(s, NormSpec):
            raise ValidationError("norm spec list must contain NormSpec instances")
    return specs
