import numpy as np
import pytest

from qcmod import _solvers
from qcmod.operator_core import OperatorTuple, make_condenser


def rand_hermitian(rng, d, complex_=False):
    W = rng.standard_normal((d, d))
    if complex_:
        W = W + 1j * rng.standard_normal((d, d))
    return 0.5 * (W + W.conj().T)


def rand_unitary(rng, d, complex_=False):
    W = rng.standard_normal((d, d))
    if complex_:
        W = W + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(W)
    return Q * np.sign(np.real(np.diag(R)))


def window_bounds(monkeypatch):
    """The window bound L (the fifth result) of every ``projected_subgradient``
    run, filled in as the solves run."""
    bounds = []
    engine = _solvers.projected_subgradient

    def recorded(*args, **kwargs):
        out = engine(*args, **kwargs)
        bounds.append(out[4])
        return out

    monkeypatch.setattr(_solvers, "projected_subgradient", recorded)
    return bounds


def subgradient_runs(monkeypatch):
    """(fg, project, result) of every ``projected_subgradient`` run, filled in
    as the solves run."""
    runs = []
    engine = _solvers.projected_subgradient

    def recorded(fg, project, *args, **kwargs):
        runs.append((fg, project, engine(fg, project, *args, **kwargs)))
        return runs[-1][2]

    monkeypatch.setattr(_solvers, "projected_subgradient", recorded)
    return runs


@pytest.fixture
def tridiag_example():
    """The 3-dim path-graph example: T = tridiag ones, P = e1, Q = e3.

    Feasible set is {A = diag(1, t, 0)}; the commutator has singular values
    (s, s, 0) with s = sqrt((1-t)^2 + t^2).
    """
    T = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
    tau = OperatorTuple.of([T])
    cond = make_condenser([0], [2], dim=3)
    return tau, cond


def scalar_grid_oracle(f, grid=20001, lo=0.0, hi=1.0):
    """Independent 1-D minimizer: dense grid scan plus golden-section refine."""
    ts = np.linspace(lo, hi, grid)
    vals = [f(t) for t in ts]
    i = int(np.argmin(vals))
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, grid - 1)]
    phi = (np.sqrt(5) - 1) / 2
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(200):
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    t_star = 0.5 * (a + b)
    return f(t_star), t_star


def tridiag_oracle(spec, grid=20001):
    """1-D oracle for the tridiag example: the feasible set is diag(1, t, 0).

    Evaluates the objective by raw SVD of the assembled commutator; no solver
    code on this path.
    """
    T = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def f(t):
        A = np.diag([1.0, t, 0.0])
        C = A @ T - T @ A
        s = np.linalg.svd(C, compute_uv=False)
        if spec.kind == "schatten":
            return float(np.sum(s ** spec.p) ** (1.0 / spec.p))
        # weighted kinds: sorted singular values against the induced weights
        from qcmod.ri_norms import induced_weights

        w = induced_weights(spec, len(s))
        return float(np.sort(s)[::-1] @ w)

    return scalar_grid_oracle(f, grid=grid)
