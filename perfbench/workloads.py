"""The benchmark's workloads: inputs made from the seed, operations, checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. An operation is one solve or one CLI run.
Operations are grouped into units (a fixed mix of operations) so that every
run measures the same mix however many units fit in its time.

Every qcmod function is looked up on its module at call time
(``qcmod.solve_condenser``, ``qcmod.cli.main``), so the tracer's wrappers
see these calls too. The 1-D oracle and the weak-duality bound are computed
here with numpy alone, and so is the first-order (Euler-Lagrange)
certificate of the smooth p-Laplace minimizers; the harmonic oracle is
qcmod's own.
"""

import json
import os

import numpy as np

import qcmod
import qcmod.cayley
import qcmod.cli
import qcmod.experiments
import qcmod.plaplace


def _hermitian(rng, d):
    W = rng.standard_normal((d, d))
    return 0.5 * (W + W.T)


def _tridiag_oracle(T):
    """Exact min over t in [0, 1] of |[diag(1, t, 0), T]|_2 (Schatten-2).

    The commutator is affine in t, so its squared Frobenius norm is a convex
    quadratic whose minimizer over [0, 1] has a closed form.
    """
    E0 = np.diag([1.0, 0.0, 0.0])
    E1 = np.diag([0.0, 1.0, 0.0])
    C0 = E0 @ T - T @ E0
    C1 = E1 @ T - T @ E1
    a = float(np.sum(C1 * C1))
    t = min(max(-float(np.sum(C0 * C1)) / a, 0.0), 1.0) if a > 0 else 0.0
    return float(np.sqrt(np.sum((C0 + t * C1) ** 2)))


def _smooth_grad(Ts, X, p):
    """Value and gradient of I(X) = tr(S^(p/2)), S = -sum_j [X, T_j]^2.

    With C_j = X T_j - T_j X and M_j = C_j G + G C_j, G = S^(p/2 - 1), the
    derivative along H is -(p/2) sum_j tr((T_j M_j - M_j T_j) H).
    """
    Cs = [X @ T - T @ X for T in Ts]
    S = -sum(C @ C for C in Cs)
    w, V = np.linalg.eigh(0.5 * (S + S.conj().T))
    w = np.clip(w, 0.0, None)
    G = (V * w ** (p / 2.0 - 1.0)) @ V.conj().T
    grad = np.zeros_like(S)
    for T, C in zip(Ts, Cs):
        M = C @ G + G @ C
        grad = grad - (p / 2.0) * (T @ M - M @ T)
    return float(np.sum(w ** (p / 2.0))), 0.5 * (grad + grad.conj().T)


def first_order_certificate(Ts, P, Q, p, X, value, eps1=1e-6):
    """None if X is a first-order minimizer of the smooth p-Laplace problem,
    else a message.

    The feasible set is 0 <= X <= I with X P = P and X Q = 0. P1 / Q1 are the
    spectral projections of X for eigenvalues within eps1 of 1 / 0. X is
    optimal when no feasible direction decreases I: with g the gradient,
    (I - P - Q1) g (I - P - Q1) <= 0 (X may only decrease there),
    (I - P1 - Q) g (I - P1 - Q) >= 0 (X may only increase there) and
    (I - P1 - Q1) g (I - P1 - Q1) = 0, each within 1e-6 ||g||_op. The
    reported value must be I(X).
    """
    d = X.shape[0]
    I = np.eye(d)
    w, V = np.linalg.eigh(X)
    if w.min() < -1e-9 or w.max() > 1 + 1e-9:
        return f"minimizer eigenvalues {w.min()!r}, {w.max()!r} leave [0, 1]"
    res = max(np.linalg.norm(X @ P - P), np.linalg.norm(X @ Q))
    if res > 1e-9:
        return f"minimizer misses X P = P, X Q = 0 by {res!r}"
    V1, V0 = V[:, w >= 1.0 - eps1], V[:, w <= eps1]
    P1, Q1 = V1 @ V1.conj().T, V0 @ V0.conj().T
    f, g = _smooth_grad(Ts, X, p)
    if abs(f - value) > 1e-9 * max(1.0, abs(f)):
        return f"reported value {value!r} differs from I(minimizer) = {f!r}"
    delta = 1e-6 * max(np.linalg.norm(g, 2), 1e-300)
    e_dec = np.linalg.eigvalsh((I - P - Q1) @ g @ (I - P - Q1))
    e_inc = np.linalg.eigvalsh((I - P1 - Q) @ g @ (I - P1 - Q))
    e_mid = np.linalg.eigvalsh((I - P1 - Q1) @ g @ (I - P1 - Q1))
    if e_dec.max() > delta or e_inc.min() < -delta or np.abs(e_mid).max() > delta:
        return (f"first-order certificate failed: max {e_dec.max()!r}, min {e_inc.min()!r}, "
                f"max abs {np.abs(e_mid).max()!r} against {delta!r}")
    return None


class SmallBatch:
    """Same-shape small solves: 3x3 condenser solves and 8-dim smooth solves.

    One unit: 12 single-start 3x3 Schatten-2 solves, 5 three-restart 3x3
    solves, and one 8-dim two-component smooth solve at each p in {2, 3, 4}.
    Options follow acceptance criteria 9 (3x3) and 7 (smooth).
    """

    name = "small_batch"
    POOL_UNITS = 32  # instances repeat after this many units
    R1, R3, P_LIST = 12, 5, (2.0, 3.0, 4.0)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.qcmod_el_rejections = 0  # see CayleyTransfer.check
        self.cond3 = qcmod.make_condenser([0], [2], dim=3)
        self.cond8 = qcmod.make_condenser([0], [7], dim=8)
        self.spec = qcmod.NormSpec.schatten(2)
        self.fast = qcmod.SolveOptions(max_iters=150, tol=1e-6, seed=seed, restarts=1)
        self.multi = qcmod.SolveOptions(max_iters=150, tol=1e-6, seed=seed, restarts=3)
        self.smooth = qcmod.SolveOptions(max_iters=20000, tol=1e-12, seed=seed, restarts=1)
        self.pool = []
        for _ in range(self.POOL_UNITS):
            r1 = [qcmod.OperatorTuple.of([_hermitian(rng, 3)]) for _ in range(self.R1)]
            r3 = [qcmod.OperatorTuple.of([_hermitian(rng, 3)]) for _ in range(self.R3)]
            sm = [qcmod.SmoothProblem(
                qcmod.OperatorTuple.of([_hermitian(rng, 8), _hermitian(rng, 8)]), self.cond8, p)
                for p in self.P_LIST]
            self.pool.append((r1, r3, sm))
        self.warm = (qcmod.OperatorTuple.of([_hermitian(rng, 3)]),
                     qcmod.SmoothProblem(qcmod.OperatorTuple.of(
                         [_hermitian(rng, 8), _hermitian(rng, 8)]), self.cond8, 3.0))

    def warmup(self):
        tau, prob = self.warm
        qcmod.solve_condenser(tau, self.cond3, self.spec, self.multi)
        qcmod.plaplace.minimize_smooth(prob, self.smooth)

    def unit(self, i):
        r1, r3, sm = self.pool[i % self.POOL_UNITS]
        ops = []
        for tau in r1:
            ops.append(("solve3", tau, lambda tau=tau: qcmod.solve_condenser(
                tau, self.cond3, self.spec, self.fast)))
        for tau in r3:
            ops.append(("solve3_restarts3", tau, lambda tau=tau: qcmod.solve_condenser(
                tau, self.cond3, self.spec, self.multi)))
        for prob in sm:
            ops.append(("smooth8", prob, lambda prob=prob: qcmod.plaplace.minimize_smooth(
                prob, self.smooth)))
        return ops

    def check(self, kind, inp, rep):
        if kind == "smooth8":
            if not qcmod.plaplace.euler_lagrange_report(inp, rep.minimizer).passed:
                self.qcmod_el_rejections += 1
            return first_order_certificate(inp.tau.components, inp.condenser.P, inp.condenser.Q,
                                           inp.p, qcmod.embed(rep.minimizer), rep.value)
        oracle = _tridiag_oracle(inp.components[0])
        opts = self.fast if kind == "solve3" else self.multi
        if abs(rep.value - oracle) > 2 * opts.tol * max(1.0, oracle):
            return f"value {rep.value!r} differs from the 1-D oracle {oracle!r}"
        vals = rep.extra["restart_values"]
        if max(vals) - min(vals) > 10 * opts.tol * max(1.0, rep.value):
            return f"restart values disagree: {vals}"
        return None


class Gamma1Dense:
    """One gamma1 time-frequency Schatten-1 solve at N = 128 (d = 128, m0 = 58).

    Options follow acceptance criterion 10. The check bounds the value from
    below by weak duality, computed here from the returned minimizer.
    """

    name = "gamma1_dense"
    N = 128

    def __init__(self, seed, workdir):
        ex = qcmod.experiments
        self.tau, self.cond = ex.timefreq_problem(
            self.N, ex.default_M_rule(self.N), ex.default_K_rule(self.N))
        self.spec = qcmod.NormSpec.schatten(1)
        self.opts = qcmod.SolveOptions(max_iters=500, tol=1e-7, seed=seed, restarts=1)
        self.warm_opts = qcmod.SolveOptions(max_iters=2, tol=1e-7, seed=seed, restarts=1, refine=False)
        self.gaps = []  # relative weak-duality gap of each checked solve

    def warmup(self):
        qcmod.solve_condenser(self.tau, self.cond, self.spec, self.warm_opts)

    def unit(self, i):
        return [("gamma1_solve", None,
                 lambda: qcmod.solve_condenser(self.tau, self.cond, self.spec, self.opts))]

    def _lower_bound(self, rep):
        """tr(Z P) + sum(min(eig(Vm* Z Vm), 0)) with Y the trace-norm subgradient
        U V* of [A, T] and Z = herm(T Y* - Y* T); exact weak duality for n = 1."""
        T = self.tau.components[0]
        Vm = self.cond.basis_mid
        Vp = self.cond.basis_p
        A = Vp @ Vp.T + Vm @ rep.minimizer.middle @ Vm.T
        U, _, Vh = np.linalg.svd(A @ T - T @ A, full_matrices=False)
        Ys = (U @ Vh).conj().T
        Z = T @ Ys - Ys @ T
        Z = 0.5 * (Z + Z.conj().T)
        w = np.linalg.eigvalsh(Vm.T @ Z @ Vm)
        return float(np.trace(Vp.T @ Z @ Vp)) + float(np.minimum(w, 0.0).sum())

    def check(self, kind, inp, rep):
        bad = {k: v for k, v in rep.feasibility_residuals.items() if not v <= 1e-9}
        if bad:
            return f"feasibility residuals too large: {bad}"
        lower = self._lower_bound(rep)
        if lower > rep.value * (1.0 + 1e-12):
            return f"weak-duality bound {lower!r} exceeds the value {rep.value!r}"
        self.gaps.append((rep.value - lower) / rep.value)
        return None


class CayleyTransfer:
    """Three in-process CLI runs per unit: graphcap on Z^3 R = 14 (Schatten-2),
    transfer on F2 R = 3 (Lorentz(2,1), one restart), and plaplace on a
    seeded 8-dim two-component tuple at p = 2, 3 or 4 in turn."""

    name = "cayley_transfer"
    # cap of the F2 R = 3 Lorentz(2,1) transfer at the commit that defined the
    # benchmark; the exact value is 1/2 + 1/sqrt(2).
    F2_LORENTZ_CAP = 1.7071067827684
    P_LIST = (2.0, 3.0, 4.0)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.qcmod_el_rejections = 0
        self.seed = seed
        self.workdir = workdir
        z3 = {"kind": "Z^d", "d": 3}
        f2 = {"kind": "free", "k": 2}
        s2 = {"kind": "schatten", "p": 2}
        lorentz = {"kind": "lorentz_p1", "p": 2}
        self.graphcap = json.dumps({"group": z3, "R": 14, "x1": "origin", "norm": s2})
        self.transfer = json.dumps({"group": f2, "R": 3, "x1": "origin", "x2": {"sphere": 3},
                                    "norm": lorentz, "options": {"restarts": 1}})
        self.smooth_inputs = [([_hermitian(rng, 8) for _ in range(2)], p) for p in self.P_LIST]
        self.plaplace = [json.dumps({
            "tuple": {"components": [{"re": T.tolist()} for T in Ts], "selfadjoint": [True, True]},
            "P": {"basis_indices": [0]}, "Q": {"basis_indices": [7]}, "p": p})
            for Ts, p in self.smooth_inputs]
        self.PQ = (np.diag(np.eye(8)[0]), np.diag(np.eye(8)[7]))
        self.warm = [
            ("graphcap", json.dumps({"group": z3, "R": 3, "x1": "origin", "norm": s2})),
            ("transfer", json.dumps({"group": f2, "R": 2, "x1": "origin", "x2": {"sphere": 2},
                                     "norm": lorentz, "options": {"restarts": 1}})),
            ("plaplace", self.plaplace[0]),
        ]
        self.z3_ball = qcmod.build_ball(qcmod.cayley.GroupSpec("zd", d=3), 14, X1="origin")
        self._oracle = None

    def _cli(self, command, payload, out):
        return lambda: (qcmod.cli.main([command, "--inline", payload, "--out", out,
                                        "--seed", str(self.seed)]), out)

    def warmup(self):
        for k, (command, payload) in enumerate(self.warm):
            rc, _ = self._cli(command, payload, os.path.join(self.workdir, f"warm{k}"))()
            if rc != 0:
                raise RuntimeError(f"warm-up {command} exited with {rc}")

    def unit(self, i):
        out = os.path.join(self.workdir, f"unit{i}")
        plaplace = self.plaplace[i % len(self.plaplace)]
        return [
            ("graphcap", None, self._cli("graphcap", self.graphcap, out + "_graphcap")),
            ("transfer", None, self._cli("transfer", self.transfer, out + "_transfer")),
            ("plaplace", i % len(self.plaplace), self._cli("plaplace", plaplace, out + "_plaplace")),
        ]

    def check(self, kind, inp, result):
        rc, out = result
        if rc != 0:
            return f"qcmod {kind} exited with {rc}"
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        if kind == "graphcap":
            if self._oracle is None:
                self._oracle = qcmod.harmonic_capacity_oracle(self.z3_ball)["capacity"]
            value = report["value_upper"]
            if abs(value - self._oracle) > 1e-6 * self._oracle:
                return f"capacity {value!r} differs from the harmonic oracle {self._oracle!r}"
            return None
        if kind == "plaplace":
            # qcmod's own certificate (report["euler_lagrange"]["checks"]) compares
            # Theta, which is -(2/p) times the gradient, with the signs that hold
            # for the gradient. It rejects true minimizers whose spectrum touches
            # 0 or 1 outside Q or P, so it is counted, not used as the check.
            if not all(report["euler_lagrange"]["checks"].values()):
                self.qcmod_el_rejections += 1
            Ts, p = self.smooth_inputs[inp]
            X = np.asarray(report["minimizer"]["re"], dtype=float)
            return first_order_certificate(Ts, *self.PQ, p, X, report["value_upper"])
        comp = report["comparisons"][0]
        if not comp["inequality_ok"]:
            return f"transfer inequality k <= cap failed: {comp}"
        if abs(comp["cap"] - self.F2_LORENTZ_CAP) > 1e-6 * self.F2_LORENTZ_CAP:
            return f"cap {comp['cap']!r} differs from the pinned {self.F2_LORENTZ_CAP!r}"
        return None


WORKLOADS = {w.name: w for w in (SmallBatch, Gamma1Dense, CayleyTransfer)}
