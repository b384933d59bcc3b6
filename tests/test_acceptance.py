"""Acceptance gate: every criterion at its stated tolerance, one line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Criterion 10 is a SOFT diagnostic: its report must be produced and archived,
but an out-of-band ratio does not fail the build.
"""

import json
import os
import time

import numpy as np
import pytest

from qcmod.cayley import (
    GroupSpec,
    build_ball,
    graph_capacity,
    harmonic_capacity_oracle,
    parabolicity_scan,
    total_variation_capacity_lp,
    verify_transfer,
)
from qcmod.condenser_solver import SolveOptions, solve_condenser
from qcmod.experiments import gamma1_experiment
from qcmod.jsonio import write_json
from qcmod.operator_core import (
    OperatorTuple,
    commutators,
    embed,
    make_condenser,
    project_middle,
)
from qcmod.plaplace import (
    SmoothProblem,
    euler_lagrange_report,
    minimize_smooth,
    theta,
    uniqueness_probe,
)
from qcmod.ri_norms import NormSpec, matrix_norm, vector_norm

from conftest import rand_hermitian, rand_unitary, tridiag_oracle

Z = GroupSpec("zd", d=1)
Z2 = GroupSpec("zd", d=2)
Z3 = GroupSpec("zd", d=3)
F2 = GroupSpec("free", k=2)



def report(line):
    print(f"\n[acceptance] {line}")


# ----------------------------------------------------------------------------------
# 1. 3-dim tridiagonal condenser vs the 1-D grid-search oracle.
# ----------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,closed_form",
    [
        (NormSpec.schatten(2), 1.0),
        (NormSpec.schatten(1), np.sqrt(2.0)),
        (NormSpec.lorentz(2), 0.5 + 2 ** -0.5),
    ],
    ids=["schatten2", "schatten1", "lorentz21"],
)
def test_criterion_1_tridiag_oracle(tridiag_example, spec, closed_form):
    tau, cond = tridiag_example
    oracle_value, _ = tridiag_oracle(spec, grid=4001)
    assert oracle_value == pytest.approx(closed_form, rel=1e-9)
    t0 = time.perf_counter()
    rep = solve_condenser(tau, cond, spec, SolveOptions(max_iters=2000, tol=1e-9, seed=1, restarts=2))
    elapsed = time.perf_counter() - t0
    rel = abs(rep.value - oracle_value) / oracle_value
    assert rel <= 1e-6
    assert elapsed < 1.0
    report(f"criterion 1 [{spec.kind} p={spec.p}]: PASS value={rep.value:.9f} rel={rel:.1e} t={elapsed:.2f}s")


# ----------------------------------------------------------------------------------
# 2. Trace-norm capacity on the line at R = 50 vs the LP oracle.
# ----------------------------------------------------------------------------------


def test_criterion_2_line_trace_norm_R50():
    t0 = time.perf_counter()
    ball = build_ball(Z, 50, X1="origin")
    lp = total_variation_capacity_lp(ball)
    rep = graph_capacity(ball, NormSpec.schatten(1), SolveOptions(max_iters=2000, tol=1e-9, seed=3, restarts=1))
    elapsed = time.perf_counter() - t0
    assert lp == pytest.approx(2.0, abs=1e-9)
    assert abs(rep.value - 2.0) <= 1e-6 * 2.0
    assert elapsed < 5.0
    report(f"criterion 2: PASS value={rep.value:.9f} lp={lp:.9f} t={elapsed:.2f}s")


# ----------------------------------------------------------------------------------
# 3. Frobenius capacity vs the discrete-harmonic oracle on Z, Z^2, Z^3.
# ----------------------------------------------------------------------------------


def test_criterion_3_harmonic_oracles():
    t0 = time.perf_counter()
    opts = SolveOptions(max_iters=1500, tol=1e-8, seed=3, restarts=1)
    for grp, R in ((Z, 32), (Z2, 16), (Z3, 10)):
        ball = build_ball(grp, R, X1="origin")
        oracle = harmonic_capacity_oracle(ball)
        rep = graph_capacity(ball, NormSpec.schatten(2), opts)
        rel = abs(rep.value - oracle["capacity"]) / oracle["capacity"]
        assert rel <= 1e-6, f"Z^{grp.d} R={R}: rel={rel}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"criterion 3: PASS (Z R=32, Z2 R=16, Z3 R=10 all <= 1e-6 rel) t={elapsed:.1f}s")


# ----------------------------------------------------------------------------------
# 4. Parabolicity trends: Z vanishes with exponent -1/2, Z^3 stabilizes.
# ----------------------------------------------------------------------------------


def test_criterion_4_parabolicity_trends():
    t0 = time.perf_counter()
    opts = SolveOptions(max_iters=1500, tol=1e-8, seed=3, restarts=1)
    scan_z = parabolicity_scan(Z, 2.0, "origin", [25, 50, 100, 200], opts)
    classical_at_200 = scan_z["entries"][-1]["value_classical"]
    assert classical_at_200 < 0.05  # classical p-capacity (norm value squared)
    assert scan_z["fit_exponent"] == pytest.approx(-0.5, abs=0.1)  # norm-series exponent
    assert scan_z["classification"] == "vanishing"

    scan_z3 = parabolicity_scan(Z3, 2.0, "origin", [6, 10, 14], opts)
    v10 = next(e["value"] for e in scan_z3["entries"] if e["R"] == 10)
    v14 = next(e["value"] for e in scan_z3["entries"] if e["R"] == 14)
    assert abs(v14 - v10) / v10 <= 0.05
    assert v10 > 0.1 and v14 > 0.1
    assert scan_z3["classification"] == "positive"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        "criterion 4: PASS "
        f"(Z classical cap at R=200 = {classical_at_200:.4f} < 0.05, exponent {scan_z['fit_exponent']:.3f}; "
        f"Z3 values {v10:.3f}/{v14:.3f} within 5%) t={elapsed:.1f}s"
    )


# ----------------------------------------------------------------------------------
# 5. Transfer check on Z (R=8) and F2 (R=3): hard inequality, Frobenius gap.
# ----------------------------------------------------------------------------------


def test_criterion_5_transfer():
    t0 = time.perf_counter()
    opts = SolveOptions(max_iters=3000, tol=1e-9, seed=5, restarts=2)
    balls = {
        "Z R=8": build_ball(Z, 8, X1="origin", X2={"radius_at_least": 6}),
        "F2 R=3": build_ball(F2, 3, X1="origin", X2={"sphere": 3}),
    }
    specs = {
        "schatten1": NormSpec.schatten(1),
        "schatten2": NormSpec.schatten(2),
        "lorentz21": NormSpec.lorentz(2),
    }
    lines = []
    for bname, ball in balls.items():
        for sname, spec in specs.items():
            out = verify_transfer(ball, spec, opts)
            cap, k = out["cap"], out["k"]
            assert k <= cap + 1e-9 * max(1.0, cap), f"{bname}/{sname}: hard inequality violated"
            relgap = abs(out["gap"]) / cap
            if sname == "schatten2":
                assert relgap <= 1e-3, f"{bname}/{sname}: relgap={relgap}"
            lines.append(f"{bname}/{sname}: cap={cap:.8f} [k_lower, k]=[{out['k_lower']:.10f}, {k:.10f}] "
                         f"matrix_solve={out['matrix_solve']} relgap={relgap:.1e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report("criterion 5: PASS t=%.1fs\n  " % elapsed + "\n  ".join(lines))


# ----------------------------------------------------------------------------------
# 6. Gradient identity: finite differences vs -(p/2) trace(Theta H).
# ----------------------------------------------------------------------------------


def test_criterion_6_gradient_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for inst in range(20):
        rng = np.random.default_rng(4200 + inst)
        tau = OperatorTuple.of([rand_hermitian(rng, 8), rand_hermitian(rng, 8)])
        cond = make_condenser([0], [7], dim=8)
        B = project_middle(cond, 0.5 * np.eye(cond.m0) + 0.25 * rand_hermitian(rng, cond.m0))
        X = cond.embed_middle(B)
        H = rand_hermitian(rng, cond.m0)
        H /= np.linalg.norm(H)
        Hf = cond.basis_mid @ H @ cond.basis_mid.T
        for p in (2.0, 3.0, 4.0):
            prob = SmoothProblem(tau, cond, p)
            h = 1e-5
            from qcmod.plaplace import smooth_objective

            fd = (smooth_objective(prob, X + h * Hf) - smooth_objective(prob, X - h * Hf)) / (2 * h)
            an = -(p / 2.0) * float(np.real(np.trace(theta(prob, X).Theta @ Hf)))
            rel = abs(fd - an) / max(abs(an), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-5, f"instance {inst}, p={p}: rel={rel}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"criterion 6: PASS (20 instances x p in {{2,3,4}}, worst rel={worst:.1e}) t={elapsed:.1f}s")


# ----------------------------------------------------------------------------------
# 7 + 8. Euler-Lagrange certificates and uniqueness mod commutant.
# ----------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_minimizer_suite():
    """10 random 8-dim two-tuples, 4 seeds each; shared by criteria 7 and 8."""
    suite = []
    for inst in range(10):
        rng = np.random.default_rng(7000 + inst)
        tau = OperatorTuple.of([rand_hermitian(rng, 8), rand_hermitian(rng, 8)])
        cond = make_condenser([0], [7], dim=8)
        p = (2.0, 3.0, 4.0)[inst % 3]
        prob = SmoothProblem(tau, cond, p)
        probe = uniqueness_probe(
            prob, SolveOptions(max_iters=20000, tol=1e-12, seed=100 + inst, restarts=1), trials=4
        )
        suite.append((prob, probe))
    return suite


def test_criterion_7_euler_lagrange(tridiag_example, random_minimizer_suite):
    # exact 3-dim case: all three compressions vanish within 1e-10
    tau, cond = tridiag_example
    prob = SmoothProblem(tau, cond, 2.0)
    rep = minimize_smooth(prob, SolveOptions(max_iters=20000, tol=1e-12, seed=2, restarts=2))
    assert rep.converged
    el = euler_lagrange_report(prob, rep.minimizer)
    assert el.passed
    for eigs in el.compression_eigs.values():
        assert np.abs(np.asarray(eigs)).max(initial=0.0) <= 1e-10

    # every converged minimizer in the random suite passes at delta = 1e-6 ||Theta||
    checked = 0
    for prob_r, probe in random_minimizer_suite:
        for r in probe["reports"]:
            if not r.converged:
                continue
            el_r = euler_lagrange_report(prob_r, r.minimizer)
            assert el_r.passed, f"EL failure: {el_r.checks} flags={el_r.flags}"
            checked += 1
    report(f"criterion 7: PASS (3-dim compressions <= 1e-10; {checked} random minimizers certified)")


def test_criterion_8_uniqueness_mod_commutant(random_minimizer_suite):
    worst = 0.0
    for prob, probe in random_minimizer_suite:
        assert probe["excluded_nonconverged"] == 0
        scale = 1.0 + max(
            np.linalg.norm(C)
            for r in probe["reports"]
            for C in commutators(prob.tau, embed(r.minimizer))
        )
        ratio = probe["max_commutator_distance"] / scale
        worst = max(worst, ratio)
        assert probe["max_commutator_distance"] <= 1e-4 * scale
    report(f"criterion 8: PASS (10 instances x 4 seeds, worst scaled distance {worst:.1e})")


# ----------------------------------------------------------------------------------
# 9. Invariant suites, 1000 randomized trials each.
# ----------------------------------------------------------------------------------


def test_criterion_9_invariant_suites():
    t0 = time.perf_counter()
    fast = SolveOptions(max_iters=150, tol=1e-6, seed=1, restarts=1)

    # rearrangement invariance (exact)
    rng = np.random.default_rng(90)
    specs_pool = [NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.lorentz(2), NormSpec.macaev()]
    for i in range(1000):
        spec = specs_pool[i % len(specs_pool)]
        n = int(rng.integers(1, 7))
        s = rng.uniform(0, 5, n)
        assert vector_norm(s, spec) == vector_norm(s[rng.permutation(n)], spec)

    # ideal property
    rng = np.random.default_rng(91)
    for i in range(1000):
        spec = specs_pool[i % len(specs_pool)]
        d = int(rng.integers(2, 5))
        A, X, B = (rng.standard_normal((d, d)) for _ in range(3))
        lhs = matrix_norm(A @ X @ B, spec)
        rhs = np.linalg.norm(A, 2) * matrix_norm(X, spec) * np.linalg.norm(B, 2)
        assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    # solver homogeneity k(c tau) = |c| k(tau)
    rng = np.random.default_rng(92)
    cond3 = make_condenser([0], [2], dim=3)
    for i in range(1000):
        tau = OperatorTuple.of([rand_hermitian(rng, 3)])
        c = float(rng.uniform(0.2, 5.0))
        v1 = solve_condenser(tau, cond3, NormSpec.schatten(2), fast).value
        v2 = solve_condenser(tau.scaled(c), cond3, NormSpec.schatten(2), fast).value
        assert abs(v2 - c * v1) <= 2 * fast.tol * max(1.0, c * v1, c)

    # solver unitary covariance
    rng = np.random.default_rng(93)
    for i in range(1000):
        tau = OperatorTuple.of([rand_hermitian(rng, 3)])
        U = rand_unitary(rng, 3)
        v1 = solve_condenser(tau, cond3, NormSpec.schatten(2), fast).value
        cond_u = make_condenser(U @ cond3.P @ U.T, U @ cond3.Q @ U.T)
        v2 = solve_condenser(tau.conjugated(U), cond_u, NormSpec.schatten(2), fast).value
        assert abs(v2 - v1) <= 2 * fast.tol * max(1.0, v1)

    # monotonicity in Q (larger outer plate shrinks the feasible set)
    rng = np.random.default_rng(94)
    small_q = make_condenser([0], [3], dim=4)
    large_q = make_condenser([0], [2, 3], dim=4)
    for i in range(1000):
        tau = OperatorTuple.of([rand_hermitian(rng, 4)])
        v_small = solve_condenser(tau, small_q, NormSpec.schatten(2), fast).value
        v_large = solve_condenser(tau, large_q, NormSpec.schatten(2), fast).value
        assert v_small <= v_large + 2 * fast.tol * max(1.0, v_large)

    # monotonicity in R (graph capacities decrease along growing balls)
    rng = np.random.default_rng(95)
    cap_cache = {}
    for i in range(1000):
        R = int(rng.integers(2, 5))
        key = (R, i % 3)
        spec = [NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.lorentz(2)][i % 3]
        for k in (key, (R + 2, i % 3)):
            if k not in cap_cache:
                ball = build_ball(Z, k[0], X1="origin")
                cap_cache[k] = graph_capacity(ball, spec, fast).value
        assert cap_cache[(R + 2, i % 3)] <= cap_cache[key] + 2 * fast.tol

    # restart consistency (convexity certificate)
    rng = np.random.default_rng(96)
    multi = SolveOptions(max_iters=150, tol=1e-6, seed=2, restarts=3)
    for i in range(1000):
        tau = OperatorTuple.of([rand_hermitian(rng, 3)])
        rep = solve_condenser(tau, cond3, NormSpec.schatten(2), multi)
        vals = rep.extra["restart_values"]
        assert max(vals) - min(vals) <= 10 * multi.tol * max(1.0, rep.value)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(f"criterion 9: PASS (7 invariant suites x 1000 trials, zero violations) t={elapsed:.0f}s")


# ----------------------------------------------------------------------------------
# 10. SOFT gamma_1 diagnostic: report produced and archived; ratio reported.
# ----------------------------------------------------------------------------------


def test_criterion_10_gamma1_report_archived(tmp_path):
    t0 = time.perf_counter()
    opts = SolveOptions(max_iters=500, tol=1e-7, seed=0, restarts=1)
    out = gamma1_experiment([64, 128, 256], opts=opts, variant="sawtooth")

    # hard requirements: the pipeline ran at all three scales, produced a
    # monotone-in-P flag, an extrapolated estimate, and the ratio diagnostic
    assert len(out["values"]) == 3 and all(v > 0 for v in out["values"])
    assert out["monotone_in_P"] is True
    assert out["extrapolation"] is not None
    assert np.isfinite(out["ratio_to_reference"])

    # seam-free cross-check (secondary diagnostic, small scale)
    tri = gamma1_experiment([64], opts=opts, variant="triangle")

    archive = {
        "primary": {k: v for k, v in out.items() if k != "reports"},
        "seam_free_crosscheck": {k: v for k, v in tri.items() if k != "reports"},
        "note": (
            "primary series uses the raw cyclic-grid position diag(j/N); its wrap seam "
            "adds an O(1) trace-norm contribution, so the ratio may exceed the soft band. "
            "The continuous (triangle) embedding is seam-free and lands on the reference."
        ),
    }
    path = os.path.join(tmp_path, "gamma1_report.json")
    write_json(path, archive)
    assert os.path.exists(path)

    elapsed = time.perf_counter() - t0
    in_band = out["ratio_in_band"]
    verdict = "in band" if in_band else "SOFT MISS (reported, build passes)"
    report(
        f"criterion 10: PASS (report archived at {path}); "
        f"ratio={out['ratio_to_reference']:.3f} -> {verdict}; "
        f"seam-free ratio={tri['ratio_to_reference']:.3f}; t={elapsed:.0f}s"
    )
