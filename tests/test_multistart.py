"""The multistart driver's bookkeeping, shared by all three solvers."""

import numpy as np
import pytest

from qcmod import _solvers, cayley, plaplace
from qcmod._solvers import Multistart, _huber, _smooth_max, _smooth_schatten, lbfgs, projected_descent
from qcmod.cayley import (GroupSpec, build_ball, graph_capacity, harmonic_capacity_oracle,
                          truncated_regular_rep, verify_transfer)
from qcmod.condenser_solver import SolveOptions, solve_condenser
from qcmod.operator_core import OperatorTuple, make_condenser
from qcmod.plaplace import SmoothProblem, minimize_smooth
from qcmod.ri_norms import NormSpec, vector_norm

from conftest import rand_hermitian, subgradient_runs

SPECS = [NormSpec.schatten(1), NormSpec.schatten(2), NormSpec.lorentz(2)]
SPEC_IDS = ["s1", "s2", "l21"]
OPTS3 = SolveOptions(max_iters=300, tol=1e-8, seed=7, restarts=3)


def _check_bookkeeping(rep):
    vals = rep.extra["restart_values"]
    assert len(vals) == 3
    # every row is numbered by its position, lbfgs iterations included
    assert [h[0] for h in rep.history] == list(range(rep.iters))
    # the report is the best value a restart offered, bracketed from below
    assert rep.value == min(vals)
    assert 0.0 <= rep.lower <= rep.value


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_condenser_bookkeeping(spec):
    rng = np.random.default_rng(21)
    tau = OperatorTuple.of([rand_hermitian(rng, 4), rand_hermitian(rng, 4)])
    rep = solve_condenser(tau, make_condenser([0], [3], dim=4), spec, OPTS3)
    _check_bookkeeping(rep)
    # the best value a restart offered closes the history
    assert rep.history[-1] == (rep.iters - 1, rep.value, 0.0)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_graph_capacity_bookkeeping(spec):
    ball = build_ball(GroupSpec("zd", d=2), 3, X1="origin", X2={"sphere": 3})
    rep = graph_capacity(ball, spec, OPTS3)
    _check_bookkeeping(rep)
    assert rep.history[-1] == (rep.iters - 1, rep.value, 0.0)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_smooth_bookkeeping(p):
    rng = np.random.default_rng(22)
    tau = OperatorTuple.of([rand_hermitian(rng, 4), rand_hermitian(rng, 4)],
                           selfadjoint=[True, True])
    prob = SmoothProblem(tau, make_condenser([0], [3], dim=4), p)
    rep = minimize_smooth(prob, OPTS3)
    _check_bookkeeping(rep)
    assert rep.history[-1] == (rep.iters - 1, rep.value, 0.0)


_TRIDIAG3 = OperatorTuple.of([np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)],
                             selfadjoint=[True])
CLOSED_FORMS = {
    "condenser_m0": lambda: solve_condenser(_TRIDIAG3, make_condenser([0, 1], [2], dim=3),
                                            NormSpec.schatten(1)),
    "condenser_P0": lambda: solve_condenser(_TRIDIAG3, make_condenser([], [2], dim=3),
                                            NormSpec.schatten(2)),
    "graph_empty_inner_plate": lambda: graph_capacity(build_ball(GroupSpec("zd", d=1), 3),
                                                      NormSpec.schatten(1)),
    "graph_fully_pinned": lambda: graph_capacity(
        build_ball(GroupSpec("zd", d=1), 1, X1=[(0,)], X2=[(-1,), (1,)]), NormSpec.schatten(2)),
    "smooth_P0": lambda: minimize_smooth(SmoothProblem(_TRIDIAG3, make_condenser([], [2], dim=3),
                                                       3.0)),
    "smooth_m0": lambda: minimize_smooth(SmoothProblem(_TRIDIAG3, make_condenser([0, 1], [2], dim=3),
                                                       2.0)),
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_closed_form_reports_one_row(name):
    rep = CLOSED_FORMS[name]()
    assert rep.converged and rep.iters == 1
    assert rep.history == [(0, rep.value, 0.0)]
    assert rep.lower == rep.value


def test_lbfgs_stage_stopped_by_its_limit_is_not_converged(monkeypatch):
    # every lbfgs stage of a Z^2 S2 solve capped at one iteration stops at
    # its iteration limit, which is not a converged exit
    engine = cayley.lbfgs

    def capped(*args, max_iters, **kwargs):
        return engine(*args, max_iters=1, **kwargs)

    monkeypatch.setattr(cayley, "lbfgs", capped)
    ball = build_ball(GroupSpec("zd", d=2), 3, X1="origin", X2={"sphere": 3})
    rep = graph_capacity(ball, NormSpec.schatten(2), SolveOptions(restarts=1))
    assert not rep.converged
    # one row for the start, one per lbfgs iteration of the four stages,
    # one for the ladder's exact value and one for the solve's
    assert rep.iters == 1 + len(_solvers.SMOOTHING_LADDER) + 2
    assert [h[0] for h in rep.history] == list(range(rep.iters))


class TestLbfgs:
    """``_solvers.lbfgs``, the engine of the graph ε stages: its stops, its
    history rows and its determinism."""

    def test_convex_quadratic(self):
        # an ill-conditioned quadratic with minimum 0: the run stops
        # converged once f no longer moves, far inside 1e-12 of its start
        rng = np.random.default_rng(5)
        Q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        A = (Q * np.geomspace(1.0, 100.0, 40)) @ Q.T
        c = rng.standard_normal(40)
        fg = lambda x: (0.5 * (x - c) @ A @ (x - c), A @ (x - c))
        x, f, k, converged, lower = lbfgs(fg, np.zeros(40), max_iters=3000, history=[])
        assert converged and lower == -np.inf and 0 < k < 3000
        assert f <= 1e-12 * fg(np.zeros(40))[0] and f == fg(x)[0]
        assert np.abs(x - c).max() <= 1e-6

    def test_gradient_stop(self):
        # a zero gradient at the start stops before any iteration; on x^2
        # from 3 the unit step along -g overshoots to -3, and the quadratic
        # through f, the slope and f(-3) puts the next trial on 0 exactly
        fg = lambda x: (float(x @ x), 2.0 * x)
        history = []
        x, f, k, converged, _ = lbfgs(fg, np.zeros(3), max_iters=10, history=history)
        assert (k, converged, history) == (0, True, []) and f == 0.0
        x, f, k, converged, _ = lbfgs(fg, np.array([3.0]), max_iters=10, history=history)
        assert (k, converged, f, history) == (1, True, 0.0, [(0, 0.0, 0.0)]) and x[0] == 0.0

    def test_rounding_floor_stop(self):
        # f = 1e16 + 10 (x - 0.9)^2 from 1: the unit trial along -g = -2
        # rises by 36, and the next trial's whole decrease, 0.1 * 4, is below
        # half an ulp of f (ulps are 2 there)
        calls = []

        def fg(x):
            calls.append(x.copy())
            return 1e16 + 10.0 * float((x[0] - 0.9) ** 2), 20.0 * (x - 0.9)

        history = []
        x, f, k, converged, _ = lbfgs(fg, np.array([1.0]), max_iters=10, history=history)
        assert (k, converged, history) == (0, True, []) and x[0] == 1.0
        assert len(calls) == 2

    def test_relative_decrease_stop(self):
        # a flat value with a nonzero gradient: backtracking reaches a trial
        # whose sufficient decrease rounds away, accepts it with f unchanged
        # and stops on the relative decrease
        fg = lambda x: (1.0, np.ones_like(x))
        history = []
        x, f, k, converged, _ = lbfgs(fg, np.zeros(3), max_iters=10, history=history)
        assert (k, converged, f) == (1, True, 1.0) and history == [(0, 1.0, 0.0)]
        assert np.all(x < 0.0)

    def test_iteration_limit_is_not_converged(self):
        # a linear objective decreases without end
        fg = lambda x: (float(x.sum()), np.ones_like(x))
        history = []
        x, f, k, converged, _ = lbfgs(fg, np.zeros(4), max_iters=5, history=history)
        assert (k, converged) == (5, False) and len(history) == 5

    def test_one_row_per_accepted_iteration(self):
        # rows continue the history they are given, one per iteration, each
        # the value of an evaluated point, in order; the values never increase
        rng = np.random.default_rng(6)
        w, c = np.geomspace(1.0, 1e3, 30), rng.standard_normal(30)
        evaluated = []

        def fg(x):
            evaluated.append(1.0 + 0.5 * float(w @ (x - c) ** 2))
            return evaluated[-1], w * (x - c)

        history = [(0, 9.0, 0.5), (1, 8.0, 0.5)]
        x, f, k, converged, _ = lbfgs(fg, np.zeros(30), max_iters=3000, history=history)
        rows = history[2:]
        assert len(rows) == k and [r[0] for r in rows] == list(range(2, 2 + k))
        assert all(r[2] == 0.0 for r in rows) and rows[-1][1] == f
        values = iter(evaluated[1:])
        assert all(any(v == r[1] for v in values) for r in rows)
        assert all(b[1] <= a[1] for a, b in zip(rows, rows[1:]))

    def test_runs_are_bit_identical(self):
        ball = build_ball(GroupSpec("zd", d=2), 6, X1="origin")
        a, b = (graph_capacity(ball, NormSpec.schatten(3), OPTS3) for _ in range(2))
        assert a.history == b.history and a.value == b.value
        assert np.array_equal(a.minimizer, b.minimizer)


def _count_fg(monkeypatch, module):
    """Patch ``module.projected_descent`` to count the fg calls of each run;
    returns the list of counts, one entry per run."""
    counts = []
    engine = module.projected_descent

    def counted(fg, *args, **kwargs):
        counts.append(0)

        def fg_counted(x):
            counts[-1] += 1
            return fg(x)

        return engine(fg_counted, *args, **kwargs)

    monkeypatch.setattr(module, "projected_descent", counted)
    return counts


class TestRoundingFloor:
    """``projected_descent`` stops once a trial step's whole first-order
    decrease is below the rounding of f, instead of backtracking on."""

    def test_floor_exit_on_offset_quadratic(self):
        # f = 1e8 + a box-constrained diagonal quadratic: the decrease drops
        # below the rounding of f (about 1.5e-8) long before the projected
        # gradient falls to residual_tol
        w, c = np.geomspace(1.0, 100.0, 20), np.linspace(-0.5, 1.5, 20)
        calls = []

        def fg(x):
            calls.append(1)
            return 1e8 + 0.5 * float(np.sum(w * (x - c) ** 2)), w * (x - c)

        proj = lambda x: np.clip(x, 0.0, 1.0)
        history = []
        x, f, k, converged, _ = projected_descent(fg, proj, np.full(20, 0.5), max_iters=500,
                                                  residual_tol=1e-12, history=history)
        assert converged and k <= 30 and len(calls) <= 35
        step = history[-1][2]
        assert np.linalg.norm(proj(x - step * fg(x)[1]) - x) > 1e3 * 1e-12 * step
        f_min = 1e8 + 0.5 * float(np.sum(w * (proj(c) - c) ** 2))
        assert f - f_min <= 2 * np.spacing(1e8)

    # minimize_smooth values on these tuples when the engine ran until a
    # 60-iteration window left the best value unchanged
    SMOOTH8 = {2.0: 3.7770034393817395, 3.0: 4.015217198828888, 4.0: 4.452437913623982}

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_smooth_8dim_stops_at_the_floor(self, monkeypatch, p):
        rng = np.random.default_rng(5)
        tau = OperatorTuple.of([rand_hermitian(rng, 8), rand_hermitian(rng, 8)],
                               selfadjoint=[True, True])
        counts = _count_fg(monkeypatch, plaplace)
        rep = minimize_smooth(SmoothProblem(tau, make_condenser([0], [7], dim=8), p),
                              SolveOptions(max_iters=20000, tol=1e-12, seed=3, restarts=2))
        assert rep.converged
        assert len(counts) == 2 and max(counts) <= 500
        assert rep.value == pytest.approx(self.SMOOTH8[p], rel=1e-13, abs=0.0)

    def test_f2_lorentz_condenser_refine(self, monkeypatch):
        ball = build_ball(GroupSpec("free", k=2), 3, X1="origin", X2={"sphere": 3})
        cond = make_condenser(list(ball.X1), list(ball.X2), dim=ball.n_vertices)
        opts = SolveOptions(seed=7, restarts=1)
        phases = subgradient_runs(monkeypatch)
        counts = _count_fg(monkeypatch, _solvers)
        rep = solve_condenser(truncated_regular_rep(ball), cond, NormSpec.lorentz(2), opts)
        # the window bound closes the bracket, so the exact descent does not run
        assert counts == []
        # the certified bracket holds the capacity 1 + 1/sqrt(2) within tol
        assert rep.lower <= 1 + 1 / np.sqrt(2) <= rep.value
        assert rep.value - rep.lower <= 1e-7 * rep.value
        # run from the phase's best point, the descent still stops early
        (fg, project, (x, f, *_)), = phases
        calls = []
        projected_descent(lambda x: calls.append(1) or fg(x), project, x,
                          max_iters=max(200, opts.max_iters // 2), residual_tol=opts.residual_tol(f),
                          history=[])
        assert len(calls) <= 200


class TestBracketStop:
    """``solve_max_norm`` runs the exact descent of a weighted norm only while
    the subgradient phase's bracket is open."""

    def test_closed_bracket_skips_the_descent(self, monkeypatch):
        ball = build_ball(GroupSpec("free", k=2), 3, X1="origin", X2={"sphere": 3})
        phases = subgradient_runs(monkeypatch)
        counts = _count_fg(monkeypatch, _solvers)
        rep = graph_capacity(ball, NormSpec.lorentz(2), SolveOptions(max_iters=3000, tol=1e-9, restarts=1))
        (_, _, (_, f, iters, converged, lower)), = phases
        assert counts == [] and converged
        # the phase's rows and the closing row, no descent rows
        assert rep.iters == iters + 1
        assert rep.value == f and rep.lower == lower
        assert f - lower <= 1e-9 * f

    def test_f2_lorentz_transfer_runs_no_descent(self, monkeypatch):
        # the CLI transfer's options with one restart: certified on the graph
        # side, without a matrix solve or an exact descent
        ball = build_ball(GroupSpec("free", k=2), 3, X1="origin", X2={"sphere": 3})
        counts = _count_fg(monkeypatch, _solvers)
        out = verify_transfer(ball, NormSpec.lorentz(2), SolveOptions(max_iters=3000, tol=1e-9, restarts=1))
        assert counts == [] and not out["matrix_solve"]
        assert out["k"] - out["k_lower"] <= 1e-10
        assert abs(out["cap"] - (1 + 1 / np.sqrt(2))) <= 1e-6

    def test_open_bracket_runs_the_descent(self, monkeypatch):
        # the digest's condenser_lorentz input: the window bounds stay about
        # 0.5 below the value, and the descent lowers it from each phase's best
        d = 6
        path = np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1)
        phases = subgradient_runs(monkeypatch)
        counts = _count_fg(monkeypatch, _solvers)
        opts = SolveOptions(max_iters=400, restarts=2)
        rep = solve_condenser(OperatorTuple.of([path]), make_condenser([0], [d - 1], dim=d),
                              NormSpec.lorentz(2), opts)
        assert len(phases) == 2 and len(counts) == 2
        assert all(f - lower > opts.tol * max(1.0, f) for _, _, (_, f, _, _, lower) in phases)
        assert rep.value < min(f for _, _, (_, f, *_) in phases)


class TestCollapsedStep:
    """An accepted step whose Barzilai-Borwein value ss / sy falls below the
    1e-14 clamp counts towards ``projected_descent``'s failure streak."""

    def test_kink_ends_the_run(self):
        # f = |x_1 - 0.3| + 3 |x_2 - 0.3|: once x_2 sits at its kink every
        # accepted step crosses it and ss / sy collapses; without the exit the
        # run crawls at step 1e-14 until max_iters (467 of its 500 rows)
        w = np.array([1.0, 3.0])
        fg = lambda x: (float(np.sum(w * np.abs(x - 0.3))), w * np.sign(x - 0.3))
        history = []
        x, f, k, converged, _ = projected_descent(fg, lambda x: np.clip(x, -1.0, 1.0),
                                                  np.array([0.9, -0.4]), max_iters=500,
                                                  residual_tol=1e-12, history=history)
        assert not converged and k == len(history) <= 60
        assert sum(step == 1e-14 for _, _, step in history) == 12
        # the crawl's 500 iterations end at 0.0015884576658666272
        assert f <= 0.0015884576658666272 + 1e-12

    # (f, step) rows of this run, logged before collapsed steps were counted
    QUADRATIC = [
        (43.26125130670791, 0.011032162806057217), (9.629914613769998, 0.010439297713937057),
        (9.002222560778026, 0.04657828830017718), (8.050798287100307, 0.04666941314672236),
        (8.042737406807419, 0.3215969313186094), (8.018118216095061, 0.36304681992355425),
        (8.007460971589296, 0.45490465407823955), (8.00297938362123, 0.43136123186377373),
        (8.00164715656888, 0.2810977582449476), (8.000423764128566, 0.23785110015081962),
        (8.000192768030422, 0.32576222039413877), (8.000087436783932, 0.9198285948200896),
        (8.00000339956969, 0.9516689735437021), (8.000000356294324, 0.22256436410323757),
        (8.000000196706871, 0.4730506324386646), (8.000000054659585, 0.9971099453146167),
        (8.00000000063567, 0.9853434977507775), (8.000000000013316, 0.21546961767163805),
        (8.000000000000156, 0.2161652131101531), (8.000000000000094, 0.9999796076490554),
        (7.9999999999999964, 0.999999999627498),
    ]

    def test_smooth_quadratic_history_unchanged(self):
        w, c = np.geomspace(1.0, 100.0, 4), np.linspace(0.2, 1.4, 4)
        fg = lambda x: (0.5 * float(np.sum(w * (x - c) ** 2)), w * (x - c))
        history = []
        _, _, _, converged, _ = projected_descent(fg, lambda x: np.clip(x, 0.0, 1.0), np.full(4, 0.5),
                                                  max_iters=500, residual_tol=1e-8, history=history)
        assert converged
        assert [(f, step) for _, f, step in history] == self.QUADRATIC


def _engine(fs, conv):
    """A fake engine that logs one row per value and returns the last one,
    with no lower bound."""

    def engine(x0, *, history):
        for f in fs:
            history.append((len(history), f, 1.0))
        return x0 + 1, fs[-1], len(fs), conv, -np.inf

    return engine


def _solve(starts, restart, point=-np.inf):
    """``Multistart.solve`` with a finish step that reports one feasibility
    residual of 0 and the point bound ``point``."""
    return Multistart.solve(starts, restart, lambda x: (x, {"r": 0.0}, point), tag="t")


class TestMultistart:
    def test_restart_results_best_point_and_numbering(self):
        def restart(ms, x0):
            x, f = ms.run(_engine([5.0, 4.0 - x0], False), x0)
            _engine([9.0], False)(x, history=ms.history)  # a smoothed stage: not a candidate
            ms.record(x * 10, 3.5)

        rep = _solve([0, 1], restart)
        # restart 0: offers 4.0 (run) then 3.5 (record); restart 1: 3.0 then 3.5
        assert rep.extra == {"restart_values": [3.5, 3.0], "tag": "t"}
        assert rep.minimizer == 2 and rep.value == 3.0  # best point of restart 1
        assert rep.feasibility_residuals == {"r": 0.0}
        assert [h[0] for h in rep.history] == list(range(9))
        assert rep.iters == 9
        assert rep.history[-1] == (8, 3.0, 0.0)

    def test_converged_is_any_offered_phase(self):
        def restart(ms, x0):
            ms.run(_engine([1.0], x0 == 1), x0)
            _engine([2.0], True)(x0, history=ms.history)  # not offered: does not count

        assert _solve([0, 1], restart).converged
        assert not _solve([0], restart).converged

    def test_lower_is_the_largest_bound_of_any_restart(self):
        # the report keeps the largest lower bound any engine returned or the
        # finish step gave, floored at 0 and capped at the value 2.0
        def bounded(lower):
            def engine(x0, *, history):
                history.append((len(history), 2.0, 1.0))
                return x0, 2.0, 1, False, lower
            return engine

        lowers = {0: 0.5, 1: 1.5, 2: 1.0}
        rep = _solve([0, 1, 2], lambda ms, x0: ms.run(bounded(lowers[x0]), x0))
        assert rep.lower == 1.5
        run = lambda lower: lambda ms, x0: ms.run(bounded(lower), x0)
        assert _solve([0], run(0.5), point=1.75).lower == 1.75
        assert _solve([0], run(2.0 + 1e-15)).lower == 2.0
        assert _solve([0], run(0.5), point=3.0).lower == 2.0
        assert _solve([0], run(-np.inf)).lower == 0.0

    def test_plateau_is_not_convergence(self, monkeypatch):
        # a subgradient phase whose running best is flat over the last three
        # quarters of the history, but whose own stopping test never fired
        def flat(fg, project, x0, *, max_iters, tol, history, linear_min):
            x = project(x0)
            f = fg(x)[0]
            for fk in [4 * f, 3 * f, 2 * f] + [f] * 9:
                history.append((len(history), fk, 1.0))
            return x, f, 12, False, -np.inf

        monkeypatch.setattr(_solvers, "projected_subgradient", flat)
        tau = OperatorTuple.of([np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1)])
        rep = solve_condenser(tau, make_condenser([0], [2], dim=3), NormSpec.schatten(1),
                              SolveOptions(restarts=1, refine=False))
        assert not rep.converged
        assert rep.history[-1] == (12, rep.value, 0.0)

    def test_ladder_chains_fref_and_records_once(self, monkeypatch):
        # one Schatten-2 component whose spectrum at x in [0, 10] is the vector
        # [120 - 4 x]: the smooth route logs the start value 120, the stages
        # chain fref from it, and the stages' last point x = 4 closes the
        # restart at 104, where the point bound's cut reads the minimum 80
        calls, smoothings = [], []
        monkeypatch.setattr(_solvers, "smooth_max_norm_fg",
                            lambda spectra, specs, mus, eps, fref: smoothings.append(
                                (mus, eps, fref)) or len(smoothings) - 1)

        def stage(k, fg, x, f0, history):
            calls.append((k, smoothings[fg][1:], x, f0))
            return x + 1, 10.0 - k, k == 3

        lift = lambda ys, ws: ws[0] * -4.0 * ys[0]
        rep = _solvers.solve_max_norm(lambda x: ([np.array([120.0 - 4.0 * x])], lift),
                                      [NormSpec.schatten(2)], None, [0],
                                      lambda x: (x, {"r": 0.0}, -np.inf), SolveOptions(), stage,
                                      linear_min=lambda g: float(np.minimum(10.0 * g, 0.0).sum()))
        assert calls == [(k, (eps, fref), k, 120.0) for k, (eps, fref) in
                         enumerate(zip(_solvers.SMOOTHING_LADDER, [120.0, 10.0, 9.0, 8.0]))]
        # the Huber scale of each stage is its eps times the start's max |v|
        assert [m for m, _, _ in smoothings] == [[eps * 120.0] for eps in _solvers.SMOOTHING_LADDER]
        # one row for the start, one for the stages' exact value, and the
        # closing row of the best value offered
        assert rep.history == [(0, 120.0, 0.0), (1, 104.0, 0.0), (2, 104.0, 0.0)]
        assert rep.extra["restart_values"] == [104.0] and rep.converged
        # 104 + 16 - 40, less 8 ulps of 104 + 16 + 40
        assert rep.lower == 80.0 - 8 * np.finfo(float).eps * 160.0


def test_huber_gradient_is_zero_where_mu_underflows():
    f, g = _huber(np.array([0.0, -2.0, 3.0]), 1e-302)
    assert f == 5.0
    np.testing.assert_array_equal(g, [0.0, -1.0, 1.0])


class TestSmoothSchatten:
    X = np.array([0.7, -1.3, 0.2, -0.05, 2.1])

    @pytest.mark.parametrize("p, mu", [(1.0, 0.1), (1.5, 0.0), (2.0, 0.0), (3.0, 0.0)])
    def test_gradient_matches_finite_differences(self, p, mu):
        f, g = _smooth_schatten(self.X, p, mu)
        h = 1e-6
        fd = [(_smooth_schatten(self.X + h * e, p, mu)[0] - _smooth_schatten(self.X - h * e, p, mu)[0])
              / (2 * h) for e in np.eye(self.X.size)]
        np.testing.assert_allclose(g, fd, rtol=1e-8, atol=1e-9)
        if p == 1:
            assert f == _huber(self.X, mu)[0]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.25])
    def test_value_is_the_schatten_norm(self, p):
        f, _ = _smooth_schatten(self.X, p, 0.0)
        assert f == pytest.approx(vector_norm(self.X, NormSpec.schatten(p)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_zero_vector(self, p):
        f, g = _smooth_schatten(np.zeros(4), p, 0.0)
        assert f == 0.0
        np.testing.assert_array_equal(g, np.zeros(4))


def test_graph_capacity_z3_matches_the_harmonic_oracle():
    # Z^3 R = 14 at the CLI's graphcap options: the smooth route's value sits
    # on the harmonic solve's to rounding (each log-sum-exp stage is scaled by
    # the value the previous one returned, not by the start potential's)
    ball = build_ball(GroupSpec("zd", d=3), 14, X1="origin")
    rep = graph_capacity(ball, NormSpec.schatten(2),
                         SolveOptions(max_iters=2000, tol=1e-8, seed=0, restarts=2))
    assert rep.value == pytest.approx(harmonic_capacity_oracle(ball)["capacity"], rel=1e-14, abs=0.0)


def test_smooth_max_single_term_passes_through():
    # one term keeps its value with weight 1; two equal terms share the
    # gradient's convex combination equally
    assert _smooth_max([2.0], 1e-2, 2.0) == (2.0, [1.0])
    f, ws = _smooth_max([1.0, 1.0], 1e-2, 1.0)
    assert f == pytest.approx(1.0 + 1e-2 / np.log(3.0) * np.log(2.0))
    np.testing.assert_allclose(ws, [0.5, 0.5])


class TestOptionsJson:
    def test_from_json_reads_every_field(self):
        obj = {"max_iters": 7, "tol": 1e-3, "seed": 4, "restarts": 3, "refine": False}
        assert SolveOptions.from_json(obj) == SolveOptions(**obj)

    def test_unknown_keys_are_ignored(self):
        assert SolveOptions.from_json({"step_rule": "diminishing", "target": 0.5, "seed": 2}) \
            == SolveOptions(seed=2)
        assert NormSpec.from_json({"kind": "macaev", "length_hint": 3}) == NormSpec.macaev()
