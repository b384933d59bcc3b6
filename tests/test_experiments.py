import numpy as np
import pytest

from qcmod.condenser_solver import SolveOptions, scale_sweep, solve_condenser
from qcmod.errors import ValidationError
from qcmod.experiments import (
    GAMMA1,
    MultiplicityModel,
    gamma1_experiment,
    hybrid_exponent_scan,
    mode_order_1d,
    model_problem,
    position_tuple,
    ratio_experiment,
    real_fourier_basis_1d,
    timefreq_condenser,
    timefreq_problem,
)
from qcmod.operator_core import embed, objective
from qcmod.ri_norms import NormSpec

FAST = SolveOptions(max_iters=300, tol=1e-6, seed=0, restarts=1)


class TestFourierMachinery:
    def test_mode_order(self):
        assert mode_order_1d(8) == [0, 1, -1, 2, -2, 3, -3, 4]

    def test_real_basis_orthonormal(self):
        for N in (8, 12, 16):
            order = mode_order_1d(N)
            V = real_fourier_basis_1d(N, order)
            assert V.shape == (N, N)
            assert np.allclose(V.T @ V, np.eye(N), atol=1e-12)

    def test_condenser_blocks(self):
        cond, modes = timefreq_condenser(16, 3, 9)
        assert cond.rank_p == 3 and cond.m0 == 6 and cond.rank_q == 7
        assert not cond.is_complex

    def test_projection_commutes_with_shift(self):
        # P is a spectral projection of the cyclic shift, hence commutes with it
        N = 12
        cond, _ = timefreq_condenser(N, 3, 7)
        S = np.roll(np.eye(N), 1, axis=0)
        assert np.linalg.norm(cond.P @ S - S @ cond.P) <= 1e-12

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            timefreq_condenser(16, 9, 9)


class TestGamma1:
    def test_empty_inner_plate_value_zero(self):
        tau, cond = timefreq_problem(24, 0, 13)
        assert solve_condenser(tau, cond, NormSpec.schatten(1), FAST).value == 0.0

    def test_single_scale_positive_and_bounded(self):
        tau, cond = timefreq_problem(32, 3, 17)
        rep = solve_condenser(tau, cond, NormSpec.schatten(1), FAST)
        assert rep.value > 0
        # any feasible point upper-bounds the value; A = P is feasible
        bound = objective(tau, cond.P, NormSpec.schatten(1))
        assert rep.value <= bound + 1e-9

    def test_homogeneity_doubling(self):
        tau, cond = timefreq_problem(24, 3, 13)
        spec = NormSpec.schatten(1)
        v1 = solve_condenser(tau, cond, spec, FAST).value
        v2 = solve_condenser(tau.scaled(2.0), cond, spec, FAST).value
        assert v2 == pytest.approx(2 * v1, rel=1e-4)

    def test_triangle_variant_matches_reference(self):
        # seam-free embedding: the single-scale value already sits near
        # gamma_1 * integral(m) = 2 / pi
        out = gamma1_experiment([48], opts=SolveOptions(max_iters=500, tol=1e-7, seed=0, restarts=1),
                                variant="triangle")
        assert out["reference"] == pytest.approx(2 / np.pi, rel=1e-12)
        assert 0.8 <= out["ratio_to_reference"] <= 1.2

    def test_report_fields(self):
        out = gamma1_experiment([16, 24, 32], opts=FAST)
        assert out["claim_level"] == "SOFT"
        assert len(out["values"]) == 3
        assert out["extrapolation"] is not None
        assert isinstance(out["ratio_in_band"], bool)

    def test_estimate_is_scale_sweep_estimate(self):
        Ns = [16, 24, 32]
        out = gamma1_experiment(Ns, opts=FAST)
        problems = [(N, *timefreq_problem(N, e["M"], e["K"])) for N, e in zip(Ns, out["schedule"])]
        sweep = scale_sweep(problems, NormSpec.schatten(1), FAST)
        assert out["values"] == sweep["values"]
        assert out["estimate"] == sweep["estimate"]
        assert out["extrapolation"]["reliable"] == sweep["reliable"]
        assert out["extrapolation"]["limit"] == sweep["limit"]


class TestRatioExperiment:
    def test_estimate_is_scale_sweep_estimate(self):
        models = [
            MultiplicityModel("box_step", label="m1", position_variant="triangle"),
            MultiplicityModel("box_step", scale=0.5, label="half", position_variant="triangle"),
        ]
        out = ratio_experiment(models, FAST, n_scales=3)
        for model, row in zip(models, out["rows"]):
            problems = []
            for s in range(3):
                tau, cond = model_problem(model, s)
                problems.append((tau.dim, tau, cond))
            sweep = scale_sweep(problems, model.norm_spec(), FAST)
            assert row["values"] == sweep["values"]
            assert row["estimate"] == sweep["estimate"]

    def test_scale_invariance_of_ratio_column(self):
        # coordinate scaling multiplies the estimate by c exactly, leaving the
        # ratio column invariant (homogeneity is exact, solver noise only)
        base = MultiplicityModel("box_step", label="base", position_variant="triangle")
        scaled = MultiplicityModel("box_step", scale=0.5, label="scaled", position_variant="triangle")
        out = ratio_experiment([base, scaled], FAST, n_scales=2)
        r0, r1 = out["rows"]
        assert r1["estimate"] == pytest.approx(0.5 * r0["estimate"], rel=1e-4)
        assert r1["ratio"] == pytest.approx(r0["ratio"], rel=1e-4)

    def test_direct_sum_monotonicity_hard(self):
        # doubling the multiplicity via tau (+) tau cannot decrease the value
        spec = NormSpec.schatten(1)
        t1, c1 = timefreq_problem(24, 3, 13, multiplicity=1)
        t2, c2 = timefreq_problem(24, 3, 13, multiplicity=2)
        v1 = solve_condenser(t1, c1, spec, FAST).value
        v2 = solve_condenser(t2, c2, spec, FAST).value
        assert v2 >= v1 - 1e-6 * max(1.0, v1)

    def test_cv_reported_soft(self):
        m1 = MultiplicityModel("box_step", label="m1", position_variant="triangle")
        m2 = MultiplicityModel("box_step", multiplicity=(2,), label="m2", position_variant="triangle")
        out = ratio_experiment([m1, m2], FAST, n_scales=2)
        assert out["claim_level"] == "SOFT"
        assert out["ratio_cv"] is None or out["ratio_cv"] >= 0.0

    def test_needs_two_models(self):
        with pytest.raises(ValidationError):
            ratio_experiment([MultiplicityModel("box_step")], FAST)

    def test_cantor_product_scales(self):
        model = MultiplicityModel("cantor_product", n=2, ratio=1 / 3, pieces=2, depth=2)
        assert model.hausdorff_dimension == pytest.approx(2 * np.log(2) / np.log(3))
        tau, cond = model_problem(model, 0)
        assert tau.dim == 16 and tau.n == 2
        spec = model.norm_spec()
        assert spec.kind == "lorentz_p1"
        rep = solve_condenser(tau, cond, spec, FAST)
        assert rep.value > 0

    def test_cantor_depth_comparison_reported(self):
        d2 = MultiplicityModel("cantor_product", n=2, ratio=1 / 3, pieces=2, depth=2, label="depth2")
        d3 = MultiplicityModel("cantor_product", n=2, ratio=1 / 3, pieces=2, depth=3, label="depth3")
        out = ratio_experiment([d2, d3], SolveOptions(max_iters=200, tol=1e-5, seed=0, restarts=1),
                               n_scales=1)
        assert len(out["rows"]) == 2
        assert all(np.isfinite(r["ratio"]) for r in out["rows"])

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValidationError):
            MultiplicityModel("cantor_product", n=1, ratio=1 / 3, pieces=2)


class TestModelFromJson:
    @pytest.mark.parametrize("fields", [
        {"multiplicity": 2.5}, {"multiplicity": "2"}, {"multiplicity": True},
        {"multiplicity": [1, True]}, {"n": True}, {"depth": 1.0}, {"pieces": "2"}],
        ids=["multiplicity-float", "multiplicity-string", "multiplicity-bool",
             "multiplicity-entry-bool", "n-bool", "depth-float", "pieces-string"])
    def test_integer_fields_are_checked_not_coerced(self, fields):
        with pytest.raises(ValidationError, match=f"{next(iter(fields))} must be an integer"):
            MultiplicityModel.from_json({"kind": "cantor_product", "n": 2, **fields})

    def test_integer_fields_are_read(self):
        model = MultiplicityModel.from_json(
            {"kind": "cantor_product", "n": 2, "pieces": 2, "depth": 3, "multiplicity": 2})
        assert (model.n, model.pieces, model.depth, model.multiplicity) == (2, 2, 3, (2,))
        steps = MultiplicityModel.from_json({"kind": "box_step", "multiplicity": [1, 2]})
        assert steps.multiplicity == (1, 2) and steps.cell_lengths == (0.5, 0.5)

    def test_unknown_position_variant_rejected(self):
        with pytest.raises(ValidationError, match="triangel"):
            MultiplicityModel.from_json({"kind": "box_step", "position_variant": "triangel"})
        for variant in ("sawtooth", "triangle"):
            assert MultiplicityModel("box_step", position_variant=variant).position_variant == variant


class TestHybridScan:
    def test_constraint_validation(self):
        with pytest.raises(ValidationError):
            hybrid_exponent_scan(6, [(2.0, 3.0)], FAST)  # 1/2 + 1/3 != 1
        with pytest.raises(ValidationError):
            hybrid_exponent_scan(6, [(1.0, 1.0)], FAST)

    def test_symmetric_pair_equals_single_spec_path(self):
        out = hybrid_exponent_scan(6, [(2.0, 2.0)], FAST)
        # the non-hybrid pipeline with a single broadcast spec is the same
        # code path and must agree exactly under identical seeds
        from qcmod.experiments import grid2_condenser
        pts = (np.arange(6) + 0.5) / 6
        X = np.kron(np.diag(pts), np.eye(6))
        Y = np.kron(np.eye(6), np.diag(pts))
        from qcmod.operator_core import OperatorTuple
        tau = OperatorTuple.of([X, Y], selfadjoint=[True, True])
        rep = solve_condenser(tau, grid2_condenser(6), NormSpec.lorentz(2), FAST)
        assert out["results"][0]["value"] == rep.value

    def test_swap_symmetry(self):
        a = hybrid_exponent_scan(6, [(3.0, 1.5)], FAST)["results"][0]["value"]
        b = hybrid_exponent_scan(6, [(1.5, 3.0)], FAST, swap=True)["results"][0]["value"]
        assert b == pytest.approx(a, rel=2e-6)


class TestPositionVariants:
    def test_sawtooth_spectrum(self):
        tau = position_tuple(8)
        assert np.allclose(np.diag(tau.components[0]), np.arange(8) / 8)

    def test_triangle_multiplicity_two(self):
        tau = position_tuple(8, variant="triangle")
        d = np.sort(np.diag(tau.components[0]))
        # every interior value appears twice
        assert np.allclose(d[1:3], [0.25, 0.25])
