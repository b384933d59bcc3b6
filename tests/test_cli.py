import json
import os

import numpy as np
import pytest

from qcmod.cli import dispatch, main, parse_config
from qcmod.errors import ValidationError
from qcmod.jsonio import dumps, write_csv


def run(tmp_path, argv):
    return main([a.replace("OUT", str(tmp_path)) for a in argv])


class TestParseConfig:
    def test_minimal_norm_command(self):
        cfg = parse_config("norm", {"s": [3, 4], "norm": {"kind": "schatten", "p": 2}})
        assert cfg.command == "norm"

    def test_missing_field_lists_path(self):
        with pytest.raises(ValidationError) as err:
            parse_config("norm", {"s": [3, 4]})
        assert any("payload.norm" in e for e in err.value.errors)

    def test_unknown_command_lists_allowed(self):
        with pytest.raises(ValidationError) as err:
            parse_config("frobnicate", {})
        assert any("graphcap" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        with pytest.raises(ValidationError) as err:
            parse_config("condenser", {"norm": {"kind": "nope"}})
        # missing tuple, P, Q plus the bad norm: at least 4 distinct problems
        assert len(err.value.errors) >= 4


class TestDispatch:
    def test_norm_prints_and_writes(self, tmp_path, capsys):
        code = run(tmp_path, [
            "norm", "--inline", '{"s":[3,4],"norm":{"kind":"schatten","p":2}}', "--out", "OUT",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "5"
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["value"] == 5
        assert rep["manifest"]["version"]

    def test_condenser_tridiag(self, tmp_path):
        payload = {
            "tuple": {"components": [{"re": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]}]},
            "P": {"basis_indices": [0]},
            "Q": {"basis_indices": [2]},
            "norm": {"kind": "schatten", "p": 2},
            "options": {"max_iters": 2000, "tol": 1e-9, "restarts": 2},
        }
        code = run(tmp_path, ["condenser", "--inline", json.dumps(payload), "--out", "OUT"])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["value_upper"] == pytest.approx(1.0, rel=1e-6)
        assert rep["history_csv"] == "history.csv"
        hist = (tmp_path / "history.csv").read_text()
        assert hist.splitlines()[0] == "iter,objective,step"
        assert (tmp_path / "manifest.json").exists()

    def test_graphcap_tv_value(self, tmp_path):
        code = run(tmp_path, [
            "graphcap",
            "--group", '{"kind":"Z^d","d":1}', "--R", "5", "--x1", "origin",
            "--norm", '{"kind":"schatten","p":1}', "--out", "OUT",
        ])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["value_upper"] == pytest.approx(2.0, rel=1e-6)
        assert rep["n_vertices"] == 11

    def test_determinism_byte_identical(self, tmp_path):
        payload = '{"group":{"kind":"Z^d","d":1},"R":4,"x1":"origin","norm":{"kind":"schatten","p":2}}'
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["graphcap", "--inline", payload, "--out", str(a), "--seed", "7"]) == 0
        assert main(["graphcap", "--inline", payload, "--out", str(b), "--seed", "7"]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_seed_recorded_in_manifest(self, tmp_path):
        payload = '{"s":[1],"norm":{"kind":"macaev"}}'
        assert main(["norm", "--inline", payload, "--out", str(tmp_path), "--seed", "42"]) == 0
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["seed"] == 42
        assert "wall_time" in man
        rep = json.loads((tmp_path / "report.json").read_text())
        assert "wall_time" not in rep["manifest"]

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        code = run(tmp_path, ["norm", "--inline", '{"s":[1]}', "--out", "OUT"])
        assert code == 2
        assert "payload.norm" in capsys.readouterr().err

    def test_bad_json_exit_2(self, tmp_path):
        assert run(tmp_path, ["norm", "--inline", "{not json", "--out", "OUT"]) == 2

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_strict_nonconverged_exit_3(self, tmp_path):
        # asymmetric couplings so the default initial point is not already
        # optimal; 4 iterations cannot reach the stated tolerance
        payload = {
            "tuple": {"components": [{"re": [[0, 1, 0], [1, 0, 2], [0, 2, 0]]}]},
            "P": {"basis_indices": [0]},
            "Q": {"basis_indices": [2]},
            "norm": {"kind": "lorentz_p1", "p": 2},
            "options": {"max_iters": 4, "restarts": 1, "refine": False, "tol": 1e-16},
        }
        code = run(tmp_path, ["condenser", "--inline", json.dumps(payload), "--out", "OUT", "--strict"])
        assert code == 3
        # without --strict the same run exits 0 (non-convergence is not an error)
        code = run(tmp_path, ["condenser", "--inline", json.dumps(payload), "--out", "OUT"])
        assert code == 0

    def test_parabolicity_scan_csv(self, tmp_path):
        payload = {"group": {"kind": "Z^d", "d": 1}, "R_list": [3, 5, 8], "p": 2, "x1": "origin"}
        code = run(tmp_path, ["graphcap", "--inline", json.dumps(payload), "--out", "OUT"])
        assert code == 0
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "R,n_vertices,value,converged"
        assert len(lines) == 4

    def test_transfer_command(self, tmp_path):
        payload = {
            "group": {"kind": "Z^d", "d": 1}, "R": 4, "x1": "origin",
            "x2": {"radius_at_least": 3},
            "norms": [{"kind": "schatten", "p": 2}],
            "options": {"max_iters": 1500, "tol": 1e-9},
        }
        code = run(tmp_path, ["transfer", "--inline", json.dumps(payload), "--out", "OUT"])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        comp = rep["comparisons"][0]
        assert comp["inequality_ok"] is True
        assert comp["k"] <= comp["cap"] + 1e-9
        assert comp["cap_lower"] <= comp["cap"] and comp["k_lower"] <= comp["k"]
        assert isinstance(comp["matrix_solve"], bool)

    def test_plaplace_command(self, tmp_path):
        payload = {
            "tuple": {"components": [{"re": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]}]},
            "P": {"basis_indices": [0]},
            "Q": {"basis_indices": [2]},
            "p": 2,
        }
        code = run(tmp_path, ["plaplace", "--inline", json.dumps(payload), "--out", "OUT"])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["value_upper"] == pytest.approx(1.0, rel=1e-8)
        assert all(rep["euler_lagrange"]["checks"].values())

    def test_experiment_gamma1_small(self, tmp_path):
        payload = {
            "experiment": "gamma1",
            "schedule": {"N_list": [16, 24, 32]},
            "options": {"max_iters": 150, "restarts": 1},
        }
        code = run(tmp_path, ["experiment", "--inline", json.dumps(payload), "--out", "OUT"])
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["claim_level"] == "SOFT"
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "scale,value,converged,extrapolated"
        assert len(lines) == 4

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"s":[3,4],"norm":{"kind":"schatten","p":2}}')
        assert main(["norm", "--config", str(cfg), "--out", str(tmp_path)]) == 0


    def test_condenser_with_vanishing_commutators(self, tmp_path):
        # diagonal tuple: every diagonal A commutes, k = 0 (the smoothing's
        # reference scale is 0; this run used to end in a LinAlgError)
        d = 9
        payload = {
            "tuple": {"components": [{"re": np.diag(np.linspace(0, 1, d)).tolist()},
                                     {"re": np.diag(np.cos(np.arange(d))).tolist()}]},
            "P": {"basis_indices": [0, 1]},
            "Q": {"basis_indices": [8]},
            "norm": {"kind": "schatten", "p": 1},
        }
        code = run(tmp_path, ["condenser", "--inline", json.dumps(payload), "--out", "OUT",
                              "--seed", "3"])
        assert code == 0
        assert json.loads((tmp_path / "report.json").read_text())["value_upper"] == 0.0

    def test_transfer_too_large_exit_2(self, tmp_path, capsys):
        payload = {"group": {"kind": "free", "k": 2}, "R": 8, "x1": "origin",
                   "x2": {"sphere": 8}, "norm": {"kind": "schatten", "p": 2}}
        code = run(tmp_path, ["transfer", "--inline", json.dumps(payload), "--out", "OUT"])
        assert code == 2
        assert "MiB" in capsys.readouterr().err


class TestEmitSeries:
    def test_empty_history_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, ["iter", "objective", "step"], [])
        assert path.read_text() == "iter,objective,step\n"

    def test_three_point_scan_four_lines(self, tmp_path):
        path = tmp_path / "s.csv"
        write_csv(path, ["scale", "value", "converged", "extrapolated"],
                  [(1, 0.5, True, 0.4), (2, 0.45, True, 0.4), (3, 0.42, True, 0.4)])
        assert len(path.read_text().splitlines()) == 4

    def test_17_digit_round_trip(self, tmp_path):
        x = 1.0 / 3.0 + 1e-16
        path = tmp_path / "r.csv"
        write_csv(path, ["x", "y"], [(x, np.pi)])
        _, row = path.read_text().splitlines()
        sx, sy = row.split(",")
        assert float(sx) == x and float(sy) == np.pi

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_csv(path, ["a"], [(1,)])
        assert b"\r" not in path.read_bytes()


_TRIDIAG = {"components": [{"re": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]}]}
_PLATES = {"P": {"basis_indices": [0]}, "Q": {"basis_indices": [2]}}
_S2 = {"kind": "schatten", "p": 2}
_Z1 = {"kind": "Z^d", "d": 1}


_MODELS = [{"kind": "box_step", "label": "a"}, {"kind": "box_step", "label": "b", "scale": 0.5}]


def _ratio_second(model):
    """A ratio payload whose second model is ``model``."""
    return {"experiment": "ratio", "n_scales": 2, "options": {"max_iters": 50},
            "models": [{"kind": "box_step", "label": "a"}, model]}


@pytest.mark.parametrize("command, payload, field", [
    ("plaplace", dict(_PLATES, tuple={"components": 5}, p=3), "tuple"),
    ("condenser", dict(_PLATES, tuple=_TRIDIAG, norm=_S2, options={"max_iters": "x"}), "options"),
    ("condenser", dict(_PLATES, tuple=_TRIDIAG, norm=_S2, P={"re": "x"}), "P"),
    ("graphcap", {"group": {"kind": "Z^d"}, "R": 3, "x1": "origin", "norm": _S2}, "group"),
    ("graphcap", {"group": _Z1, "R": "a", "x1": "origin", "norm": _S2}, "R"),
    ("graphcap", {"group": _Z1, "R": 3, "x1": {"sphere": "a"}, "norm": _S2}, "R/x1/x2"),
    ("graphcap", {"group": _Z1, "R_list": [3, 4, 5], "norm": {"kind": "macaev"}}, "norm"),
    ("graphcap", {"group": _Z1, "R_list": [3, 4, 5], "norm": {"kind": "lorentz_p1", "p": 2}},
     "norm"),
    ("norm", {"s": "abc", "norm": _S2}, "s"),
    ("norm", {"s": [1, 2], "norm": {"kind": "schatten", "p": "two"}}, "norm"),
    ("experiment", {"experiment": "ratio"}, "models"),
    ("experiment", {"experiment": "hybrid"}, "exponent_sets"),
    ("experiment", {"experiment": "gamma1", "schedule": {"N_list": "abc"}}, "schedule.N_list"),
    ("condenser", dict(_PLATES, tuple=_TRIDIAG, norm=_S2, options={"seed": "x"}), "options"),
    ("norm", {"s": 5, "norm": _S2}, "s"),
    ("condenser", dict(_PLATES, tuple=_TRIDIAG, norm=_S2, options={"refine": "false"}), "options"),
    ("transfer", {"group": _Z1, "R": 3, "x1": "origin", "norms": []}, "norms"),
    ("condenser", dict(_PLATES, tuple=_TRIDIAG, norm=_S2, options={"restarts": 2.5}), "options"),
    ("condenser", dict(_PLATES, tuple=_TRIDIAG, norm=_S2, options={"max_iters": 10.5}), "options"),
    ("condenser", dict(_PLATES, tuple=_TRIDIAG, norm=_S2, options={"restarts": True}), "options"),
    ("experiment", {"experiment": "ratio", "n_scales": 2, "options": {"max_iters": 50},
                    "models": [{"kind": "box_step", "label": "a"},
                               {"kind": "box_step", "n": 2, "label": "b"}]}, "models"),
    ("experiment", {"experiment": "ratio", "n_scales": 2, "options": {"max_iters": 50},
                    "models": [{"kind": "box_step", "label": "a"},
                               {"kind": "cantor_product", "n": 3, "label": "c"}]}, "models"),
    ("experiment", {"experiment": "ratio", "n_scales": 2, "options": {"max_iters": 50},
                    "models": [{"kind": "box_step", "label": "a"},
                               {"kind": "box_step", "multiplicity": [], "cell_lengths": []},
                               {"kind": "cantor_product", "n": 2, "multiplicity": 0}]}, "models"),
    ("experiment", _ratio_second({"kind": "cantor_product", "n": 2, "scale": -1.0}), "models"),
    ("experiment", _ratio_second({"kind": "box_step", "cell_lengths": [-1.0]}), "models"),
    ("experiment", _ratio_second({"kind": "box_step", "scale": 0}), "models"),
    ("experiment", _ratio_second({"kind": "cantor_product", "n": 2, "multiplicity": [0, 1]}),
     "models"),
    ("experiment", {"experiment": "ratio", "options": {"max_iters": 50},
                    "models": [{"kind": "box_step"},
                               {"kind": "box_step", "multiplicity": [0, 1],
                                "cell_lengths": [0.99, 0.01]}]}, "models"),
    ("graphcap", {"group": _Z1, "R_list": [5, 3, 8], "p": 2}, "R_list"),
    ("graphcap", {"group": _Z1, "R_list": [3, 5], "p": 2}, "R_list"),
    ("experiment", {"experiment": "ratio", "n_scales": 0, "models": _MODELS}, "models/n_scales"),
    ("experiment", {"experiment": "hybrid", "gridsize": 0, "exponent_sets": [[2, 2]]}, "gridsize"),
    ("experiment", {"experiment": "hybrid", "exponent_sets": [[3, 3]]}, "exponent_sets"),
    ("experiment", {"experiment": "gamma1", "schedule": {"N_list": [4]}}, "schedule.N_list"),
    ("experiment", {"experiment": "gamma1", "schedule": {"N_list": []}}, "schedule.N_list"),
    ("graphcap", {"group": _Z1, "R": 2.5, "x1": "origin", "norm": _S2}, "R"),
    ("graphcap", {"group": _Z1, "R": True, "x1": "origin", "norm": _S2}, "R"),
    ("graphcap", {"group": _Z1, "R_list": [3, 4.5, 6], "p": 2}, "R_list"),
    ("graphcap", {"group": {"kind": "Z^d", "d": 1.9}, "R": 3, "x1": "origin", "norm": _S2}, "group"),
    ("graphcap", {"group": {"kind": "free", "k": 2.5}, "R": 3, "x1": "origin", "norm": _S2}, "group"),
    ("graphcap", {"group": {"kind": "custom", "tables": [[1, 0.5]]}, "R": 0, "x1": [0], "norm": _S2},
     "group"),
    ("graphcap", {"group": _Z1, "R": 3, "x1": "origin", "x2": {"sphere": 2.7}, "norm": _S2},
     "R/x1/x2"),
    ("graphcap", {"group": _Z1, "R": 3, "x1": "origin", "x2": {"radius_at_least": 2.5},
                  "norm": _S2}, "R/x1/x2"),
    ("graphcap", {"group": _Z1, "R": 3, "x1": [[0.5]], "norm": _S2}, "R/x1/x2"),
    ("experiment", {"experiment": "hybrid", "gridsize": 2.6, "exponent_sets": [[2, 2]]}, "gridsize"),
    ("experiment", {"experiment": "ratio", "n_scales": 2.5, "models": _MODELS}, "n_scales"),
    ("experiment", {"experiment": "gamma1", "schedule": {"N_list": [16.9, 24]}}, "schedule.N_list"),
    ("experiment", {"experiment": "hybrid", "gridsize": 2, "exponent_sets": [[2, 2]],
                    "swap": "false"}, "swap"),
    ("condenser", dict(_PLATES, tuple=_TRIDIAG, norm=_S2, P={"basis_indices": [True]}), "P"),
    ("condenser", dict(_PLATES, tuple={"components": [dict(_TRIDIAG["components"][0], dim="3")]},
                       norm=_S2), "tuple"),
    ("condenser", dict(_PLATES, tuple=_TRIDIAG, norm=_S2,
                       P={"re": [[1, 0, 0], [0, 0, 0], [0, 0, 0]], "dim": 3.0}), "P"),
    ("experiment", _ratio_second({"kind": "box_step", "multiplicity": 2.5}), "models"),
    ("experiment", _ratio_second({"kind": "box_step", "multiplicity": "2"}), "models"),
    ("experiment", _ratio_second({"kind": "box_step", "multiplicity": True}), "models"),
    ("experiment", _ratio_second({"kind": "box_step", "multiplicity": [1, True],
                                  "cell_lengths": [0.5, 0.5]}), "models"),
    ("experiment", _ratio_second({"kind": "cantor_product", "n": True}), "models"),
    ("experiment", _ratio_second({"kind": "cantor_product", "n": 2, "depth": 1.0}), "models"),
    ("experiment", _ratio_second({"kind": "cantor_product", "n": 2, "pieces": 2.0}), "models"),
    ("experiment", _ratio_second({"kind": "box_step", "position_variant": "triangel"}), "models"),
    ("graphcap", {"group": _Z1, "R_list": [3, 4, 5], "p": 2, "x2": {"sphere": 5}}, "x2"),
    ("graphcap", {"group": _Z1, "R_list": [3, 4, 5], "p": 2, "R": 9}, "R"),
    ("graphcap", {"group": _Z1, "R_list": [3, 4, 5], "p": 2, "norm": {"kind": "lorentz_p1", "p": 2}},
     "norm"),
    ("transfer", {"group": _Z1, "R": 4, "x1": "origin", "x2": {"sphere": 4}, "norms": [_S2],
                  "norm": {"kind": "macaev"}}, "norm"),
    ("graphcap", {"group": _Z1, "R": 4, "R_lst": [3, 4, 5], "x1": "origin", "norm": _S2}, "R_lst"),
], ids=["tuple-components", "options-max-iters", "P-re", "group-d", "R", "x1-sphere",
        "scan-macaev", "scan-lorentz", "s", "norm-p", "ratio-models", "hybrid-exponents",
        "gamma1-N-list", "options-seed", "s-scalar", "options-refine", "transfer-no-norms",
        "options-restarts-float", "options-max-iters-float", "options-restarts-bool",
        "ratio-box-n2", "ratio-cantor-n3", "ratio-no-multiplicity", "ratio-cantor-negative-scale",
        "ratio-box-negative-length", "ratio-box-zero-scale", "ratio-cantor-two-multiplicities",
        "ratio-box-empty-spectrum", "scan-unordered", "scan-two-radii", "ratio-no-scales",
        "hybrid-empty-grid", "hybrid-bad-exponents", "gamma1-small-N", "gamma1-no-scales",
        "R-float", "R-bool", "scan-float-radius", "group-d-float", "group-k-float",
        "custom-table-float", "x2-sphere-float", "x2-radius-at-least-float", "x1-key-float",
        "hybrid-grid-float", "ratio-n-scales-float", "gamma1-N-float", "hybrid-swap-string",
        "P-index-bool", "tuple-dim-string", "P-dim-float", "ratio-multiplicity-float",
        "ratio-multiplicity-string", "ratio-multiplicity-bool", "ratio-multiplicity-entry-bool",
        "ratio-n-bool", "ratio-depth-float", "ratio-pieces-float", "ratio-variant-typo",
        "scan-x2", "scan-R", "scan-p-and-norm", "transfer-norms-and-norm", "misspelt-key"])
def test_malformed_payload_exit_2(tmp_path, capsys, command, payload, field):
    # each of these used to end in a traceback (exit 1) or in a run that
    # misread the field: a Schatten-2 scan for the Lorentz norm, a refined
    # solve for refine "false", an empty report for an empty norm list, a
    # run with 10.5 iterations or True restarts; an unsupported ratio model
    # used to fail only after the models before it were solved, an empty
    # multiplicity list with an IndexError traceback; a second ratio model with
    # no positive integral or an empty spectrum used to fail only after the
    # first model was solved (a traceback, an unserializable inf ratio, or an
    # error without the payload.models prefix); a scan's radii, a ratio's
    # n_scales, a hybrid grid or exponent set and a gamma1 N too small for its
    # modes used to be rejected by the solve, without the payload prefix; a
    # gamma1 schedule with no N used to fail with an IndexError; an integer
    # field given as a fraction or a bool, or swap given as a string, used to
    # solve another problem (R 2.5 as 2, true as 1, "false" as a swap, a
    # basis index true as the index 1, a matrix "dim" "3" or 3.0 as 3, a ratio
    # multiplicity 2.5 or "2" as 2 and true as 1, a misspelt position variant
    # as sawtooth, and a scan's x2 or R as absent); a key that no reader
    # reads (a scan's "norm" next to "p", a transfer's "norm" next to
    # "norms", a misspelt "R_lst") used to be dropped without a word
    code = run(tmp_path, [command, "--inline", json.dumps(payload), "--out", "OUT"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"payload.{field}" in err
    assert "Traceback" not in err


class TestDumps:
    @staticmethod
    def _per_element(items):
        return "[" + ",".join(dumps(x)[:-1] for x in items) + "]\n"

    @pytest.mark.parametrize("items", [
        [-0.0, 5e-324, 1e308, 0.1, 1 / 3], [0.0], (2.5, -1.0),
        [1, 0.5, np.float64(0.1), -0.0], [np.float64(1 / 3), 2.0], [True, 1.5], [None, 0.25]],
        ids=["floats", "one", "tuple", "mixed", "np-first", "bool", "null"])
    def test_float_lists_match_the_per_element_path(self, items):
        assert dumps(items) == self._per_element(items)
        assert json.loads(dumps({"x": items}))["x"] == [None if x is None else float(x) for x in items]

    def test_empty_and_nested_lists(self):
        assert dumps([]) == "[]\n"
        assert dumps([[0.5, 1.0], []]) == "[[0.5,1],[]]\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floats_raise(self, bad):
        with pytest.raises(ValidationError):
            dumps([0.5, bad, 1.0])
