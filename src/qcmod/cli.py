"""Command-line entry point: parse configs, dispatch solves, write artifacts.

Every run writes report.json (deterministic bytes for identical config and
seed) plus a manifest.json recording seed, tolerances, version, and wall time;
solves additionally write history.csv, scans/sweeps write series CSVs.

Exit codes: 0 success, 2 invalid config, 3 non-convergence under --strict,
4 numeric failure.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .cayley import GroupSpec, build_ball, graph_capacity, parabolicity_scan, verify_transfer
from .condenser_solver import SolveOptions, solve_condenser
from .errors import NumericError, QcmodError, ValidationError
from .experiments import (
    MultiplicityModel,
    gamma1_experiment,
    hybrid_exponent_scan,
    ratio_experiment,
)
from .jsonio import matrix_from_json, write_csv, write_json
from .operator_core import OperatorTuple, condenser_from_json
from .plaplace import SmoothProblem, euler_lagrange_report, minimize_smooth
from .ri_norms import NormSpec, matrix_norm, vector_norm

COMMANDS = ("norm", "condenser", "graphcap", "transfer", "plaplace", "experiment")


class RunConfig:
    """Validated run description: command, payload, output dir, seed, overrides."""

    def __init__(self, command, payload, out_dir=".", seed=0, tol=None, max_iters=None, strict=False):
        self.command = command
        self.payload = payload
        self.out_dir = out_dir
        self.seed = int(seed)
        self.tol = tol
        self.max_iters = max_iters
        self.strict = bool(strict)

    def options(self, **defaults):
        base = dict(defaults)
        base.update(self.payload.get("options", {}))
        if self.tol is not None:
            base["tol"] = self.tol
        if self.max_iters is not None:
            base["max_iters"] = int(self.max_iters)
        base.setdefault("seed", self.seed)
        return SolveOptions.from_json(base)


def parse_config(command, payload, out_dir=".", seed=0, tol=None, max_iters=None, strict=False):
    """Validate a config, collecting every violation rather than the first."""
    errors = []
    if command not in COMMANDS:
        errors.append(f"unknown command {command!r}; allowed: {', '.join(COMMANDS)}")
    if not isinstance(payload, dict):
        errors.append("payload must be a JSON object")
        payload = {}

    def need(key, why):
        if key not in payload:
            errors.append(f"payload.{key} is required ({why})")
            return False
        return True

    def check_norm(obj, path):
        try:
            if isinstance(obj, list):
                for i, o in enumerate(obj):
                    NormSpec.from_json(o)
            else:
                NormSpec.from_json(obj)
        except (ValidationError, TypeError, KeyError) as exc:
            errors.append(f"payload.{path}: {exc}")

    if command == "norm":
        if "s" not in payload and "matrix" not in payload:
            errors.append('payload needs "s" (sequence) or "matrix"')
        if need("norm", "the norm to evaluate"):
            check_norm(payload["norm"], "norm")
    elif command == "condenser":
        for key, why in (("tuple", "operator tuple"), ("P", "inner plate"), ("Q", "outer plate"),
                         ("norm", "ideal norm(s)")):
            need(key, why)
        if "norm" in payload:
            check_norm(payload["norm"], "norm")
        if "tuple" in payload:
            try:
                OperatorTuple.from_json(payload["tuple"])
            except (ValidationError, TypeError, KeyError) as exc:
                errors.append(f"payload.tuple: {exc}")
    elif command == "graphcap":
        if need("group", "group description"):
            try:
                GroupSpec.from_json(payload["group"])
            except ValidationError as exc:
                errors.append(f"payload.group: {exc}")
        if "R_list" in payload:
            if "p" not in payload and "norm" not in payload:
                errors.append('scan payload needs "p" or a schatten "norm"')
        else:
            need("R", "ball radius")
            if need("norm", "capacity norm"):
                check_norm(payload["norm"], "norm")
    elif command == "transfer":
        for key in ("group", "R", "x1", "x2"):
            need(key, "transfer comparison input")
        if "norms" in payload:
            check_norm(payload["norms"], "norms")
        elif "norm" in payload:
            check_norm(payload["norm"], "norm")
        else:
            errors.append('payload needs "norm" or "norms"')
    elif command == "plaplace":
        for key in ("tuple", "P", "Q", "p"):
            need(key, "smooth problem input")
        if "p" in payload and not (isinstance(payload["p"], (int, float)) and payload["p"] >= 2):
            errors.append("payload.p must be a number >= 2")
    elif command == "experiment":
        if need("experiment", 'one of "gamma1", "ratio", "hybrid"'):
            if payload["experiment"] not in ("gamma1", "ratio", "hybrid"):
                errors.append(f'unknown experiment {payload["experiment"]!r}')

    if errors:
        raise ValidationError("invalid config:\n  " + "\n  ".join(errors), errors=errors)
    return RunConfig(command, payload, out_dir, seed, tol, max_iters, strict)


def _history_rows(history):
    return [(int(i), float(f), float(s)) for (i, f, s) in history]


def emit_series(path, header, rows):
    """Write a plot-ready CSV (two leading columns are x, y)."""
    write_csv(path, header, rows)
    return path


def _manifest(config, wall_time=None):
    man = {
        "seed": config.seed,
        "tol": config.tol,
        "max_iters": config.max_iters,
        "version": __version__,
        "command": config.command,
    }
    if wall_time is not None:
        man["wall_time"] = wall_time
    return man


def dispatch(config):
    """Run the configured command; write report.json (+ CSVs) into out_dir."""
    t0 = time.perf_counter()
    os.makedirs(config.out_dir, exist_ok=True)
    report_path = os.path.join(config.out_dir, "report.json")
    payload = config.payload
    report = {"command": config.command}
    nonconverged = False

    if config.command == "norm":
        spec = NormSpec.from_json(payload["norm"])
        if "s" in payload:
            value = vector_norm(np.asarray(payload["s"], dtype=float), spec)
        else:
            value = matrix_norm(matrix_from_json(payload["matrix"]), spec)
        report["value"] = float(value)
        print(format(value, ".17g"))

    elif config.command == "condenser":
        tau = OperatorTuple.from_json(payload["tuple"])
        cond = condenser_from_json(payload["P"], payload["Q"], tau.dim)
        norm_obj = payload["norm"]
        specs = (
            [NormSpec.from_json(o) for o in norm_obj]
            if isinstance(norm_obj, list)
            else NormSpec.from_json(norm_obj)
        )
        opts = config.options()
        rep = solve_condenser(tau, cond, specs, opts)
        hist_path = os.path.join(config.out_dir, "history.csv")
        emit_series(hist_path, ["iter", "objective", "step"], _history_rows(rep.history))
        report.update(rep.to_json(history_csv="history.csv"))
        nonconverged = not rep.converged

    elif config.command == "graphcap":
        group = GroupSpec.from_json(payload["group"])
        if "R_list" in payload:
            p = float(payload.get("p") or NormSpec.from_json(payload["norm"]).p)
            opts = config.options(max_iters=1500, tol=1e-8, restarts=1)
            scan = parabolicity_scan(group, p, payload.get("x1", "origin"), payload["R_list"], opts)
            series_path = os.path.join(config.out_dir, "series.csv")
            emit_series(
                series_path,
                ["R", "n_vertices", "value", "converged"],
                [(e["R"], e["n_vertices"], e["value"], e["converged"]) for e in scan["entries"]],
            )
            nonconverged = not all(e["converged"] for e in scan["entries"])
            report.update({
                "entries": scan["entries"],
                "classification": scan["classification"],
                "fit_exponent": scan["fit_exponent"],
                "fit_r2": scan["fit_r2"],
                "warnings": scan["warnings"],
                "series_csv": "series.csv",
            })
        else:
            ball = build_ball(group, int(payload["R"]), X1=payload.get("x1"), X2=payload.get("x2"))
            spec = NormSpec.from_json(payload["norm"])
            opts = config.options(max_iters=2000, tol=1e-8, restarts=2)
            rep = graph_capacity(ball, spec, opts)
            hist_path = os.path.join(config.out_dir, "history.csv")
            emit_series(hist_path, ["iter", "objective", "step"], _history_rows(rep.history))
            report.update(rep.to_json(history_csv="history.csv"))
            nonconverged = not rep.converged

    elif config.command == "transfer":
        group = GroupSpec.from_json(payload["group"])
        ball = build_ball(group, int(payload["R"]), X1=payload.get("x1"), X2=payload.get("x2"))
        norm_objs = payload.get("norms") or [payload["norm"]]
        opts = config.options(max_iters=3000, tol=1e-9, restarts=2)
        comparisons = []
        for obj in norm_objs:
            spec = NormSpec.from_json(obj)
            out = verify_transfer(ball, spec, opts)
            comparisons.append({
                "norm": spec.to_json(),
                "cap": float(out["cap"]),
                "k": float(out["k"]),
                "gap": float(out["gap"]),
                "inequality_ok": bool(out["inequality_ok"]),
                "converged": bool(out["cap_report"].converged and out["k_report"].converged),
            })
            nonconverged = nonconverged or not comparisons[-1]["converged"]
        report["comparisons"] = comparisons
        report["n_vertices"] = ball.n_vertices

    elif config.command == "plaplace":
        tau = OperatorTuple.from_json(payload["tuple"])
        cond = condenser_from_json(payload["P"], payload["Q"], tau.dim)
        prob = SmoothProblem(tau, cond, float(payload["p"]))
        opts = config.options(max_iters=20000, tol=1e-10, restarts=2)
        rep = minimize_smooth(prob, opts)
        el = euler_lagrange_report(prob, rep.minimizer)
        hist_path = os.path.join(config.out_dir, "history.csv")
        emit_series(hist_path, ["iter", "objective", "step"], _history_rows(rep.history))
        report.update(rep.to_json(history_csv="history.csv"))
        from .jsonio import matrix_to_json

        report["euler_lagrange"] = {
            "theta": matrix_to_json(el.Theta),
            "P1": matrix_to_json(el.P1),
            "Q1": matrix_to_json(el.Q1),
            "checks": el.checks,
            "compression_eigs": el.compression_eigs,
            "tolerances": el.tolerances,
            "flags": el.flags,
        }
        nonconverged = not rep.converged

    elif config.command == "experiment":
        kind = payload["experiment"]
        opts = config.options(max_iters=600, tol=1e-7, restarts=1)
        if kind == "gamma1":
            sched = payload.get("schedule", {})
            out = gamma1_experiment(
                sched.get("N_list", [64, 128, 256]),
                opts=opts,
                variant=payload.get("variant", "sawtooth"),
            )
            series_path = os.path.join(config.out_dir, "series.csv")
            rows = [
                (e["N"], v, bool(r.converged), out["estimate"])
                for e, v, r in zip(out["schedule"], out["values"], out["reports"])
            ]
            emit_series(series_path, ["scale", "value", "converged", "extrapolated"], rows)
            history_files = []
            for e, r in zip(out["schedule"], out["reports"]):
                name = f"history_N{e['N']}.csv"
                emit_series(os.path.join(config.out_dir, name),
                            ["iter", "objective", "step"], _history_rows(r.history))
                history_files.append(name)
            nonconverged = any(not r.converged for r in out["reports"])
            report.update({k: v for k, v in out.items() if k != "reports"})
            report["series_csv"] = "series.csv"
            report["history_csvs"] = history_files
        elif kind == "ratio":
            models = [MultiplicityModel.from_json(m) for m in payload["models"]]
            out = ratio_experiment(models, opts, n_scales=int(payload.get("n_scales", 3)))
            series_path = os.path.join(config.out_dir, "series.csv")
            rows = []
            history_files = []
            for r in out["rows"]:
                for i, v in enumerate(r["values"]):
                    rows.append((i, v, r["converged"], r["estimate"]))
                for i, hist in enumerate(r["histories"]):
                    name = f"history_{r['label']}_{i}.csv".replace(" ", "_")
                    emit_series(os.path.join(config.out_dir, name),
                                ["iter", "objective", "step"], _history_rows(hist))
                    history_files.append(name)
            emit_series(series_path, ["scale", "value", "converged", "extrapolated"], rows)
            report.update({
                "rows": [{k: v for k, v in r.items() if k != "histories"} for r in out["rows"]],
                "ratio_cv": out["ratio_cv"],
                "claim_level": out["claim_level"],
            })
            report["series_csv"] = "series.csv"
            report["history_csvs"] = history_files
            nonconverged = not all(r["converged"] for r in out["rows"])
        else:
            out = hybrid_exponent_scan(
                int(payload.get("gridsize", 8)),
                [tuple(ps) for ps in payload["exponent_sets"]],
                opts,
                swap=bool(payload.get("swap", False)),
            )
            report.update(out)
            nonconverged = not all(r["converged"] for r in out["results"])

    report["manifest"] = _manifest(config)
    write_json(report_path, report)
    wall = time.perf_counter() - t0
    write_json(os.path.join(config.out_dir, "manifest.json"), _manifest(config, wall_time=wall))
    if config.strict and nonconverged:
        return 3
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qcmod",
        description="Condenser moduli, Cayley-graph capacities, and matrix p-Laplace solves.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="path to a JSON payload file")
        sp.add_argument("--inline", help="inline JSON payload")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--strict", action="store_true")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--max-iters", type=int, default=None)
        if name == "graphcap":
            sp.add_argument("--group", help="group JSON (convenience flag)")
            sp.add_argument("--R", type=int, help="ball radius")
            sp.add_argument("--x1", help='inner plate ("origin" or JSON list)')
            sp.add_argument("--x2", help="outer plate")
            sp.add_argument("--norm", help="norm JSON")

    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 2

    try:
        if args.config and args.inline:
            raise ValidationError("give either --config or --inline, not both")
        if args.config:
            with open(args.config) as fh:
                payload = json.load(fh)
        elif args.inline:
            payload = json.loads(args.inline)
        elif args.command == "graphcap" and args.group:
            payload = {"group": json.loads(args.group)}
            if args.R is not None:
                payload["R"] = args.R
            if args.x1:
                payload["x1"] = args.x1 if args.x1 in ("origin", "identity", "e") else json.loads(args.x1)
            if args.x2:
                payload["x2"] = args.x2 if args.x2 in ("origin", "identity", "e") else json.loads(args.x2)
            if args.norm:
                payload["norm"] = json.loads(args.norm)
        else:
            raise ValidationError("a payload is required (--config PATH or --inline JSON)")
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: cannot read payload: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out
    if out_dir.endswith(".json"):
        # Convenience: --out report.json writes into its directory.
        out_dir = os.path.dirname(out_dir) or "."

    try:
        config = parse_config(
            args.command, payload, out_dir=out_dir, seed=args.seed,
            tol=args.tol, max_iters=args.max_iters, strict=args.strict,
        )
    except ValidationError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    try:
        return dispatch(config)
    except ValidationError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except QcmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
