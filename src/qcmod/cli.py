"""Command-line entry point: parse configs, dispatch solves, write artifacts.

Every run writes report.json (deterministic bytes for identical config and
seed) plus a manifest.json recording seed, tolerances, version, and wall time;
solves additionally write history.csv, scans/sweeps write series CSVs.
``COMMANDS`` maps each command to its payload reader (see ``parse_config``).

Exit codes: 0 success, 2 invalid config, 3 non-convergence under --strict,
4 numeric failure.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cayley import (GroupSpec, build_ball, graph_capacity, parabolicity_scan, scan_radii,
                     verify_transfer)
from .condenser_solver import SolveOptions, solve_condenser
from .errors import NumericError, QcmodError, ValidationError
from .experiments import (
    MultiplicityModel,
    gamma1_experiment,
    gamma1_schedule,
    hybrid_exponent_scan,
    hybrid_exponents,
    hybrid_gridsize,
    ratio_experiment,
    ratio_problems,
)
from .jsonio import (as_bool, as_int, matrix_from_json, matrix_to_json, projection_from_json,
                     write_csv, write_json)
from .operator_core import OperatorTuple, make_condenser
from .plaplace import SmoothProblem, euler_lagrange_report, minimize_smooth
from .ri_norms import NormSpec, matrix_norm, vector_norm

_REQUIRED = object()


@dataclass
class RunConfig:
    """A validated run: the command, the function running it with its inputs
    (library objects), the solver options of the payload and flags, and the
    manifest (seed, tol and max_iters flags, version, command)."""

    command: str
    run: object
    inputs: dict
    solve_options: dict
    manifest: dict
    out_dir: str = "."
    strict: bool = False

    def options(self, **defaults):
        """SolveOptions: the command's defaults, overridden by the payload and flags."""
        return SolveOptions.from_json({**defaults, **self.solve_options})


class _Reader:
    """Reads a payload's fields (``used``: the keys asked for), collecting every
    missing or malformed one as ``payload.<key>: ...``; a field in error reads as None."""

    def __init__(self, payload):
        self.payload = payload
        self.errors = []
        self.used = set()

    def __call__(self, key, read=lambda v: v, default=_REQUIRED):
        """``read(payload[key])``, else ``default``; a required key has none."""
        self.used.add(key)
        if key in self.payload:
            return self.build(key, read, self.payload[key])
        if default is _REQUIRED:
            self.errors.append(f"payload.{key} is required")
            return None
        return default

    def build(self, label, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``; what reading JSON values raises becomes an
        error of payload.<label>."""
        try:
            return fn(*args, **kwargs)
        except (ValidationError, TypeError, ValueError, KeyError) as exc:
            reason = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
            self.errors.append(f"payload.{label}: {reason}")
            return None


def _ints(v):
    if not isinstance(v, list):
        raise TypeError(f"expected a list of integers, got {v!r}")
    return [as_int(x, "each entry") for x in v]


def _sequence(v):
    s = np.asarray(v, dtype=float)
    if s.ndim != 1:
        raise ValueError(f"expected a list of numbers, got {v!r}")
    return s


def _object(v):
    if not isinstance(v, dict):
        raise TypeError(f"expected a JSON object, got {v!r}")
    return v


def _choice(*allowed):
    def read(v):
        if v not in allowed:
            raise ValueError(f"{v!r} is not one of {', '.join(allowed)}")
        return v

    return read


def _specs(v):
    """One norm spec, or a nonempty list of per-component specs."""
    if not isinstance(v, list):
        return NormSpec.from_json(v)
    if not v:
        raise ValidationError("expected a norm or a nonempty list of norms, got []")
    return [NormSpec.from_json(o) for o in v]


def _schatten_p(v):
    """A capacity scan's exponent: a number p, or a schatten norm's p."""
    spec = NormSpec.from_json(v) if isinstance(v, dict) else NormSpec.schatten(v)
    if spec.kind != "schatten":
        raise ValidationError(f"a capacity scan needs a schatten norm, got {spec.kind!r}")
    return spec.p


def _write_history(config, name, history):
    rows = [(int(i), float(f), float(s)) for (i, f, s) in history]
    write_csv(os.path.join(config.out_dir, name), ["iter", "objective", "step"], rows)


def _solve_fields(config, rep):
    """Write a solve's history.csv; its report fields."""
    _write_history(config, "history.csv", rep.history)
    return rep.to_json(history_csv="history.csv")


def _series_fields(config, rows, histories):
    """Write a sweep's series.csv (rows of scale, value, converged, extrapolated)
    and each (name, history) file; the report fields naming them."""
    write_csv(os.path.join(config.out_dir, "series.csv"),
              ["scale", "value", "converged", "extrapolated"], rows)
    for name, history in histories:
        _write_history(config, name, history)
    return {"series_csv": "series.csv", "history_csvs": [name for name, _ in histories]}


# Each command's reader returns the function that runs it and its inputs.


def _read_tuple_condenser(r):
    tau = r("tuple", OperatorTuple.from_json)
    P, Q = r("P", projection_from_json), r("Q", projection_from_json)
    if any(x is None for x in (tau, P, Q)):  # P and Q may be arrays: no ``None in``
        return tau, None
    return tau, r.build("P/Q", make_condenser, P, Q, dim=tau.dim)


def _read_ball(r):
    group, R = r("group", GroupSpec.from_json), r("R", lambda v: as_int(v, "R"))
    X1, X2 = r("x1", default=None), r("x2", default=None)
    if group is not None and R is not None:
        return r.build("R/x1/x2", build_ball, group, R, X1=X1, X2=X2)


def _read_norm(r):
    if "s" not in r.payload and "matrix" not in r.payload:
        r.errors.append('payload needs "s" (sequence) or "matrix"')
    return _norm, {"spec": r("norm", NormSpec.from_json), "s": r("s", _sequence, None),
                   "matrix": None if "s" in r.payload else r("matrix", matrix_from_json, None)}


def _norm(config, spec, s, matrix):
    value = vector_norm(s, spec) if s is not None else matrix_norm(matrix, spec)
    print(format(value, ".17g"))
    return {"value": float(value)}, False


def _read_condenser(r):
    tau, cond = _read_tuple_condenser(r)
    return _condenser, {"tau": tau, "cond": cond, "specs": r("norm", _specs)}


def _condenser(config, tau, cond, specs):
    rep = solve_condenser(tau, cond, specs, config.options())
    return _solve_fields(config, rep), not rep.converged


def _read_graphcap(r):
    if "R_list" not in r.payload:
        return _graphcap, {"ball": _read_ball(r), "spec": r("norm", NormSpec.from_json)}
    group, R_list = r("group", GroupSpec.from_json), r("R_list", lambda v: scan_radii(_ints(v)))
    p = r("p" if "p" in r.payload else "norm", _schatten_p)
    x1 = r("x1", default="origin")
    if group is not None and R_list:
        r.build("x1", build_ball, group, R_list[0], X1=x1)  # the scan's first ball checks x1
    return _graphcap_scan, {"group": group, "R_list": R_list, "p": p, "x1": x1}


def _graphcap(config, ball, spec):
    rep = graph_capacity(ball, spec, config.options(max_iters=2000, tol=1e-8, restarts=2))
    return _solve_fields(config, rep), not rep.converged


def _graphcap_scan(config, group, R_list, p, x1):
    opts = config.options(max_iters=1500, tol=1e-8, restarts=1)
    scan = parabolicity_scan(group, p, x1, R_list, opts)
    entries = scan["entries"]
    write_csv(os.path.join(config.out_dir, "series.csv"), ["R", "n_vertices", "value", "converged"],
              [(e["R"], e["n_vertices"], e["value"], e["converged"]) for e in entries])
    fields = {k: scan[k] for k in ("entries", "classification", "fit_exponent", "fit_r2",
                                   "warnings")}
    return {**fields, "series_csv": "series.csv"}, not all(e["converged"] for e in entries)


def _read_transfer(r):
    specs = r("norms" if "norms" in r.payload else "norm", _specs)
    return _transfer, {"ball": _read_ball(r),
                       "specs": specs if isinstance(specs, list) else [specs]}


def _transfer(config, ball, specs):
    opts = config.options(max_iters=3000, tol=1e-9, restarts=2)
    comparisons = []
    for spec in specs:
        out = verify_transfer(ball, spec, opts)
        comparisons.append({
            "norm": spec.to_json(),
            "cap": float(out["cap"]),
            "cap_lower": float(out["cap_lower"]),
            "k": float(out["k"]),
            "k_lower": float(out["k_lower"]),
            "gap": float(out["gap"]),
            "inequality_ok": bool(out["inequality_ok"]),
            "matrix_solve": bool(out["matrix_solve"]),
            "converged": bool(out["cap_report"].converged and out["k_report"].converged),
        })
    return ({"comparisons": comparisons, "n_vertices": ball.n_vertices},
            not all(c["converged"] for c in comparisons))


def _read_plaplace(r):
    tau, cond = _read_tuple_condenser(r)
    return _plaplace, {"tau": tau, "cond": cond, "p": r("p", float)}


def _plaplace(config, tau, cond, p):
    prob = SmoothProblem(tau, cond, p)
    rep = minimize_smooth(prob, config.options(max_iters=20000, tol=1e-10, restarts=2))
    el = euler_lagrange_report(prob, rep.minimizer)
    fields = _solve_fields(config, rep)
    fields["euler_lagrange"] = {
        "theta": matrix_to_json(el.Theta),
        "P1": matrix_to_json(el.P1),
        "Q1": matrix_to_json(el.Q1),
        "checks": el.checks,
        "compression_eigs": el.compression_eigs,
        "tolerances": el.tolerances,
        "flags": el.flags,
    }
    return fields, not rep.converged


def _read_experiment(r):
    kind = r("experiment", _choice("gamma1", "ratio", "hybrid"))
    if kind == "gamma1":
        schedule = r("schedule", _object, {}) or {}
        N_list = r.build("schedule.N_list", _ints, schedule.get("N_list", [64, 128, 256]))
        if N_list is not None:
            r.build("schedule.N_list", gamma1_schedule, N_list)
        return _gamma1, {"N_list": N_list,
                         "variant": r("variant", _choice("sawtooth", "triangle"), "sawtooth")}
    if kind == "ratio":
        models = r("models", lambda v: [MultiplicityModel.from_json(m) for m in v])
        n_scales = r("n_scales", lambda v: as_int(v, "n_scales"), 3)
        if models is not None and n_scales is not None:
            # an empty spectrum shows once built; building twice costs milliseconds
            r.build("models/n_scales", ratio_problems, models, n_scales)
        return _ratio, {"models": models, "n_scales": n_scales}
    if kind == "hybrid":
        return _hybrid, {
            "gridsize": r("gridsize", hybrid_gridsize, 8),
            "exponent_sets": r("exponent_sets",
                               lambda v: hybrid_exponents([tuple(map(float, ps)) for ps in v])),
            "swap": r("swap", lambda v: as_bool(v, "swap"), False),
        }
    return None, {}


_EXPERIMENT_DEFAULTS = {"max_iters": 600, "tol": 1e-7, "restarts": 1}


def _gamma1(config, N_list, variant):
    out = gamma1_experiment(N_list, opts=config.options(**_EXPERIMENT_DEFAULTS), variant=variant)
    reports = out.pop("reports")
    rows = [(e["N"], v, bool(rep.converged), out["estimate"])
            for e, v, rep in zip(out["schedule"], out["values"], reports)]
    histories = [(f"history_N{e['N']}.csv", rep.history)
                 for e, rep in zip(out["schedule"], reports)]
    return ({**out, **_series_fields(config, rows, histories)},
            any(not rep.converged for rep in reports))


def _ratio(config, models, n_scales):
    out = ratio_experiment(models, config.options(**_EXPERIMENT_DEFAULTS), n_scales=n_scales)
    rows, histories = [], []
    for row in out["rows"]:
        rows += [(i, v, row["converged"], row["estimate"]) for i, v in enumerate(row["values"])]
        histories += [(f"history_{row['label']}_{i}.csv".replace(" ", "_"), hist)
                      for i, hist in enumerate(row.pop("histories"))]
    fields = {"rows": out["rows"], "ratio_cv": out["ratio_cv"], "claim_level": out["claim_level"]}
    return ({**fields, **_series_fields(config, rows, histories)},
            not all(row["converged"] for row in out["rows"]))


def _hybrid(config, gridsize, exponent_sets, swap):
    out = hybrid_exponent_scan(gridsize, exponent_sets, config.options(**_EXPERIMENT_DEFAULTS),
                               swap=swap)
    return out, not all(r["converged"] for r in out["results"])


COMMANDS = {
    "norm": _read_norm,
    "condenser": _read_condenser,
    "graphcap": _read_graphcap,
    "transfer": _read_transfer,
    "plaplace": _read_plaplace,
    "experiment": _read_experiment,
}


def parse_config(command, payload, out_dir=".", seed=0, tol=None, max_iters=None, strict=False):
    """Read the payload once into the command's inputs, collecting every
    missing, malformed or unread top-level field rather than the first."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}; allowed: {', '.join(COMMANDS)}")
    r = _Reader(payload if isinstance(payload, dict) else {})
    if not isinstance(payload, dict):
        r.errors.append("payload must be a JSON object")
    run, inputs = COMMANDS[command](r)
    options = {"seed": int(seed), **(r("options", _object, {}) or {})}
    r.errors += [f"payload.{key}: not read by {command} (unknown, or an alternative to a key given)"
                 for key in r.payload if key not in r.used]
    if tol is not None:
        options["tol"] = tol
    if max_iters is not None:
        options["max_iters"] = int(max_iters)
    r.build("options", SolveOptions.from_json, options)
    if r.errors:
        raise ValidationError("invalid config:\n  " + "\n  ".join(r.errors), errors=r.errors)
    manifest = {"seed": int(seed), "tol": tol, "max_iters": max_iters, "version": __version__,
                "command": command}
    return RunConfig(command, run, inputs, options, manifest, out_dir, bool(strict))


def dispatch(config):
    """Run the configured command; write report.json (+ CSVs) into out_dir."""
    t0 = time.perf_counter()
    os.makedirs(config.out_dir, exist_ok=True)
    fields, nonconverged = config.run(config, **config.inputs)
    write_json(os.path.join(config.out_dir, "report.json"),
               {"command": config.command, **fields, "manifest": config.manifest})
    write_json(os.path.join(config.out_dir, "manifest.json"),
               {**config.manifest, "wall_time": time.perf_counter() - t0})
    return 3 if config.strict and nonconverged else 0


def _plate(v):
    return v if v in ("origin", "identity", "e") else json.loads(v)


def _read_payload(args):
    """The JSON payload of --config, --inline or graphcap's convenience flags."""
    if args.config and args.inline:
        raise ValidationError("give either --config or --inline, not both")
    if args.config:
        with open(args.config) as fh:
            return json.load(fh)
    if args.inline:
        return json.loads(args.inline)
    if args.command != "graphcap" or not args.group:
        raise ValidationError("a payload is required (--config PATH or --inline JSON)")
    payload = {"group": json.loads(args.group)}
    if args.R is not None:
        payload["R"] = args.R
    if args.x1:
        payload["x1"] = _plate(args.x1)
    if args.x2:
        payload["x2"] = _plate(args.x2)
    if args.norm:
        payload["norm"] = json.loads(args.norm)
    return payload


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

    out_dir = args.out
    if out_dir.endswith(".json"):
        # Convenience: --out report.json writes into its directory.
        out_dir = os.path.dirname(out_dir) or "."

    try:
        payload = _read_payload(args)
    except (json.JSONDecodeError, OSError, ValidationError) as exc:
        print(f"error: cannot read payload: {exc}", file=sys.stderr)
        return 2

    try:
        return dispatch(parse_config(args.command, payload, out_dir=out_dir, seed=args.seed,
                                     tol=args.tol, max_iters=args.max_iters, strict=args.strict))
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
