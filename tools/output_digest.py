"""Print one sha256 per output file of a fixed set of qcmod CLI runs.

Usage:

    python tools/output_digest.py [--src PATH]

``--src`` is the source tree to run (the directory holding the ``qcmod``
package; default: this checkout's ``src``). Under each run's exit line the
values of its report.json that size a moved digest are printed (see
``VALUE_KEYS``). Each run is a fresh
``python -m qcmod`` process with BLAS pinned to one thread, writing into a
temporary directory. Every output file except
``manifest.json`` (it records wall time) is hashed; a run's exit code is
printed with its name. Running the script on two source trees and
diffing the output is the bit-identity check for changes that must not move
any number.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
         "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


#: report.json keys printed under each run, at the top level and inside each entry
#: of the lists named by ``VALUE_LISTS`` (transfer comparisons, scan entries,
#: experiment rows and results); ``feasibility_residuals`` puts each solve's
#: box and pin (or plate and spectral) residuals next to its values
VALUE_KEYS = ("value", "value_upper", "value_lower", "iters", "converged", "k", "k_lower", "cap",
              "cap_lower", "matrix_solve", "values", "estimate", "feasibility_residuals")
VALUE_LISTS = ("comparisons", "entries", "rows", "results")


def report_values(report):
    """``key = value`` lines of the ``VALUE_KEYS`` scalars of one report.json
    object, each value written as JSON (floats in their shortest round-trip form)."""

    def pick(obj, prefix):
        return [f"{prefix}{k} = {json.dumps(obj[k])}" for k in VALUE_KEYS if k in obj]

    lines = pick(report, "")
    for name in VALUE_LISTS:
        for i, entry in enumerate(report.get(name) or ()):
            lines += pick(entry, f"{name}[{i}].")
    return lines


def _matrix(M):
    M = np.asarray(M)
    obj = {"re": np.real(M).tolist()}
    if np.iscomplexobj(M):
        obj["im"] = np.imag(M).tolist()
    return obj


def runs():
    """(name, command, payload) of every run, in a fixed order."""
    d = 6
    path = np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1)
    ramp = np.diag(np.cos(np.arange(d)))
    twist = path + 1j * (np.diag(np.ones(d - 1), 1) - np.diag(np.ones(d - 1), -1)) * 0.5
    hop = np.diag(np.ones(d - 2), 2) + np.diag(np.ones(d - 2), -2)
    one = {"components": [_matrix(path)]}
    two = {"components": [_matrix(path), _matrix(ramp)]}
    # hop alone commutes with the projection onto the even sites, but next to
    # path both components reach the max at the minimizer
    tied = {"components": [_matrix(path), _matrix(2 * hop)]}
    plates = {"P": {"basis_indices": [0]}, "Q": {"basis_indices": [d - 1]}}
    opts = {"max_iters": 400, "restarts": 2}
    s1, s2, s3 = ({"kind": "schatten", "p": p} for p in (1, 2, 3))
    lorentz = {"kind": "lorentz_p1", "p": 2}
    # shorter than every vector it meets, so the weights are padded with zeros
    weights = {"kind": "weights", "weights": [1.0, 0.5, 0.25]}
    z = lambda dim: {"kind": "Z^d", "d": dim}
    f2 = {"kind": "free", "k": 2}
    cantor = {"kind": "cantor_product", "n": 2, "ratio": 1 / 3, "pieces": 2, "depth": 1}
    # a complex rank-one plate: the only run on the complex start draw and the
    # matrix-projection path
    v = (np.eye(d)[0] + 1j * np.eye(d)[1]) / np.sqrt(2)
    # P = e1 and Q = 0 on a dense real 3 x 3 component: A = I commutes, so the
    # modulus is 0 and the solve's value and lower bound are roundoff-sized
    zero_modulus = {"tuple": {"components": [_matrix(np.random.default_rng(0).standard_normal((3, 3)))]},
                    "P": {"basis_indices": [0]}, "Q": {"basis_indices": []}, "norm": {"kind": "macaev"},
                    "options": {"max_iters": 50, "tol": 1e-3, "restarts": 1, "refine": False}}
    return [
        ("norm_s_lorentz", "norm", {"s": [3.0, -1.0, 2.5, 0.5, -4.0], "norm": lorentz}),
        ("norm_matrix_s3", "norm", {"matrix": _matrix(twist), "norm": s3}),
        ("condenser_s1", "condenser", dict(plates, tuple=two, norm=s1, options=opts)),
        ("condenser_lorentz", "condenser", dict(plates, tuple=one, norm=lorentz, options=opts)),
        ("condenser_s2", "condenser", dict(plates, tuple=tied, norm=s2, options=opts)),
        ("condenser_hybrid_s1_s3", "condenser", dict(plates, tuple=tied, norm=[s1, s3], options=opts)),
        ("condenser_macaev", "condenser",
         dict(plates, tuple={"components": [_matrix(twist)]}, norm={"kind": "macaev"}, options=opts)),
        ("condenser_weights", "condenser", dict(plates, tuple=one, norm=weights, options=opts)),
        ("condenser_s2_norefine", "condenser",
         dict(plates, tuple=tied, norm=s2, options=dict(opts, refine=False))),
        ("condenser_complex_plate", "condenser",
         {"tuple": one, "P": _matrix(np.outer(v, v.conj())), "Q": {"basis_indices": [d - 1]},
          "norm": s1, "options": opts}),
        ("condenser_zero_modulus", "condenser", zero_modulus),
        ("graphcap_z3_R14_s2", "graphcap", {"group": z(3), "R": 14, "x1": "origin", "norm": s2}),
        ("graphcap_z2_R6_s1", "graphcap", {"group": z(2), "R": 6, "x1": "origin", "norm": s1}),
        ("graphcap_z2_R6_s1_norefine", "graphcap",
         {"group": z(2), "R": 6, "x1": "origin", "norm": s1, "options": {"refine": False}}),
        # SolveOptions() itself, where the graph's point bound once read an ulp above the capacity 2
        ("graphcap_z2_R6_s1_default", "graphcap",
         {"group": z(2), "R": 6, "x1": "origin", "norm": s1,
          "options": {"tol": 1e-7, "max_iters": 2000, "restarts": 2}}),
        ("graphcap_z2_R6_s3", "graphcap", {"group": z(2), "R": 6, "x1": "origin", "norm": s3}),
        ("graphcap_f2_R3_lorentz", "graphcap",
         {"group": f2, "R": 3, "x1": "origin", "x2": {"sphere": 3}, "norm": lorentz}),
        ("graphcap_z2_R4_weights", "graphcap", {"group": z(2), "R": 4, "x1": "origin", "norm": weights}),
        # an explicit vertex list, resolved through the ball's vertex index
        ("graphcap_z2_R4_x1_list", "graphcap",
         {"group": z(2), "R": 4, "x1": [[0, 0], [1, 0], [0, -1]], "norm": s2}),
        ("graphcap_z2_scan", "graphcap", {"group": z(2), "R_list": [3, 4, 5, 6], "p": 2}),
        ("transfer_f2_R3_lorentz", "transfer",
         {"group": f2, "R": 3, "x1": "origin", "x2": {"sphere": 3}, "norm": lorentz,
          "options": {"restarts": 1}}),
        ("transfer_f2_R3_s1", "transfer",
         {"group": f2, "R": 3, "x1": "origin", "x2": {"sphere": 3}, "norm": s1}),
        # X1 off the origin: the graph duals leave k's bracket open, so the
        # matrix solve runs
        ("transfer_f2_R3_s1_fallback", "transfer",
         {"group": f2, "R": 3, "x1": [[1]], "x2": {"sphere": 3}, "norm": s1}),
        ("transfer_f2_R6_s2", "transfer",
         {"group": f2, "R": 6, "x1": "origin", "x2": {"sphere": 6}, "norm": s2}),
        ("transfer_z_R8", "transfer",
         {"group": z(1), "R": 8, "x1": "origin", "x2": {"radius_at_least": 6}, "norms": [s2, s1]}),
        ("plaplace_p2", "plaplace", dict(plates, tuple=two, p=2)),
        ("plaplace_p3", "plaplace", dict(plates, tuple=two, p=3)),
        ("plaplace_p4", "plaplace", dict(plates, tuple=two, p=4)),
        ("plaplace_closed_form", "plaplace",
         {"tuple": two, "P": {"basis_indices": []}, "Q": {"basis_indices": [d - 1]}, "p": 3}),
        ("experiment_gamma1", "experiment", {"experiment": "gamma1", "schedule": {"N_list": [32, 48, 64]}}),
        ("experiment_ratio", "experiment",
         {"experiment": "ratio", "n_scales": 3, "options": {"max_iters": 200},
          "models": [{"kind": "box_step", "label": "m1", "position_variant": "triangle"},
                     {"kind": "box_step", "scale": 0.5, "label": "half",
                      "position_variant": "triangle"}]}),
        ("experiment_hybrid", "experiment",
         {"experiment": "hybrid", "gridsize": 4, "exponent_sets": [[2, 2], [3, 1.5]]}),
        ("experiment_hybrid_swap", "experiment",
         {"experiment": "hybrid", "gridsize": 4, "exponent_sets": [[3, 1.5]], "swap": True}),
        ("experiment_ratio_cantor", "experiment",
         {"experiment": "ratio", "n_scales": 2, "options": {"max_iters": 100},
          "models": [dict(cantor, label="c1"), dict(cantor, multiplicity=2, label="c2")]}),
        ("experiment_ratio_box", "experiment",
         {"experiment": "ratio", "n_scales": 3, "options": {"max_iters": 100},
          "models": [{"kind": "box_step", "multiplicity": [1, 2, 0],
                      "cell_lengths": [0.5, 0.3, 0.2], "label": "steps"},
                     {"kind": "box_step", "label": "flat"}]}),
        ("experiment_gamma1_two", "experiment",
         {"experiment": "gamma1", "schedule": {"N_list": [24, 32]}}),
    ]


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    env.update({k: "1" for k in _PINS})
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, payload in runs():
            out = os.path.join(tmp, name)
            proc = subprocess.run(
                [sys.executable, "-m", "qcmod", command, "--inline", json.dumps(payload),
                 "--out", out, "--seed", "0"],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            print(f"# {name}: exit {proc.returncode}", flush=True)
            if proc.returncode not in (0, 3):
                sys.stderr.write(proc.stderr)
            report = os.path.join(out, "report.json")
            if os.path.isfile(report):
                with open(report) as fh:
                    for line in report_values(json.load(fh)):
                        print(f"    {line}", flush=True)
            for fname in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                if fname == "manifest.json":
                    continue
                with open(os.path.join(out, fname), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {name}/{fname}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
