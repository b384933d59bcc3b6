"""Benchmark entry point for qcmod.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: small_batch, gamma1_dense, cayley_transfer (see README.md).
Each run starts fresh worker processes with BLAS and qcmod pinned to one
thread. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give every metric with its unit, the share of failed operations,
and the machine and settings of the run.

Exits with a non-zero code, printing no result, when the checkout holds no
qcmod sources or a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("small_batch", "gamma1_dense", "cayley_transfer")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "gap_rel": "1",
    "setup_s": "s",
}

PER_LAYER = {
    "linalg.svd.calls": "count",
    "linalg.svd.self_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigh.self_s": "s",
    "linalg.self_s": "s",
    "linalg.flops_computed": "flop",
    "ri_norms.calls": "count",
    "ri_norms.self_s": "s",
    "operator_core.project_middle.calls": "count",
    "operator_core.project_middle.self_s": "s",
    "operator_core.embed_middle.calls": "count",
    "operator_core.embed_middle.self_s": "s",
    "operator_core.make_condenser_s": "s",
    "operator_core.self_s": "s",
    "solvers.runs": "count",
    "solvers.iters": "count",
    "solvers.fg_calls": "count",
    "solvers.fg_per_iter": "1",
    "solvers.self_s": "s",
    "solvers.iters_per_s": "1/s",
    "condenser_solver.solves": "count",
    "condenser_solver.self_s": "s",
    "condenser_solver.refine_share": "1",
    "cayley.build_ball_s": "s",
    "cayley.graph_capacity.self_s": "s",
    "cayley.lbfgsb_s": "s",
    "cayley.oracle_s": "s",
    "cayley.truncated_regular_rep_s": "s",
    "cayley.self_s": "s",
    "plaplace.theta.calls": "count",
    "plaplace.theta.self_s": "s",
    "plaplace.smooth_objective.calls": "count",
    "plaplace.smooth_objective.self_s": "s",
    "plaplace.euler_lagrange_s": "s",
    "plaplace.self_s": "s",
    "experiments.timefreq_problem_s": "s",
    "cli.dispatch.self_s": "s",
    "jsonio.write_s": "s",
    "jsonio.bytes_written": "B",
    "trace.overhead_ratio": "1",
    "trace.accounting_err": "1",
    "trace.untraced_remainder_s": "s",
    "trace.spans": "count",
}

# set-up is measured in this many fresh processes (the measuring worker and
# set-up-only probes); the median is reported. Each takes under a second, so
# one sample lands in or out of a slow spell of the shared host by chance;
# the median of seven follows the run's usual speed.
SETUP_SAMPLES = 7
# a run must end within 180 s; the workers share this budget
DEADLINE_S = 170.0

PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "QCMOD_THREADS": "1",
    # qcmod is compiled from source in every worker, so set-up time does not
    # depend on whether an earlier run left bytecode in the checkout
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    pass


def run_worker(args, deadline, setup_only=False):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("PERFBENCH_RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode} and {len(lines)} result lines")
    return json.loads(lines[-1][len("PERFBENCH_RESULT "):])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qcmod", "__init__.py")):
        print(f"error: no qcmod sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probes.append(run_worker(args, deadline, setup_only=True))
        res = run_worker(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    names = PER_LAYER if args.trace else END_TO_END
    measured = res["metrics"]
    if not args.trace:
        setup = [p["setup_s"] for p in probes] + [measured["setup_s"]]
        measured["setup_s"] = statistics.median(setup)
        res["detail"]["setup_s_samples"] = setup
    missing = [n for n in names if n not in measured]
    if missing:
        print(f"error: worker did not report {missing}", file=sys.stderr)
        return 1
    metrics = {n: {"value": measured[n], "unit": u} for n, u in names.items()}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for n, m in metrics.items():
        print(f"  {n:40s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        d = res["detail"]
        print(f"  {'op_p95_s (not a listed metric)':40s} {d['op_p95_s']:.6g} s "
              f"(p{d['op_p95_s_percentile']} of {d['samples']} operations)")
    print(f"  {'fail_ratio':40s} {res['failed'] / res['attempted']:.6g} 1 "
          f"({res['failed']} of {res['attempted']} operations)")
    if res["detail"]["qcmod_el_rejections"]:
        print(f"  NOTE qcmod's own Euler-Lagrange checks rejected "
              f"{res['detail']['qcmod_el_rejections']} minimizers that pass the benchmark's "
              f"first-order certificate (see README.md, Checks)")
    for msg in res["detail"]["failures"] + res["detail"]["benchmark_errors"]:
        print(f"  FAILED {msg}")
    print("record " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace,
                                  "info": res["info"], "detail": res["detail"]}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
