"""One benchmark process for one workload: set up, warm up, measure, check.

run.py starts this script in a fresh process with BLAS and qcmod pinned to
one thread in its environment. It prints one line, ``PERFBENCH_RESULT``
followed by a JSON object. With ``--setup-only`` it stops after set-up.

Untraced (``--trace 0``): whole units run until the next one would end past
``--seconds``; the end-to-end metrics come from that timed phase. Traced
(``--trace 1``): a fixed number of units runs untraced, then the tracer is
installed and set-up, the same units and their checks run again traced.
Checks always run after the timed phase, never inside it.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Units a traced run executes. Fixed, so that traced totals compare across
# commits; small enough that a traced run stays well inside 180 s.
TRACE_UNITS = {"small_batch": 4, "gamma1_dense": 1, "cayley_transfer": 1}

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "QCMOD_THREADS")


def run_units(wl, seconds=None, units=None):
    """Run whole units: ``units`` of them, or while the next would end by ``seconds``.

    Returns the operation records (kind, input, seconds, output, error), the
    wall time of each unit, and the wall time of the loop.
    """
    records, unit_times = [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        u0 = time.perf_counter()
        for kind, inp, fn in wl.unit(i):
            t0 = time.perf_counter()
            try:
                out, err = fn(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            records.append((kind, inp, time.perf_counter() - t0, out, err))
        unit_times.append(time.perf_counter() - u0)
        i += 1
        if units is not None:
            if i >= units:
                break
        elif time.perf_counter() - t_start + statistics.median(unit_times) > seconds:
            break
    return records, unit_times, time.perf_counter() - t_start


def check_all(wl, records):
    """Check every operation; returns one message per failed operation."""
    failures = []
    for kind, inp, _, out, err in records:
        if err is None:
            try:
                err = wl.check(kind, inp, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"{kind}: {err}")
    return failures


def tail_percentile(times):
    """(percentile, value): the highest percentile up to 95 with at least ten
    samples beyond it, by nearest rank; the maximum when there are at most ten."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    q = min(95, math.floor(100 * (n - 10) / n))
    return q, xs[math.ceil(q * n / 100) - 1]


def git_commit():
    """Commit of the checkout from .git, without running git; None outside a clone."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def machine_info(np, scipy):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "pins": {k: os.environ.get(k) for k in PIN_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
    }


def traced_modules():
    import tracer

    names = ["qcmod", "numpy.linalg", "numpy.linalg._linalg", "scipy.linalg",
             "scipy.optimize", "scipy.sparse.linalg", *tracer.LAYER_MODULES.values()]
    return {n: sys.modules[n] for n in names}


def emit(obj):
    print("PERFBENCH_RESULT " + json.dumps(obj), flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # Set-up: importing qcmod (numpy and scipy with it) and building inputs.
    t0 = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import workloads
    import qcmod

    if not os.path.abspath(qcmod.__file__).startswith(src + os.sep):
        raise SystemExit(f"qcmod was imported from {qcmod.__file__}, not from {src}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = cls(args.seed, workdir)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            emit({"setup_s": setup_s})
            return
        result = measure(args, cls, wl, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another worker's directory is still there
            pass
    import numpy
    import scipy

    result["info"] = machine_info(numpy, scipy)
    emit(result)


def measure(args, cls, wl, workdir, setup_s):
    import tracer

    modules = traced_modules()
    errors = [f"wrapper present in an untraced run: {name}"
              for name in tracer.leaked_wrappers(modules)]
    wl.warmup()
    if not args.trace:
        records, unit_times, wall = run_units(wl, seconds=args.seconds)
        failures = check_all(wl, records)
        times = [r[2] for r in records]
        q, tail = tail_percentile(times)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(records) / wall,
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # Workloads without a benchmark-computed dual bound use the trivial
            # bound 0, so their relative gap is 1.
            "gap_rel": statistics.median(wl.gaps) if getattr(wl, "gaps", None) else 1.0,
        }
        detail = {"samples": len(times), "op_p95_s": tail, "op_p95_s_percentile": q, "wall_s": wall,
                  "unit_s": unit_times}
        attempted = len(records)
    else:
        units = TRACE_UNITS[args.workload]
        records, _, wall = run_units(wl, units=units)
        failures = check_all(wl, records)
        tr = tracer.Tracer()
        tr.install(modules)
        try:
            t1 = time.perf_counter()
            wl_traced = cls(args.seed, workdir)
            traced_records, _, traced_ops_wall = run_units(wl_traced, units=units)
            failures += check_all(wl_traced, traced_records)
            traced_wall = time.perf_counter() - t1
        finally:
            errors += [f"attribute not restored: {name}" for name in tr.uninstall()]
        errors += [f"wrapper left after uninstall: {name}"
                   for name in tracer.leaked_wrappers(modules)]
        if tr.foreign_thread_calls:
            errors.append(f"{tr.foreign_thread_calls} traced calls ran on another thread")
        metrics, layer_self = tracer.aggregate(tr, traced_wall)
        metrics["trace.overhead_ratio"] = traced_ops_wall / wall
        if metrics["trace.accounting_err"] > 0.01:
            errors.append(f"layer self times miss the wall time by {metrics['trace.accounting_err']:.2%}")
        detail = {"traced_ops": len(traced_records), "untraced_wall_s": wall,
                  "traced_ops_wall_s": traced_ops_wall,
                  "traced_wall_s": traced_wall, "layer_self_s": layer_self}
        attempted = len(records) + len(traced_records)
    kinds = {}
    for r in records:
        kinds.setdefault(r[0], []).append(r[2])
    detail.update(ops_by_kind={k: len(v) for k, v in kinds.items()},
                  op_s_by_kind=kinds,
                  qcmod_el_rejections=getattr(wl, "qcmod_el_rejections", 0),
                  failures=failures[:10], benchmark_errors=errors)
    return {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "detail": detail,
    }


if __name__ == "__main__":
    main()
