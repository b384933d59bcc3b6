"""Span tracer for the traced benchmark run.

The tracer wraps functions where callers look them up: every module namespace
that holds the original object (``qcmod.condenser_solver.matrix_norm`` as
well as ``qcmod.ri_norms.matrix_norm``), class attributes for methods, and
the numpy/scipy attributes that qcmod reads at call time
(``numpy.linalg.svd``, ``scipy.optimize.minimize``). Nothing under ``src/``
changes. Each span records a name, layer, start, end, parent and self time
(duration minus the time covered by its direct children). Spans stay in
memory; ``aggregate`` turns them into per-layer metrics.
"""

import functools
import inspect
import os
import threading
import time
from array import array

_MARK = "__perfbench_span__"

# qcmod modules traced, keyed by the layer name used in metric names. The
# private module ``_solvers`` is reported as layer ``solvers`` because metric
# names must start with a letter or digit.
LAYER_MODULES = {
    "ri_norms": "qcmod.ri_norms",
    "operator_core": "qcmod.operator_core",
    "solvers": "qcmod._solvers",
    "condenser_solver": "qcmod.condenser_solver",
    "cayley": "qcmod.cayley",
    "plaplace": "qcmod.plaplace",
    "experiments": "qcmod.experiments",
    "cli": "qcmod.cli",
    "jsonio": "qcmod.jsonio",
}
MODULE_LAYER = {mod: layer for layer, mod in LAYER_MODULES.items()}

# Per-float formatting helper called tens of thousands of times per CLI run;
# a span per call would cost more than the call. Its time stays in the caller.
_SKIP = {("jsonio", "format_float")}

# Methods traced on qcmod classes: (module, class, method).
_METHODS = (
    ("qcmod.operator_core", "Condenser", "embed_middle"),
    ("qcmod.operator_core", "Condenser", "compress_middle"),
)

# numpy/scipy kernels: (module, attribute, span kind). numpy.linalg.norm(M, 2)
# reaches svd through numpy.linalg._linalg, so that namespace is patched too.
_KERNELS = (
    ("numpy.linalg", "svd", "svd"),
    ("numpy.linalg", "eigh", "eigh"),
    ("numpy.linalg", "eigvalsh", "eigh"),
    ("numpy.linalg", "qr", "qr"),
    ("numpy.linalg", "lstsq", "lstsq"),
    ("numpy.linalg", "solve", "solve"),
    ("scipy.linalg", "null_space", "null_space"),
    ("scipy.sparse.linalg", "spsolve", "spsolve"),
    ("scipy.optimize", "linprog", "linprog"),
    ("scipy.optimize", "minimize", "lbfgsb"),
)
_KERNEL_ALIASES = {"numpy.linalg": ("numpy.linalg._linalg",)}

_ENGINES = ("projected_subgradient", "projected_descent", "estimate_curvature")


def _flops(kind, a, vectors):
    """Floating-point operations of a dense kernel, computed from its shapes.

    Standard LAPACK operation counts (Golub and Van Loan); a complex input
    counts four real operations per complex one. Kernels without a dense
    count (sparse solves, LP, L-BFGS-B) contribute nothing.
    """
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return 0.0
    batch = 1
    for s in shape[:-2]:
        batch *= s
    m, n = shape[-2], shape[-1]
    big, k = max(m, n), min(m, n)
    if kind == "svd":
        f = 12.0 * big * k * k if vectors else 4.0 * big * k * k - 4.0 * k ** 3 / 3.0
    elif kind == "eigh":
        f = 9.0 * n ** 3 if vectors else 4.0 * n ** 3 / 3.0
    elif kind == "qr":
        f = 2.0 * big * k * k - 2.0 * k ** 3 / 3.0
    elif kind in ("solve", "lstsq"):
        f = 2.0 * big * k * k
    else:
        return 0.0
    return (4.0 if a.dtype.kind == "c" else 1.0) * batch * f


class Tracer:
    """Installs span wrappers, records spans, and restores the originals.

    Spans are stored column-wise; a span's id is its index. ``name_ids``
    interns each span name, and ``names[k]`` is its (name, layer) pair.
    """

    def __init__(self):
        self.parent = array("q")   # parent span id, -1 at top level
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")   # duration minus the time of direct children
        self.names = []
        self.name_ids = {}
        self.flops = 0.0
        self.bytes_written = 0
        self.iters = 0
        self.foreign_thread_calls = 0
        self._stack = []           # open spans: [id, child_seconds]
        self._patched = []         # (owner, attribute, original)
        self._thread = threading.get_ident()

    # -- recording -------------------------------------------------------------------

    def _wrap(self, fn, name, layer, adapt=None, after=None):
        tracer = self
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append((name, layer))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                tracer.foreign_thread_calls += 1
                return fn(*args, **kwargs)
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            stack = tracer._stack
            sid = len(tracer.start)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.name_id.append(nid)
            tracer.end.append(0.0)
            tracer.self_s.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.end[sid] = t1
                tracer.self_s[sid] = t1 - t0 - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _callback_adapter(self, suffix):
        """Wrap the first positional argument (an objective callback) in a span."""

        def adapt(args, kwargs):
            if not args or not callable(args[0]):
                return args, kwargs
            cb = args[0]
            layer = MODULE_LAYER.get(getattr(cb, "__module__", ""), "bench")
            return (self._wrap(cb, f"{layer}.{suffix}", layer),) + tuple(args[1:]), kwargs

        return adapt

    # -- installation ----------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, namespaces):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self, modules):
        """Patch every traced function in every namespace that refers to it.

        ``modules`` maps module names to imported module objects; it must
        contain the qcmod package, every module in LAYER_MODULES, and the
        numpy/scipy modules named in _KERNELS and _KERNEL_ALIASES.
        """
        qcmod_ns = [modules["qcmod"]] + [modules[m] for m in LAYER_MODULES.values()]
        for layer, modname in LAYER_MODULES.items():
            mod = modules[modname]
            for attr, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or fn.__module__ != modname
                        or attr.startswith("_") or (layer, attr) in _SKIP):
                    continue
                adapt = after = None
                if layer == "solvers" and attr in _ENGINES:
                    adapt = self._callback_adapter("fg")
                    if attr != "estimate_curvature":
                        after = self._count_iters
                elif layer == "jsonio" and attr in ("write_json", "write_csv"):
                    after = self._count_bytes
                wrapper = self._wrap(fn, f"{layer}.{attr}", layer, adapt, after)
                self._replace_everywhere(fn, wrapper, qcmod_ns)
        for modname, clsname, meth in _METHODS:
            cls = getattr(modules[modname], clsname)
            original = vars(cls)[meth]
            layer = MODULE_LAYER[modname]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{layer}.{meth}", layer))
        for modname, attr, kind in _KERNELS:
            owner = modules[modname]
            original = getattr(owner, attr)
            adapt = self._callback_adapter("lbfgsb_objective") if kind == "lbfgsb" else None
            wrapper = self._wrap(original, f"linalg.{kind}", "linalg", adapt,
                                 self._flop_counter(kind, attr))
            namespaces = [owner] + [modules[a] for a in _KERNEL_ALIASES.get(modname, ())]
            self._replace_everywhere(original, wrapper, namespaces + qcmod_ns)

    def uninstall(self):
        """Restore every patched attribute; returns the ones that did not restore."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patched
               if vars(o).get(a) is not orig]
        self._patched = []
        return bad

    # -- counters --------------------------------------------------------------------

    def _count_iters(self, args, kwargs, result):
        self.iters += int(result[2])

    def _count_bytes(self, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        self.bytes_written += os.path.getsize(path)

    def _flop_counter(self, kind, attr):
        def after(args, kwargs, result):
            a = args[0] if args else kwargs.get("a")
            if attr == "svd":
                vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
            else:
                vectors = attr != "eigvalsh"
            self.flops += _flops(kind, a, vectors)

        return after


def leaked_wrappers(modules):
    """Names of attributes that still hold a tracer wrapper (must be empty)."""
    leaks = []
    for name, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if getattr(value, _MARK, False):
                leaks.append(f"{name}.{attr}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if getattr(fn, _MARK, False):
                        leaks.append(f"{name}.{attr}.{meth}")
    return leaks


def aggregate(tracer, wall_s):
    """Per-layer metrics from the recorded spans of one traced pass.

    ``wall_s`` is the pass's wall time measured by the caller. Counts and
    times are totals over the pass.
    """
    parent, name_id, start, end, self_s = (tracer.parent, tracer.name_id, tracer.start,
                                           tracer.end, tracer.self_s)
    names = [n for n, _ in tracer.names]
    layers = [layer for _, layer in tracer.names]
    k = len(names)
    calls, selfs, totals, entries = [0] * k, [0.0] * k, [0.0] * k, {}
    layer_self = {}
    for sid in range(len(start)):
        nid = name_id[sid]
        p = parent[sid]
        calls[nid] += 1
        selfs[nid] += self_s[sid]
        layer = layers[nid]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s[sid]
        pnid = name_id[p] if p >= 0 else -1
        if pnid < 0 or layers[pnid] != layer:
            entries[layer] = entries.get(layer, 0) + 1
        if pnid != nid:  # inclusive time, once per outermost span of a name
            totals[nid] += end[sid] - start[sid]

    # Time outside every span, from the union of top-level span intervals.
    covered, last = 0.0, -float("inf")
    for sid in range(len(start)):
        if parent[sid] == -1 and end[sid] > last:
            covered += end[sid] - max(start[sid], last)
            last = end[sid]
    remainder = wall_s - covered
    accounting_err = abs(sum(layer_self.values()) + remainder - wall_s) / wall_s

    def nid_of(name):
        return tracer.name_ids.get(name, -1)

    def C(name):
        return calls[nid_of(name)] if nid_of(name) >= 0 else 0

    def S(name):
        return selfs[nid_of(name)] if nid_of(name) >= 0 else 0.0

    def T(name):
        return totals[nid_of(name)] if nid_of(name) >= 0 else 0.0

    engines = {nid_of("solvers.projected_subgradient"), nid_of("solvers.projected_descent")} - {-1}
    fg_ids = {i for i, n in enumerate(names) if n.endswith(".fg")}
    descent, solve = nid_of("solvers.projected_descent"), nid_of("condenser_solver.solve_condenser")
    fg_calls, refine_s = 0, 0.0
    for sid in range(len(start)):
        nid = name_id[sid]
        if nid in fg_ids and parent[sid] >= 0 and name_id[parent[sid]] in engines:
            fg_calls += 1
        elif descent >= 0 and nid == descent:
            p = parent[sid]
            while p >= 0 and name_id[p] != solve:
                p = parent[p]
            if p >= 0:
                refine_s += end[sid] - start[sid]
    engine_s = T("solvers.projected_subgradient") + T("solvers.projected_descent")
    solve_s = T("condenser_solver.solve_condenser")
    L = layer_self.get
    m = {
        "linalg.svd.calls": C("linalg.svd"),
        "linalg.svd.self_s": S("linalg.svd"),
        "linalg.eigh.calls": C("linalg.eigh"),
        "linalg.eigh.self_s": S("linalg.eigh"),
        "linalg.self_s": L("linalg", 0.0),
        "linalg.flops_computed": tracer.flops,
        "ri_norms.calls": entries.get("ri_norms", 0),
        "ri_norms.self_s": L("ri_norms", 0.0),
        "operator_core.project_middle.calls": C("operator_core.project_middle"),
        "operator_core.project_middle.self_s": S("operator_core.project_middle"),
        "operator_core.embed_middle.calls": C("operator_core.embed_middle"),
        "operator_core.embed_middle.self_s": S("operator_core.embed_middle"),
        "operator_core.make_condenser_s": T("operator_core.make_condenser"),
        "operator_core.self_s": L("operator_core", 0.0),
        "solvers.runs": C("solvers.projected_subgradient") + C("solvers.projected_descent"),
        "solvers.iters": tracer.iters,
        "solvers.fg_calls": fg_calls,
        "solvers.fg_per_iter": fg_calls / tracer.iters if tracer.iters else 0.0,
        "solvers.self_s": L("solvers", 0.0),
        "solvers.iters_per_s": tracer.iters / engine_s if engine_s > 0 else 0.0,
        "condenser_solver.solves": C("condenser_solver.solve_condenser"),
        "condenser_solver.self_s": L("condenser_solver", 0.0),
        "condenser_solver.refine_share": refine_s / solve_s if solve_s > 0 else 0.0,
        "cayley.build_ball_s": T("cayley.build_ball"),
        "cayley.graph_capacity.self_s": S("cayley.graph_capacity"),
        "cayley.lbfgsb_s": T("linalg.lbfgsb"),
        "cayley.oracle_s": T("cayley.harmonic_capacity_oracle")
        + T("cayley.total_variation_capacity_lp"),
        "cayley.truncated_regular_rep_s": T("cayley.truncated_regular_rep"),
        "cayley.self_s": L("cayley", 0.0),
        "plaplace.theta.calls": C("plaplace.theta"),
        "plaplace.theta.self_s": S("plaplace.theta"),
        "plaplace.smooth_objective.calls": C("plaplace.smooth_objective"),
        "plaplace.smooth_objective.self_s": S("plaplace.smooth_objective"),
        "plaplace.euler_lagrange_s": T("plaplace.euler_lagrange_report"),
        "plaplace.self_s": L("plaplace", 0.0),
        "experiments.timefreq_problem_s": T("experiments.timefreq_problem"),
        "cli.dispatch.self_s": S("cli.dispatch"),
        "jsonio.write_s": T("jsonio.write_json") + T("jsonio.write_csv"),
        "jsonio.bytes_written": tracer.bytes_written,
        "trace.spans": len(start),
        "trace.untraced_remainder_s": remainder,
        "trace.accounting_err": accounting_err,
    }
    return m, layer_self
