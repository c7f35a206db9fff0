"""Outside-in per-layer trace of cartanlab, installed from the benchmark.

`traced(tracer)` rebinds each listed function in every cartanlab module that
holds it (modules import names directly, so patching the defining module
alone would miss most calls), wraps the structure maps and mu_at of every
model make_model returns, the callables aligned_frame returns and the nabla of
every connection infinitesimalize returns, and restores every binding when the
block ends. A listed function the code no longer has is reported as absent.

A span's self time is its duration on the tracer's clock minus the durations
of the traced calls made inside it. The trace lives in memory and is read
after the pass.
"""

import contextlib
import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, metric prefix): timed spans with .calls and .self_s
TIMED = (
    ("cartanlab.chartcalc", "differentiate", "chartcalc.differentiate"),
    ("cartanlab.chartcalc", "jacobian_fd", "chartcalc.jacobian_fd"),
    ("cartanlab.chartcalc", "directional_derivative", "chartcalc.directional_derivative"),
    ("cartanlab.chartcalc", "flow_with_tangent", "chartcalc.flow_with_tangent"),
    ("cartanlab.groupoid", "oracle_jet", "groupoid.oracle_jet"),
    ("cartanlab.groupoid", "oracle_jet_mul", "groupoid.oracle_jet_mul"),
    ("cartanlab.groupoid", "oracle_jet_inverse", "groupoid.oracle_jet_inverse"),
    ("cartanlab.groupoid", "right_translate", "groupoid.right_translate"),
    ("cartanlab.groupoid", "algebroid_bracket", "groupoid.algebroid_bracket"),
    ("cartanlab.jetalg", "jet_mul", "jetalg.jet_mul"),
    ("cartanlab.jetalg", "jet_invert", "jetalg.jet_invert"),
    ("cartanlab.jetalg", "adjoint_vec", "jetalg.adjoint_vec"),
    ("cartanlab.jetalg", "mul_kernel_left", "jetalg.mul_kernel_left"),
    ("cartanlab.jetalg", "random_kernel_hom", "jetalg.random_kernel_hom"),
    ("cartanlab.connection", "transport_with_vector", "connection.transport_with_vector"),
    ("cartanlab.connection", "check_multiplicative", "connection.check_multiplicative"),
    ("cartanlab.curvature", "curvature", "curvature.curvature"),
    ("cartanlab.curvature", "connection_matrix", "curvature.connection_matrix"),
    ("cartanlab.curvature", "frobenius_torsion", "curvature.frobenius_torsion"),
    ("cartanlab.curvature", "_transport_matrix", "curvature._transport_matrix"),
    ("cartanlab.curvature", "reconstruct_action", "curvature.reconstruct_action"),
    ("cartanlab.experiments", "run", "experiments.run"),
)

# every RK4 integrator; each call adds its step count to chartcalc.rk4_steps
RK4 = (
    ("cartanlab.chartcalc", "flow"),
    ("cartanlab.chartcalc", "flow_with_tangent"),
    ("cartanlab.connection", "parallel_transport"),
    ("cartanlab.connection", "transport_with_vector"),
    ("cartanlab.curvature", "_transport_matrix"),
)

NABLA_ROUTES = {"direct-formula": "direct", "flow-formula": "flow",
                "parallel-transport": "transport"}

# spans created on objects the program returns, not on module functions
OBJECT_SPANS = ("models.mu_at", "models.structure_map", "groupoid.frame",
                "connection.nabla.direct", "connection.nabla.flow",
                "connection.nabla.transport", "report.serialize")

# models.structure_map: src/tgt/unit eval, mul, inv, the retractions and the
# analytic jacobians of all of them, one span each call
STRUCTURE_MAPS = ("mul", "inv", "retract_src", "retract_tgt", "mul_jac",
                  "inv_jac", "retract_src_jac", "retract_tgt_jac")
CHART_MAPS = ("src", "tgt", "unit")


def _span_names():
    names = list(dict.fromkeys(p for _, _, p in TIMED))
    return names + [n for n in OBJECT_SPANS if n not in names]


# (name, unit, better). experiments.run spans one report call each, so only
# its self time (time in no traced layer) is a metric. A repeat is a call at a
# (model, point) - for frames (model, reference point, point) - already seen
# in the pass.
PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in _span_names() if n != "experiments.run"]
    + [(f"{n}.self_s", "s", "lower") for n in _span_names()]
    + [("models.mu_at.repeat_ratio", "ratio", "lower"),
       ("groupoid.frame.repeat_ratio", "ratio", "lower"),
       ("chartcalc.differentiate.fd_share", "ratio", "lower"),
       ("chartcalc.rk4_steps", "count", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Call counts, self times, repeat keys and RK4 steps of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.seen = defaultdict(set)
        self.repeats = defaultdict(int)
        self.fd_differentiate = 0
        self.rk4_steps = 0
        self.absent = []
        self._child = [0.0]  # traced time inside the open span, per depth

    def span(self, name, fn, key=None):
        """fn wrapped in a timed span; key(args) marks repeated arguments."""
        stack = self._child
        clock = self.clock

        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(args, kwargs)
                seen = self.seen[name]
                if k in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(k)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.calls[name] += 1
                self.self_s[name] += dt - stack.pop()
                stack[-1] += dt

        return functools.update_wrapper(wrapper, fn)

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s, as name -> value."""
        out = {}
        for name in _span_names():
            if name != "experiments.run":
                out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in ("models.mu_at", "groupoid.frame"):
            calls = self.calls[name]
            out[f"{name}.repeat_ratio"] = self.repeats[name] / calls if calls else 0.0
        calls = self.calls["chartcalc.differentiate"]
        out["chartcalc.differentiate.fd_share"] = (
            self.fd_differentiate / calls if calls else 0.0)
        out["chartcalc.rk4_steps"] = self.rk4_steps
        return out


def _point_key(args, kwargs):
    return np.asarray(args[0], dtype=float).tobytes()


def _wrap_model(tracer, model, S):
    """Copies of (model, S) whose structure maps and mu_at are traced."""
    sm = "models.structure_map"
    fields = {}
    for name in CHART_MAPS:
        cm = getattr(model, name, None)
        if cm is None:
            continue
        fields[name] = dataclasses.replace(
            cm, eval=tracer.span(sm, cm.eval),
            jacobian=None if cm.jacobian is None else tracer.span(sm, cm.jacobian))
    for name in STRUCTURE_MAPS:
        fn = getattr(model, name, None)
        if fn is not None:
            fields[name] = tracer.span(sm, fn)
    traced_model = dataclasses.replace(model, **fields)
    mu_key = model.name.encode() + b"|"
    traced_S = dataclasses.replace(
        S, model=traced_model,
        mu_at=tracer.span("models.mu_at", S.mu_at,
                          key=lambda a, k: mu_key + _point_key(a, k)))
    return traced_model, traced_S


def _result_wrappers(tracer):
    """Wrappers for functions whose returned objects carry the spans."""

    def make_model(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model, S = fn(*args, **kwargs)
            return _wrap_model(tracer, model, S)
        return wrapper

    def aligned_frame(fn):
        @functools.wraps(fn)
        def wrapper(model, ref_point, *args, **kwargs):
            frame = fn(model, ref_point, *args, **kwargs)
            prefix = (model.name.encode() + b"|"
                      + np.asarray(ref_point, dtype=float).tobytes() + b"|")
            return tracer.span("groupoid.frame", frame,
                               key=lambda a, k: prefix + _point_key(a, k))
        return wrapper

    def nabla_of(route_of):
        def wrap(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                conn = fn(*args, **kwargs)
                route = route_of(sig.bind(*args, **kwargs))
                if route is None or not hasattr(conn, "nabla"):
                    return conn
                return dataclasses.replace(
                    conn, nabla=tracer.span(f"connection.nabla.{route}", conn.nabla))
            return wrapper
        return wrap

    def method_route(bound):
        bound.apply_defaults()
        return NABLA_ROUTES.get(bound.arguments.get("method"))

    return (
        ("cartanlab.models", "make_model", make_model),
        ("cartanlab.groupoid", "aligned_frame", aligned_frame),
        ("cartanlab.connection", "infinitesimalize", nabla_of(method_route)),
        ("cartanlab.connection", "infinitesimalize_along",
         nabla_of(lambda bound: "transport")),
    )


def _counting(tracer, fn):
    """fn adding its RK4 step count to the tracer on each call."""
    sig = inspect.signature(fn)
    steps_for = getattr(sys.modules.get("cartanlab.connection"), "_steps_for", None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        arg = bound.arguments
        steps = arg.get("steps")
        if steps is None and steps_for is not None and "t0" in arg and "t1" in arg:
            steps = steps_for(arg["t1"] - arg["t0"])
        tracer.rk4_steps += int(steps or 0)
        return fn(*args, **kwargs)

    return wrapper


def _counting_fd(tracer, fn):
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        if getattr(f, "jacobian", None) is None:
            tracer.fd_differentiate += 1
        return fn(f, *args, **kwargs)

    return wrapper


class _Bindings:
    """Rebinds an object everywhere cartanlab (or an extra module) holds it,
    remembering each binding so that restore() puts the original back."""

    def __init__(self, extra_modules=()):
        self.extra = list(extra_modules)
        self.saved = []  # (namespace owner, attribute, original)

    def _holders(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "cartanlab" or n.startswith("cartanlab."))]
        return mods + [m for m in self.extra if m not in mods]

    def replace(self, original, replacement):
        for mod in self._holders():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _install(bindings, tracer, module, attr, make):
    """Rebind module.attr (a module name or object) to make(original), or
    record it as absent."""
    try:
        owner = importlib.import_module(module) if isinstance(module, str) else module
        fn = getattr(owner, attr)
    except (ImportError, AttributeError):
        name = f"{module}.{attr}"
        if name not in tracer.absent:
            tracer.absent.append(name)
        return
    bindings.replace(fn, make(fn))


@contextlib.contextmanager
def traced(tracer: Tracer, extra_spans=()):
    """Install the trace for the duration of the block.

    extra_spans holds (module object, attribute, metric prefix) for functions
    outside cartanlab, such as the benchmark's own report call."""
    bindings = _Bindings(m for m, _, _ in extra_spans)
    try:
        # innermost first: a function both counted and timed gets its
        # counter inside its span
        for module, attr in RK4:
            _install(bindings, tracer, module, attr, lambda fn: _counting(tracer, fn))
        _install(bindings, tracer, "cartanlab.chartcalc", "differentiate",
                 lambda fn: _counting_fd(tracer, fn))
        for module, attr, prefix in (*TIMED, *extra_spans):
            _install(bindings, tracer, module, attr,
                     lambda fn, prefix=prefix: tracer.span(prefix, fn))
        for module, attr, make in _result_wrappers(tracer):
            _install(bindings, tracer, module, attr, make)
        report_cls = importlib.import_module("cartanlab.report").Report
        serialize = report_cls.__dict__.get("serialize")
        if serialize is None:
            tracer.absent.append("cartanlab.report.Report.serialize")
        else:
            bindings.saved.append((report_cls, "serialize", serialize))
            report_cls.serialize = tracer.span("report.serialize", serialize)
        yield tracer
    finally:
        bindings.restore()
