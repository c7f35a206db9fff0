"""Shared numerical kernel: chart-map differentiation, RK4 flows, metric utilities.

Everything here works on plain ndarray coordinates of a single chart. All shipped
models are scaled so chart coordinates are O(1), which is what the default
finite-difference step is tuned for.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NonFiniteError, SingularMetricError

# Central-difference step on unit-scaled charts: balances O(h^2) truncation
# against double-precision roundoff (eps/h ~ 1e-11).
FD_STEP = 1e-5
# Step of path_velocity, on transport paths over t in [0, 1]. It is left out
# of report.ENVIRONMENT_FINGERPRINT: a key added there changes every report.
PATH_VELOCITY_STEP = 1e-6
NEWTON_ITERATIONS = 40


@dataclass(frozen=True)
class ChartMap:
    """A smooth map between chart domains, with an optional analytic jacobian.

    eval maps R^dim_in -> R^dim_out; eval_many, the optional stacked form
    (k, dim_in) -> (k, dim_out), gives eval(X[a]) in row a. The optional
    jacobian is stacked: (k, dim_in) -> (k, dim_out, dim_in), row a depending
    on X[a] alone and agreeing with central differences of eval to O(h^2);
    the test suite exercises both paths. A jacobian that is one matrix at
    every point is a constant_jacobian, which carries it as .constant.
    """

    dim_in: int
    dim_out: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    eval_many: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(x, dtype=float)), dtype=float)

    def many(self, X: np.ndarray) -> np.ndarray:
        """The map on a stack of points X[k, dim_in], through eval_many or a loop."""
        return stacked(self, self.eval_many, np.asarray(X, dtype=float))


def stacked(func: Callable, func_many: Callable | None, *stacks: np.ndarray) -> np.ndarray:
    """Row a is func(stacks[0][a], ...): func_many(*stacks), or func row by row."""
    if func_many is not None:
        return np.asarray(func_many(*stacks), dtype=float)
    return np.array([np.asarray(func(*row), dtype=float) for row in zip(*stacks)])


def batch_of_one(func_many: Callable) -> Callable:
    """The single-point form of a stacked map: func(*points) is row 0 of
    func_many on one-row stacks of the points. It carries func_many as .many."""

    def func(*points):
        return func_many(*(np.asarray(p, dtype=float)[None] for p in points))[0]

    func.many = func_many
    return func


def constant_jacobian(A: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The stacked jacobian of a map whose derivative is the matrix A at every
    point: on a stack of k points, k rows of A as a read-only view that copies
    nothing (repeated_rows). It carries A, read-only, as .constant."""
    A = read_only(np.asarray(A, dtype=float))
    rows = repeated_rows(A)

    def jacobian(X):
        return rows(len(X))

    jacobian.constant = A
    return jacobian


def repeated_rows(A: np.ndarray) -> Callable[[int], np.ndarray]:
    """k -> np.broadcast_to(A, (k,) + A.shape) for a fixed array A: a
    read-only view with A's strides and a zero stride over the rows, sharing
    A's memory. Over a contiguous A it is built directly on A's buffer, at
    about a quarter of broadcast_to's cost per call; a strided A (a column
    slice) exposes no buffer and is broadcast."""
    if not (A.flags.c_contiguous or A.flags.f_contiguous):
        return lambda k: np.broadcast_to(A, (k,) + A.shape)
    buffer = read_only(A)
    shape, strides = A.shape, (0,) + A.strides

    def rows(k: int) -> np.ndarray:
        return np.ndarray((k,) + shape, A.dtype, buffer, 0, strides)

    return rows


def matvecs(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row a is A[a] @ V[a], rounded as that single matrix-vector product is:
    numpy takes each row as one BLAS matrix-vector call, whose rounding
    follows the memory layout of A[a], not the stride of V[a]."""
    return (A @ V[..., None])[..., 0]


@dataclass(frozen=True)
class MetricChart:
    """Riemannian metric components on one chart: x -> symmetric SPD matrix.

    dg returns the array of analytic partials with dg(x)[i, j, l] = d g_ij /
    d x_l; the tests check each shipped dg against central differences of g.
    g and dg broadcast over leading axes: a stack of points x[..., dim] gives
    g(x)[..., i, j] and dg(x)[..., i, j, l], each entry the value at that
    point.
    """

    dim: int
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    name: str = "metric"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.g(np.asarray(x, dtype=float)), dtype=float)


def exceeds(value: float, tol: float) -> bool:
    """Whether a defect fails its tolerance: value > tol, or value is NaN, which
    `value > tol` would let pass. Every defect-against-tolerance guard uses it."""
    return not value <= tol


def in_box(x: np.ndarray, box: np.ndarray) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= box[:, 0]) and np.all(x <= box[:, 1]))


def box_draw(rng: np.random.Generator, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """A point uniform in the box [low, high], one coordinate per row: the
    bits of rng.uniform(low, high), which numpy rounds as low + range * u
    (no fused multiply-add; tests/test_chartcalc.py pins it), with rng left
    in the same state. It skips rng.uniform's per-call argument handling and
    its check of the box, which raises OverflowError for a width that is not
    finite: the boxes drawn here are checked when they are built
    (check_box)."""
    return low + (high - low) * rng.random(len(low))


def check_box(name: str, box: np.ndarray) -> None:
    """Raise ConfigError unless every bound and every width of the box, one
    (low, high) row per coordinate, is finite: the check rng.uniform makes on
    each draw, made once for the boxes box_draw draws in."""
    box = np.asarray(box, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        width = box[:, 1] - box[:, 0]
    if not (np.all(np.isfinite(box)) and np.all(np.isfinite(width))):
        raise ConfigError(f"{name} must be finite, not {box.tolist()}")


def jacobian_fd(func: Callable, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference jacobian of func at x, one column per coordinate:
    jacobians_fd's batch of one, func evaluated at its 2n probes in turn."""
    return jacobians_fd(lambda X: stacked(func, None, X),
                        np.asarray(x, dtype=float).reshape(1, -1), h)[0]


def central_probes(X: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """The 2kn probes x ± h e of central differences along every coordinate
    at each row of a stack X[k, n]: the forward steps first, then by point and
    coordinate. directional_derivatives' probes along a coordinate direction
    are these bytes, as x + (-h) e equals x - h e, signed zeros included."""
    X = np.asarray(X, dtype=float)
    k, n = X.shape
    steps = h * np.eye(n)
    return np.concatenate([X[:, None] + steps, X[:, None] - steps]).reshape(2 * k * n, n)


def jacobians_fd(func_many: Callable, X: np.ndarray, h: float = FD_STEP,
                 owner: np.ndarray | None = None) -> np.ndarray:
    """Central-difference jacobians of func at each point of a stack X[k, n],
    one column per coordinate, all 2nk probes x ± h e in one func_many call
    (forward steps first, then by point and coordinate). jac[a] is
    C-contiguous and, when func_many's rows are func's values, equals the
    jacobian at X[a] taken alone bit for bit. With owner, a label per row of
    X, func_many(P, labels) also gets the label of the row each probe steps
    from, as in values_and_directional_derivatives."""
    X = np.asarray(X, dtype=float)
    k, n = X.shape
    probes = central_probes(X, h)
    if owner is None:
        values = func_many(probes)
    else:
        values = func_many(probes, np.tile(np.repeat(owner, n), 2))
    values = np.asarray(values, dtype=float)
    values = values.reshape((2, k, n) + values.shape[1:])
    slopes = deriv_at_zero(lambda s: values[0] if s > 0 else values[1], h)
    return np.ascontiguousarray(slopes.transpose(0, *range(2, slopes.ndim), 1))


def newton_solve_many(func_many: Callable, Y: np.ndarray, X0: np.ndarray, start: np.ndarray,
                      tol: float) -> np.ndarray:
    """Solve func(x) = Y[a] for each row a by Newton iteration from the start
    X0[start[a]]: member a is the first of NEWTON_ITERATIONS iterates whose
    residual is below tol in the max-norm, bit for bit as if solved alone.
    func_many(P, owner) evaluates the system at the rows of P, row b being a
    point of the rows that start from X0[owner[b]]. The rows of one start
    share its value and jacobian, so the first call takes each start once;
    each later step makes one func_many and one jacobians_fd call. Raises
    NonFiniteError when a member does not converge."""
    Y, X0 = np.asarray(Y, dtype=float), np.asarray(X0, dtype=float)
    start = np.asarray(start)
    X = X0[start]
    live = np.arange(len(Y))
    owner, pick = np.unique(start, return_inverse=True)  # row a reads P[pick[a]]
    P = X0[owner]
    for _ in range(NEWTON_ITERATIONS):
        R = np.asarray(func_many(P, owner), dtype=float)[pick] - Y[live]
        going = ~(np.max(np.abs(R), axis=1) < tol)
        live, R, pick = live[going], R[going], pick[going]
        if not live.size:
            return X
        kept, pick = np.unique(pick, return_inverse=True)
        P, owner = P[kept], owner[kept]
        J = jacobians_fd(func_many, P, owner=owner)
        X[live] = P[pick] - np.linalg.solve(J[pick], R[..., None])[..., 0]
        P, owner, pick = X[live], start[live], np.arange(len(live))
    raise NonFiniteError(f"Newton iteration from {X0[start[live[0]]]} did not reach "
                         f"residual {tol:.0e} in {NEWTON_ITERATIONS} steps")


def differentiate(f: ChartMap, x: np.ndarray) -> np.ndarray:
    """Jacobian of a chart map at x: differentiate_many's batch of one.

    Central differences at FD_STEP carry an O(h^2) per-entry error contract.
    Raises DomainError when x is not a point of dimension dim_in and
    NonFiniteError when the jacobian has non-finite entries.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim_in,):
        raise DomainError(f"expected point of dimension {f.dim_in}, got shape {x.shape}")
    return differentiate_many(f, x[None])[0]


def differentiate_many(f: ChartMap, X: np.ndarray) -> np.ndarray:
    """differentiate at each row of a stack X[k, dim_in], as a C-contiguous
    stack jac[k, dim_out, dim_in]: one call of the analytic jacobian, else all
    rows' central differences in one jacobians_fd call over f.many. Raises
    ConfigError when the analytic jacobian does not return that shape, and
    NonFiniteError naming the first row whose derivative is not finite."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != f.dim_in:
        raise DomainError(f"expected points of dimension {f.dim_in}, got shape {X.shape}")
    shape = (len(X), f.dim_out, f.dim_in)
    if f.jacobian is None:
        jac = jacobians_fd(f.many, X).reshape(shape)
    else:
        jac = np.ascontiguousarray(f.jacobian(X), dtype=float)
        if jac.shape != shape:
            raise ConfigError(f"the jacobian of a map R^{f.dim_in} -> R^{f.dim_out} is "
                              f"{jac.shape} on {len(X)} points, not {shape}")
    if not np.isfinite(jac).all():
        bad = np.flatnonzero(~np.isfinite(jac).all(axis=(1, 2)))[0]
        raise NonFiniteError(f"non-finite derivative at {X[bad]}")
    return jac


def _unit_directions(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The steps of central differences along the directions V[..., dim]: the
    scales max|v| and the unit directions v / max|v| the probes step along.
    A zero direction has scale 0 and direction 0; the derivative along it is
    zero, and no probe is taken."""
    scales = np.max(np.abs(V), axis=-1)
    return scales, V / (scales + (scales == 0.0))[..., None]


def directional_derivative(func: Callable, x: np.ndarray, v: np.ndarray,
                           h: float = FD_STEP) -> np.ndarray:
    """Central-difference derivative of func at x along direction v, with the
    step taken along v / max|v|: directional_derivatives' batch of one, func
    evaluated at its two probes in turn."""
    return directional_derivatives(lambda X: stacked(func, None, X), x,
                                   np.asarray(v, dtype=float)[None], h)[0]


def directional_derivatives(func_many: Callable, x: np.ndarray, V: np.ndarray,
                            h: float = FD_STEP, owner: np.ndarray | None = None) -> np.ndarray:
    """Central-difference derivatives of func at x along each row of V, with
    func_many evaluating func on a stack of points in one call, each step
    taken along v / max|v|; a zero direction gives zero and takes no probe.
    Row a depends on V[a] (and x[a]) alone, bit for bit, when func_many's
    rows are func's values. x is one point for every direction, or a stack
    x[k, dim] of one base point per direction. All 2k probes go to func_many
    together, the forward steps first. With owner, a label per direction,
    func_many(P, labels) also gets the label of the direction each row of P
    probes, as in values_and_directional_derivatives."""
    x = np.asarray(x, dtype=float)
    slopes = _moving_slopes(func_many, x, V, h, owner)
    if slopes is None:  # no direction moves: one row gives the shape
        first = x.reshape(-1, x.shape[-1])[:1]
        row = func_many(first) if owner is None else func_many(first, np.asarray(owner)[:1])
        return np.zeros((len(V),) + np.shape(row)[1:])
    return slopes


def values_and_directional_derivatives(func_many: Callable, X: np.ndarray, V: np.ndarray,
                                       h: float = FD_STEP, owner: np.ndarray | None = None
                                       ) -> tuple[np.ndarray, np.ndarray]:
    """func at each row of a stack X[k, dim] and directional_derivatives along
    V from those rows, in one func_many call: the rows of X join the probes,
    or go alone when no direction moves. Each part equals its separate
    evaluation bit for bit when func_many's rows are func's values.

    With owner, a label per row of X, func_many(P, labels) also gets the
    label of the row of X that each row of P is or probes, so a func that
    differs by row (a family of sections) needs no label riding in X."""
    X = np.asarray(X, dtype=float)
    k = len(X)
    values = []

    def call(P, labels):
        return np.asarray(func_many(P) if owner is None else func_many(P, labels), dtype=float)

    def joined(P, labels=None):
        out = call(np.concatenate([X, P]),
                   None if owner is None else np.concatenate([owner, labels]))
        values.append(out[:k])
        return out[k:]

    slopes = _moving_slopes(joined, X, V, h, owner)
    if slopes is None:
        values.append(call(X, owner))
        slopes = np.zeros_like(values[0])
    return values[0], slopes


def _moving_slopes(func_many: Callable, x: np.ndarray, V: np.ndarray,
                   h: float, owner: np.ndarray | None = None) -> np.ndarray | None:
    """directional_derivatives' result, or None when no direction moves, so
    that each caller takes the output shape from rows it evaluates anyway.
    With owner, func_many(P, labels) gets the owner of each probe's row."""
    scales, U = _unit_directions(np.asarray(V, dtype=float))
    moving = scales != 0.0
    if not moving.any():
        return None
    if x.ndim > 1:
        x = x[moving]
    U = U[moving]
    k = len(U)
    probes = np.concatenate([x + s * U for s in (h, -h)])
    if owner is None:
        values = func_many(probes)
    else:
        values = func_many(probes, np.tile(np.asarray(owner)[moving], 2))
    values = np.asarray(values, dtype=float)
    slopes = deriv_at_zero(lambda s: values[:k] if s > 0 else values[k:], h)
    out = np.zeros((len(moving),) + slopes.shape[1:])
    out[moving] = scales[moving].reshape((-1,) + (1,) * (slopes.ndim - 1)) * slopes
    return out


def deriv_at_zero(curve: Callable[[float], np.ndarray], h: float = FD_STEP) -> np.ndarray:
    """Central-difference derivative at t=0 of a curve of chart points; every
    finite difference in the library goes through this stencil."""
    return (np.asarray(curve(h), dtype=float) - np.asarray(curve(-h), dtype=float)) / (2.0 * h)


def path_velocity(path: Callable[[float], np.ndarray], t: float) -> np.ndarray:
    """Central-difference velocity of a path of chart points at time t, at
    step PATH_VELOCITY_STEP; every path a transport follows is differentiated
    here."""
    return deriv_at_zero(lambda s: path(t + s), PATH_VELOCITY_STEP)


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, for an array handed to many callers: a write
    through it raises instead of changing what the next caller gets."""
    a = a.view()
    a.flags.writeable = False
    return a


def memo_by_point(func: Callable[[np.ndarray], object], size: int,
                  func_many: Callable[[np.ndarray], np.ndarray] | None = None) -> Callable:
    """func, evaluated once per point: the value is kept under the bytes of
    the point as a float64 array and returned as func gave it, except that an
    ndarray value is handed out as a read-only view, so no caller can change
    what the next caller at that point gets. The memo is cleared when it holds
    size points, before the next is stored. Bytes are exact, so points that
    differ only in the sign of a zero are different keys.

    The memo's .many(X) gives the values at the rows of a stack X[k, dim],
    stacked: hits come from the memo, and the misses, each distinct point
    once, are computed in one func_many call (func row by row without it),
    whose row a must equal func at that point, and stored in row order."""
    seen: dict[bytes, object] = {}

    def store(key, out):
        if isinstance(out, np.ndarray):
            out = read_only(out)
        if len(seen) >= size:
            seen.clear()
        seen[key] = out
        return out

    def once(x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if key in seen:
            return seen[key]
        return store(key, func(x))

    def many(X):
        X = np.asarray(X, dtype=float)
        rows = {}  # key -> its value, the hits first; a store may clear seen
        misses = {}  # key -> the first row holding it
        for a, x in enumerate(X):
            key = x.tobytes()
            if key in seen:
                rows[key] = seen[key]
            else:
                misses.setdefault(key, a)
        if misses:
            computed = stacked(func, func_many, X[list(misses.values())])
            for key, out in zip(misses, computed):
                rows[key] = store(key, out)
        return np.stack([rows[x.tobytes()] for x in X])

    once.many = many
    return once


def worst_case(worst: float, value: float) -> float:
    """Worst-case accumulator that reads NaN as +inf, so a bad sample can
    never be dropped the way max(worst, nan) == worst drops it."""
    return math.inf if math.isnan(value) else max(worst, value)


class WorstErrors(dict):
    """The lab's one verdict policy for sampled errors: per name, the worst
    max|value| recorded under it, a NaN anywhere in a value read as +inf
    through worst_case; an empty value records nothing. Each name starts
    at 0.0; recording under a name that was not given is a KeyError."""

    def __init__(self, names=()):
        super().__init__(dict.fromkeys(names, 0.0))

    def record(self, name: str, value) -> None:
        self[name] = worst_case(self[name], float(np.max(np.abs(value), initial=0.0)))


def stack_field(elements) -> object:
    """One field of a list of drawn samples as one stack: the
    stack_of(elements) of an element type that has one (jetalg.KernelHom;
    jetalg.KernelDraw or groupoid.ArrowField, which resolve their deferred
    draws there), an array otherwise."""
    kind = type(elements[0])
    return kind.stack_of(elements) if hasattr(kind, "stack_of") else np.array(elements)


def stacked_fields(samples: list) -> list:
    """The fields of a list of drawn samples, each as one stack (stack_field)."""
    return [stack_field(field) for field in zip(*samples)]


def draw_then_evaluate(rng: np.random.Generator, count: int, draw, evaluate) -> None:
    """A per-sample loop, stacked: call draw() count times, drawing every
    sample in rng order, then evaluate the stacked draws once, each step of
    evaluate for all samples (evaluate_drawn, which reruns the samples one
    by one on an error)."""
    evaluate_drawn(rng, count, lambda k: stacked_fields([draw() for _ in range(k)]), evaluate)


def evaluate_drawn(rng: np.random.Generator, count: int, draw_stacked, evaluate) -> None:
    """evaluate(*draw_stacked(count)), where draw_stacked(k) draws k samples
    from rng in the per-sample loop's order and stacks their fields.

    On any exception, in either phase, the samples rerun in order from the
    rng state before the draws: each drawn by draw_stacked(1), then
    evaluated as a batch of one. So the error that propagates is the first
    one the per-sample loop meets, up to the order within one sample, where
    every draw comes before the evaluation. A rerun that raises nothing
    re-raises the stacked error: the stack and its samples alone disagree.
    A count below 1 evaluates nothing."""
    if count < 1:
        return
    state = rng.bit_generator.state
    try:
        evaluate(*draw_stacked(count))
    except Exception:
        rng.bit_generator.state = state
        for _ in range(count):
            evaluate(*draw_stacked(1))
        raise


def worst_case_min(least: float, value: float) -> float:
    """The min-side worst_case, for checks that fail when a quantity gets too
    small: NaN reads as -inf, where min(least, nan) == least would drop it."""
    return -math.inf if math.isnan(value) else min(least, value)


def rk4(rhs: Callable, y0: np.ndarray, t0: float | np.ndarray, t1: float, steps: int,
        check: Callable[[np.ndarray], None] | None = None) -> np.ndarray:
    """Classical fixed-step RK4 for dy/dt = rhs(t, y) from t0 to t1, on a state
    array of any shape; global error O(((t1 - t0)/steps)^4).

    t0 may also be a vector of per-member start times for a stack of states
    y0[k, ...]: member a runs from t0[a] to t1 in the shared step count, rhs
    gets the vector of member times, and each member's time and step enter
    only elementwise, so row a equals rk4 on that member alone bit for bit
    when rhs's rows do not depend on the other rows.

    Fixed stepping keeps results reproducible bit-for-bit for a fixed
    configuration. Raises NonFiniteError when the state goes non-finite;
    check(y), when given, runs after every step and may raise.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    y = np.array(y0, dtype=float)
    t = np.array(t0, dtype=float) if np.ndim(t0) else t0
    h = (t1 - t) / steps
    hy = h if np.ndim(h) == 0 else h.reshape(h.shape + (1,) * (y.ndim - 1))  # h per state row
    for _ in range(steps):
        k1 = np.asarray(rhs(t, y), dtype=float)
        k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * hy * k1), dtype=float)
        k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * hy * k2), dtype=float)
        k4 = np.asarray(rhs(t + h, y + hy * k3), dtype=float)
        y = y + (hy / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        if not np.all(np.isfinite(y)):
            raise NonFiniteError(f"RK4 trajectory went non-finite at t={t}")
        if check is not None:
            check(y)
    return y


def flow(field: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, t: float,
         steps: int, box: np.ndarray | None = None) -> np.ndarray:
    """RK4 flow of a vector field for time t. Raises NonFiniteError if the
    trajectory goes non-finite or leaves the supplied chart box."""

    def stay_in_box(x):
        if not in_box(x, box):
            raise NonFiniteError(f"trajectory left the chart box at {x}")

    return rk4(lambda _, x: field(x), x0, 0.0, t, steps,
               check=None if box is None else stay_in_box)


def flow_with_tangent(field: Callable, field_jvp: Callable, x0: np.ndarray,
                      v0: np.ndarray, t: np.ndarray,
                      steps: int) -> tuple[np.ndarray, np.ndarray]:
    """RK4 flows of (x, v) under the variational system dv/dt = Df(x) v, for a
    stack of members in one integration: member a flows from x0[a] with the
    tangent v0[a] for its own time t[a], in the shared step count: x0[k, n],
    v0[k, n] and t[k].

    field(X) gives the field at each row of X[k, n], and field_jvp(X, V) the
    products Df(X[a]) V[a]. At every stage field_jvp is called first and then
    field, on the same X, so a field_jvp that evaluates the field at X with
    its probes (values_and_directional_derivatives) can hand those values on
    to field. The system never needs the
    full jacobian: a caller without an analytic one can pass directional
    differences (directional_derivatives), two probes per member and stage
    instead of 2 dim(x).

    The field is autonomous, so member a runs from -t[a] to 0, in steps of
    exactly t[a]/steps, the steps of a flow from 0 to t[a]: row a equals the
    member's flow alone bit for bit when the callables' rows do not depend on
    the other rows.
    """
    x0, v0 = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    n = x0.shape[1]

    def rhs(_, Y):
        X = Y[:, :n]
        jvps = np.asarray(field_jvp(X, Y[:, n:]), dtype=float)
        return np.concatenate([np.asarray(field(X), dtype=float), jvps], axis=1)

    Y = rk4(rhs, np.concatenate([x0, v0], axis=1), -np.asarray(t, dtype=float), 0.0, steps)
    return Y[:, :n], Y[:, n:]


def metric_partials(m: MetricChart, x: np.ndarray) -> np.ndarray:
    """dg[..., i, j, l] = d g_ij / d x_l at a point or a stack of points
    x[..., dim], from the metric's analytic dg."""
    return np.asarray(m.dg(np.asarray(x, dtype=float)), dtype=float)


def christoffel(m: MetricChart, x: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols Gamma[k, i, j] = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij).

    Symmetric in (i, j) by construction. Raises SingularMetricError when g(x)
    is not invertible.
    """
    G = m(np.asarray(x, dtype=float))
    det = np.linalg.det(G)
    if not abs(det) >= 1e-12:  # a NaN determinant is singular too
        raise SingularMetricError(f"metric singular at {x} (det={det:.3e})")
    Ginv = np.linalg.inv(G)
    dG = metric_partials(m, x)
    return christoffel_from_partials(Ginv, dG)


def christoffel_from_partials(Ginv: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols Gamma[..., k, i, j] from an inverse metric and the
    partials dG[..., i, j, l] = d_l g_ij, at a point or a stack of points."""

    def bracket(l):  # [..., i, j] = d_i g_jl + d_j g_il - d_l g_ij
        d_j = dG[..., :, l, :]  # d_j[i, j] = d_j g_il
        return np.swapaxes(d_j, -1, -2) + d_j - dG[..., :, :, l]

    # one l at a time, so no stack of brackets is held beside the sum
    gamma = sum_from_zero(Ginv[..., :, l, None, None] * bracket(l)[..., None, :, :]
                          for l in range(Ginv.shape[-1]))
    gamma *= 0.5
    return gamma


def sum_from_zero(terms) -> np.ndarray:
    """The sum of an iterable of arrays, added in order onto +0: the bits of
    an einsum over the same products, which adds each product into an output
    that starts at +0, so a sum whose terms are all -0 is +0 here too. The
    first term must have the sum's shape; it is summed into in place, so each
    term should be a fresh array, and a generator keeps one term alive at a
    time."""
    terms = iter(terms)
    total = next(terms)
    total += 0.0
    for term in terms:
        total += term
    return total
