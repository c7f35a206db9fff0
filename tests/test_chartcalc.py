import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import raises

from cartanlab.chartcalc import (
    ChartMap,
    FD_STEP,
    MetricChart,
    Redraw,
    batch_of_one,
    christoffel,
    constant_jacobian,
    differentiate,
    differentiate_many,
    directional_derivative,
    directional_derivatives,
    draw_then_evaluate,
    exceeds,
    flow,
    flow_with_tangent,
    jacobian_fd,
    memo_by_point,
    newton_solve,
    newton_solve_many,
    read_only,
    repeated_rows,
    rk4,
    values_and_directional_derivatives,
    worst_case,
    worst_case_min,
)
from cartanlab.errors import ConfigError, DomainError, NonFiniteError, SingularMetricError
from cartanlab.groupoid import right_invariant_many
from cartanlab.models.actions import se2_group
from cartanlab.models.metrics import euclidean_metric, sphere_metric
from cartanlab.models.pair import make_pair_groupoid


def test_differentiate_identity():
    f = ChartMap(3, 3, lambda x: x)
    x = np.array([0.3, -0.7, 1.2])
    assert np.allclose(differentiate(f, x), np.eye(3), atol=1e-9)


def test_differentiate_product_sum():
    f = ChartMap(2, 2, lambda x: np.array([x[0] * x[1], x[0] + x[1]]))
    J = differentiate(f, np.array([2.0, 3.0]))
    assert np.allclose(J, [[3.0, 2.0], [1.0, 1.0]], atol=1e-9)


def test_differentiate_composed_multiplication_vs_richardson():
    # composed group-multiplication map checked against a Richardson-extrapolated
    # central-difference estimate of higher order
    compose = batch_of_one(se2_group().compose_many)
    rng = np.random.default_rng(0)
    a1 = rng.uniform(-0.4, 0.4, size=3)
    a2 = rng.uniform(-0.4, 0.4, size=3)
    B = rng.uniform(-0.5, 0.5, size=(3, 3))

    def eval_map(x):
        return compose(a2 + B @ x, compose(a1, np.array([x[0], x[1], -x[2]])))

    f = ChartMap(3, 3, eval_map)
    x = rng.uniform(-0.2, 0.2, size=3)
    J = differentiate(f, x)
    J_h = jacobian_fd(eval_map, x, h=FD_STEP)
    J_h2 = jacobian_fd(eval_map, x, h=FD_STEP / 2)
    J_rich = (4.0 * J_h2 - J_h) / 3.0
    assert np.max(np.abs(J - J_rich)) <= 10 * FD_STEP**2


def test_differentiate_prefers_analytic_jacobian():
    marker = np.full((2, 2), 7.0)
    f = ChartMap(2, 2, lambda x: x, jacobian=constant_jacobian(marker))
    assert np.array_equal(differentiate(f, np.zeros(2)), marker)
    # the constant and its stacks are read-only; the caller's matrix is not
    assert np.array_equal(f.jacobian.constant, marker) and marker.flags.writeable
    assert not f.jacobian.constant.flags.writeable
    assert not f.jacobian(np.zeros((3, 2))).flags.writeable


def test_a_single_point_jacobian_is_refused():
    # a hook written for one point returns one matrix, also on a one-row stack
    marker = np.full((2, 3), 7.0)
    f = ChartMap(3, 2, lambda x: x[:2], jacobian=lambda x: marker)
    for X in (np.zeros((1, 3)), np.zeros((4, 3))):
        with raises(ConfigError, match=r"R\^3 -> R\^2 is \(2, 3\) on"):
            differentiate_many(f, X)
    with raises(ConfigError, match=r"not \(1, 2, 3\)"):
        differentiate(f, np.zeros(3))


def test_analytic_jacobian_calls_once_per_stack_and_names_a_nonfinite_row():
    calls = []

    def jac(X):
        calls.append(len(X))
        J = np.zeros((len(X), 1, 2))
        J[:, 0, 0] = np.where(X[:, 0] > 0, np.nan, 1.0)
        return J

    f = ChartMap(2, 1, lambda x: x[:1], jacobian=jac)
    for k in (1, 2, 17):
        differentiate_many(f, -np.ones((k, 2)))
    assert calls == [1, 2, 17]
    X = np.array([[-1.0, 0.5], [2.0, 0.25], [3.0, 0.0]])
    with raises(NonFiniteError, match=r"at \[2\.   0\.25\]"):
        differentiate_many(f, X)
    with raises(NonFiniteError, match=r"at \[2\.   0\.25\]"):
        differentiate(f, X[1])


def test_differentiate_domain_and_nonfinite_errors():
    f = ChartMap(2, 2, lambda x: x)
    with raises(DomainError, match="dimension 2"):
        differentiate(f, np.array([1.0, 0.0, 0.0]))
    bad = ChartMap(1, 1, lambda x: np.array([np.nan]))
    with raises(NonFiniteError):
        differentiate(bad, np.zeros(1))
    # the stacked form refuses a stack of the wrong shape and names the
    # first row whose derivative is not finite
    with raises(DomainError, match="dimension 2"):
        differentiate_many(f, np.zeros((3, 3)))
    partly = ChartMap(1, 1, lambda x: np.sqrt(x) if x[0] >= 0 else np.array([np.nan]))
    with raises(NonFiniteError, match=r"at \[-1\.\]"):
        differentiate_many(partly, np.array([[1.0], [-1.0], [-2.0]]))


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
def test_differentiate_many_rows_equal_differentiate(analytic):
    def jac(X):
        x0, x1 = X.T
        return np.stack([np.cos(x0), np.ones_like(x0), x1, x0, np.zeros_like(x0), 2.0 * x1],
                        axis=1).reshape(-1, 3, 2)

    f = ChartMap(2, 3, lambda x: np.array([np.sin(x[0]) + x[1], x[0] * x[1], x[1] ** 2]),
                 jacobian=jac if analytic else None,
                 eval_many=lambda X: np.stack([np.sin(X[:, 0]) + X[:, 1], X[:, 0] * X[:, 1],
                                               X[:, 1] ** 2], axis=1))
    X = np.random.default_rng(5).uniform(-1, 1, size=(6, 2))
    jacs = differentiate_many(f, X[::-1])
    assert jacs.flags.c_contiguous
    for x, row in zip(X[::-1], jacs):
        assert np.array_equal(row, differentiate(f, x))


def test_composition_rule_within_contract():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, size=(3, 3))

    def g_eval(x):
        return np.array([np.sin(x[0]) + x[1], x[0] * x[1], np.cos(x[1])])

    def f_eval(y):
        return A @ np.array([y[0] ** 2, y[1], y[2] * y[0]])

    f = ChartMap(3, 3, f_eval)
    g = ChartMap(2, 3, g_eval)
    comp = ChartMap(2, 3, lambda x: f_eval(g_eval(x)))
    for _ in range(10):
        x = rng.uniform(-0.8, 0.8, size=2)
        lhs = differentiate(comp, x)
        rhs = differentiate(f, g(x)) @ differentiate(g, x)
        assert np.max(np.abs(lhs - rhs)) <= 100 * FD_STEP**2


def test_flow_zero_field():
    x0 = np.array([0.4, -0.2])
    assert np.array_equal(flow(lambda x: np.zeros(2), x0, 3.0, steps=10), x0)


def test_flow_linear_ode():
    out = flow(lambda x: x, np.array([1.0]), 1.0, steps=100)
    assert abs(out[0] - np.e) < 1e-6


def test_flow_right_invariant_translation_field():
    # right-invariant extension of a constant section on the pair groupoid of R
    # integrates to the closed-form translation flow
    model, _ = make_pair_groupoid(np.array([[-2.0, 2.0]]))
    c = 0.37

    def field(g):
        return right_invariant_many(model, lambda m: np.array([c, 0.0]), g[None])[0]

    g0 = np.array([0.2, -0.1])
    out = flow(field, g0, 1.5, steps=150)
    assert np.max(np.abs(out - np.array([g0[0] + 1.5 * c, g0[1]]))) < 1e-8


@settings(max_examples=20, deadline=None)
@given(t1=st.floats(-0.8, 0.8), t2=st.floats(-0.8, 0.8))
def test_flow_composition(t1, t2):
    def field(x):
        return np.array([np.sin(x[1]), np.cos(x[0])])

    x0 = np.array([0.1, 0.2])
    one = flow(field, flow(field, x0, t1, 200), t2, 200)
    both = flow(field, x0, t1 + t2, 400)
    assert np.max(np.abs(one - both)) < 1e-9


def test_flow_escape_raises():
    box = np.array([[-1.0, 1.0]])
    with raises(NonFiniteError):
        flow(lambda x: np.ones(1), np.array([0.9]), 1.0, steps=20, box=box)


def test_rk4_raises_on_blow_up():
    # dy/dt = y^2, y(0) = 1 blows up at t = 1
    with np.errstate(over="ignore", invalid="ignore"), raises(NonFiniteError):
        rk4(lambda t, y: y * y, np.ones(1), 0.0, 2.0, steps=200)


def test_flow_with_tangent_rotation_closed_form():
    # f(x) = A x rotates the plane, so both x and v rotate by angle t
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    x0, v0, t = np.array([0.3, -0.2]), np.array([0.5, 0.7]), 1.3
    X, V = flow_with_tangent(lambda X: X @ A.T, lambda X, V: V @ A.T, x0[None], v0[None],
                             np.array([t]), steps=200)
    x, v = X[0], V[0]
    c, s = np.cos(t), np.sin(t)
    R = np.array([[c, -s], [s, c]])
    assert np.max(np.abs(x - R @ x0)) < 1e-9
    assert np.max(np.abs(v - R @ v0)) < 1e-9


def test_newton_solve_converges():
    def square(x):
        return x * x

    x = newton_solve(square, np.array([2.0]), np.array([1.0]), 1e-13)
    assert abs(x[0] - np.sqrt(2.0)) < 1e-13


def test_newton_solve_many_starts_each_row_from_its_own_start():
    # two starts, three rows each: every row equals its solve alone from its
    # start, and the first call evaluates each start once
    def cube(X):
        return X ** 3 + X

    Y = np.array([[0.5], [2.0], [-1.0], [3.0], [0.1], [10.0]])
    X0 = np.array([[0.2], [1.5]])
    start = np.array([0, 1, 0, 1, 0, 1])
    calls = []

    def func_many(P, owner):
        calls.append((P.copy(), owner.copy()))
        return cube(P)

    X = newton_solve_many(func_many, Y, X0, start, 1e-13)
    assert np.array_equal(calls[0][0], X0) and np.array_equal(calls[0][1], [0, 1])
    for y, a, x in zip(Y, start, X):
        assert np.array_equal(x, newton_solve(cube, y, X0[a], 1e-13))


def test_newton_solve_raises_without_root():
    # x^2 + 1 = 0 has no real root, so no iterate converges
    with raises(NonFiniteError):
        newton_solve(lambda x: x * x + 1.0, np.zeros(1), np.array([0.5]), 1e-13)


def test_christoffel_euclidean_zero():
    G = christoffel(euclidean_metric(), np.array([0.3, 0.4]))
    assert np.max(np.abs(G)) == 0.0


def test_christoffel_sphere_origin_zero():
    G = christoffel(sphere_metric(), np.zeros(2))
    assert np.max(np.abs(G)) < 1e-12


def test_christoffel_sphere_against_conformal_symbols():
    # independent oracle: for g = lam * I the symbols are
    # Gamma^k_ij = d_i phi delta_jk + d_j phi delta_ik - d_k phi delta_ij
    # with phi = log(lam)/2; at (0.5, 0): d_1 phi = -0.8, d_2 phi = 0
    G = christoffel(sphere_metric(), np.array([0.5, 0.0]))
    expected = np.zeros((2, 2, 2))
    expected[0] = [[-0.8, 0.0], [0.0, 0.8]]
    expected[1] = [[0.0, -0.8], [-0.8, 0.0]]
    assert np.max(np.abs(G - expected)) < 1e-9


def test_christoffel_symmetry_and_fd_path():
    met = sphere_metric()
    met_fd = MetricChart(2, met.g, None, name="sphere-fd")
    x = np.array([0.31, -0.18])
    Ga = christoffel(met, x)
    Gf = christoffel(met_fd, x)
    assert np.max(np.abs(Ga - np.swapaxes(Ga, 1, 2))) == 0.0
    assert np.max(np.abs(Ga - Gf)) < 1e-8


def test_christoffel_singular_metric():
    degenerate = MetricChart(2, lambda x: np.zeros((2, 2)))
    with raises(SingularMetricError):
        christoffel(degenerate, np.zeros(2))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_christoffel_refuses_a_nan_metric():
    # abs(nan) < tol is False: the guard returned all-NaN symbols
    with raises(SingularMetricError):
        christoffel(MetricChart(2, lambda x: np.full((2, 2), np.nan)), np.zeros(2))


def test_worst_case_accumulators_read_nan_as_the_failing_extreme():
    nan = float("nan")
    assert worst_case(0.5, 0.25) == 0.5 and worst_case(0.5, nan) == np.inf
    assert worst_case_min(0.5, 0.25) == 0.25 and worst_case_min(0.5, nan) == -np.inf


def _counted_memo(size=8):
    calls = []

    def func(x):
        calls.append(x.copy())
        return float(np.sum(x))

    return memo_by_point(func, size), calls


def test_memo_by_point_skips_func_on_a_hit():
    memo, calls = _counted_memo()
    assert memo([0.1, 0.2]) == memo(np.array([0.1, 0.2])) == pytest.approx(0.3)
    assert len(calls) == 1
    assert calls[0].dtype == np.float64  # func sees the point as a float array


def test_memo_by_point_tells_signed_zeros_apart():
    memo, calls = _counted_memo()
    memo(np.array([0.0, 1.0]))
    memo(np.array([-0.0, 1.0]))
    assert len(calls) == 2
    assert np.signbit(calls[1][0]) and not np.signbit(calls[0][0])


def test_memo_by_point_holds_size_points_then_clears():
    k = 4
    memo, calls = _counted_memo(size=k)
    points = [np.array([float(i)]) for i in range(k + 1)]
    for p in points[:k]:
        memo(p)
    for p in points[:k]:
        memo(p)
    assert len(calls) == k  # all k held
    memo(points[k])  # full: cleared before storing
    assert len(calls) == k + 1
    memo(points[k])
    assert len(calls) == k + 1
    memo(points[0])
    assert len(calls) == k + 2


def test_memo_by_point_hands_out_read_only_arrays():
    stored = np.array([1.0, 2.0])
    memo = memo_by_point(lambda x: stored, 1)
    out = memo(np.zeros(1))
    with raises(ValueError):
        out[0] = 5.0
    assert stored.flags.writeable  # func's own array is left writable
    assert memo(np.zeros(1))[0] == 1.0


def _counted_stacked_memo(size=8, func_many=True):
    calls = []

    def func(x):
        calls.append(x[None].copy())
        return np.array([np.sum(x), np.prod(x)])

    def stacked_func(X):
        calls.append(X.copy())
        return np.stack([np.sum(X, axis=1), np.prod(X, axis=1)], axis=1)

    return memo_by_point(func, size, func_many=stacked_func if func_many else None), calls


def test_memo_many_serves_hits_and_computes_each_miss_once():
    memo, calls = _counted_stacked_memo()
    memo(np.array([1.0, 2.0]))
    X = np.array([[3.0, 4.0], [1.0, 2.0], [5.0, 6.0], [3.0, 4.0]])
    out = memo.many(X)
    assert np.array_equal(out, [[7.0, 12.0], [3.0, 2.0], [11.0, 30.0], [7.0, 12.0]])
    # the misses, each once and in row order, in one stacked call
    assert len(calls) == 2 and np.array_equal(calls[1], [[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(memo.many(X[::-1]), out[::-1]) and len(calls) == 2
    assert np.array_equal(memo([5.0, 6.0]), [11.0, 30.0]) and len(calls) == 2
    memo.many(np.array([[1.0, 2.0]]))  # all hits: no call
    assert len(calls) == 2


def test_memo_many_without_func_many_evaluates_the_misses_row_by_row():
    memo, calls = _counted_stacked_memo(func_many=False)
    out = memo.many(np.array([[3.0, 4.0], [3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(out, [[7.0, 12.0], [7.0, 12.0], [11.0, 30.0]])
    assert [c.tolist() for c in calls] == [[[3.0, 4.0]], [[5.0, 6.0]]]


def test_memo_many_keeps_the_bound_and_hands_out_read_only_values():
    memo, calls = _counted_stacked_memo(size=3)
    X = np.array([[float(i), 1.0] for i in range(5)])
    out = memo.many(X)
    assert np.array_equal(out[:, 1], np.arange(5.0)) and len(calls) == 1
    # stored in row order, cleared when full: the last two rows are held
    memo(X[3])
    memo(X[4])
    assert len(calls) == 1
    memo(X[0])
    assert len(calls) == 2
    out[0, 0] = 9.0  # the stack is the caller's own copy
    held = memo(X[4])
    with raises(ValueError):
        held[0] = 5.0
    assert np.array_equal(memo.many(X[:1]), [[1.0, 0.0]])


def test_directional_derivatives_equal_the_single_direction_form():
    def func(x):
        return np.array([np.sin(x[0]) * x[1], np.exp(x[0] - x[1]), x @ x])

    calls = []

    def func_many(X):
        calls.append(len(X))
        return np.stack([func(x) for x in X])

    x = np.array([0.3, -0.7])
    V = np.array([[1.0, 0.5], [0.0, 0.0], [-2.0, 3.0]])
    D = directional_derivatives(func_many, x, V)
    assert calls == [4]  # the moving rows' probes in one call
    for a in range(len(V)):
        assert np.array_equal(D[a], directional_derivative(func, x, V[a]))
    assert np.array_equal(directional_derivatives(func_many, x, np.zeros((2, 2))),
                          np.zeros((2, 3)))


def test_exceeds_fails_a_nan_defect():
    assert exceeds(2e-9, 1e-9) and exceeds(np.nan, 1e-9)
    assert not exceeds(1e-9, 1e-9) and not exceeds(0.0, 1e-9)


def test_directional_derivatives_take_one_base_point_per_direction():
    def func(x):
        return np.array([np.sin(x[0]) * x[1], np.exp(x[0] - x[1]), x @ x])

    calls = []

    def func_many(X):
        calls.append(len(X))
        return np.stack([func(x) for x in X])

    X = np.array([[0.3, -0.7], [0.1, 0.2], [-0.4, 0.5]])
    V = np.array([[1.0, 0.5], [0.0, 0.0], [-2.0, 3.0]])
    D = directional_derivatives(func_many, X, V)
    assert calls == [4]
    for a in range(len(V)):
        assert np.array_equal(D[a], directional_derivative(func, X[a], V[a]))
    assert np.array_equal(directional_derivatives(func_many, X[:2], np.zeros((2, 2))),
                          np.zeros((2, 3)))
    # the base points join the probes: one call of 3 + 4 rows gives both parts
    del calls[:]
    values, slopes = values_and_directional_derivatives(func_many, X, V)
    assert calls == [7]
    assert np.array_equal(values, [func(x) for x in X]) and np.array_equal(slopes, D)
    # no direction moves: the rows of X alone, their shape giving the slopes'
    del calls[:]
    values, slopes = values_and_directional_derivatives(func_many, X, np.zeros((3, 2)))
    assert calls == [3]
    assert np.array_equal(values, [func(x) for x in X]) and np.array_equal(slopes, np.zeros((3, 3)))


def test_rk4_with_per_member_start_times_equals_each_member_alone():
    def rhs(t, y):
        return np.array([np.cos(3.0 * t) * y[1] - y[0] * y[0], np.sin(t) + y[0] * y[1]])

    t0 = np.array([0.3, -0.2, 0.0])
    Y0 = np.array([[0.5, -0.1], [0.2, 0.4], [-0.3, 0.7]])
    times = []

    def stacked(t, Y):
        times.append(np.array(t))
        return np.stack([rhs(ta, ya) for ta, ya in zip(t, Y)])

    out = rk4(stacked, Y0, t0, 1.1, steps=7)
    assert len(times) == 4 * 7 and all(t.shape == (3,) for t in times)
    for a in range(len(t0)):
        assert np.array_equal(out[a], rk4(rhs, Y0[a], float(t0[a]), 1.1, steps=7))


def test_flow_with_tangent_rows_equal_each_member_alone():
    # each member flows for its own time, forward and backward; its rows equal
    # the old one-member integration, rk4 from 0 to t of the state [x, v]
    def field(x):
        return np.array([np.sin(x[1]) - x[0] * x[0], x[0] * x[1] + 0.3])

    def jvp(x, v):
        return np.array([np.cos(x[1]) * v[1] - 2.0 * x[0] * v[0], x[1] * v[0] + x[0] * v[1]])

    X0 = np.array([[0.5, -0.1], [0.2, 0.4], [-0.3, 0.7]])
    V0 = np.array([[1.0, 0.0], [0.3, -0.6], [0.0, 0.0]])
    t = np.array([0.7, -0.4, 1e-3])
    order = []

    def fields(X):
        order.append("field")
        return np.stack([field(x) for x in X])

    def jvps(X, V):
        order.append("jvp")
        return np.stack([jvp(x, v) for x, v in zip(X, V)])

    X, V = flow_with_tangent(fields, jvps, X0, V0, t, steps=5)
    assert order == ["jvp", "field"] * (4 * 5)

    def rhs(_, y):
        return np.concatenate([field(y[:2]), jvp(y[:2], y[2:])])

    for a in range(len(t)):
        alone = rk4(rhs, np.concatenate([X0[a], V0[a]]), 0.0, float(t[a]), 5)
        assert np.array_equal(X[a], alone[:2]) and np.array_equal(V[a], alone[2:])
        x, v = flow_with_tangent(fields, jvps, X0[a:a + 1], V0[a:a + 1], t[a:a + 1], steps=5)
        assert np.array_equal(X[a], x[0]) and np.array_equal(V[a], v[0])


@pytest.mark.parametrize("layout", ["C", "F", "columns", "writeable"])
def test_repeated_rows_is_the_read_only_broadcast(layout):
    # the stacks of a constant jacobian and a constant frame: broadcast_to's
    # view, read-only, over A's own memory, whatever A's layout
    I4 = np.arange(16.0).reshape(4, 4)
    A = {"C": I4[1:3], "F": I4.T, "columns": I4[:, 1:3], "writeable": I4[1:3]}[layout]
    if layout != "writeable":
        A = read_only(A)
    rows = repeated_rows(A)
    for k in (1, 5):
        view = rows(k)
        reference = np.broadcast_to(A, (k,) + A.shape)
        assert np.array_equal(view, reference) and view.strides == reference.strides
        assert not view.flags.writeable and np.shares_memory(view, A)
    assert A.flags.writeable == (layout == "writeable")  # the caller's array is left as it was


def test_a_redrawn_stack_is_drawn_again_by_replay():
    # a stack that refuses its deferred draws is drawn again by replay from
    # the rng state before the first draw, and evaluated as one stack
    class Deferred:
        def __init__(self, value):
            self.value = value

        @staticmethod
        def stack_of(draws):
            raise Redraw("refused")

    rng = np.random.default_rng(0)
    expected = np.random.default_rng(0).uniform(size=4)
    evaluated = []
    draw_then_evaluate(rng, 4, lambda: (Deferred(rng.uniform()),),
                       evaluated.append, replay=lambda: (rng.uniform(),))
    assert len(evaluated) == 1 and evaluated[0].tobytes() == expected.tobytes()
    assert rng.uniform() == np.random.default_rng(0).uniform(size=5)[4]
