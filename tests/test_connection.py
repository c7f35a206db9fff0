import numpy as np
import pytest
from pytest import raises

from cartanlab import experiments
from cartanlab.chartcalc import (
    WorstErrors,
    batch_of_one,
    deriv_at_zero,
    directional_derivative,
    directional_derivatives,
    flow_with_tangent,
    jacobian_fd,
    path_velocity,
    rk4,
)
from cartanlab import chartcalc, connection
from cartanlab.connection import (
    T_DIFF_STEP,
    UNITAL_SAMPLES,
    AlgebroidConnection,
    CartanConnection,
    algebroid_transport,
    check_multiplicative,
    check_unital,
    infinitesimalize,
    infinitesimalize_along,
    parallel_transport,
    transport_many,
    transport_with_vector,
)
from cartanlab.errors import DomainError, EscapeError, NotABisectionError
from cartanlab.groupoid import (
    AffineSection,
    algebroid_vec,
    aligned_frame,
    identity_jet,
    jet_distance,
    kernel_basis,
    oracle_jet_mul,
    oracle_jets_and_refusals,
    outer_fd_step,
    random_section,
    right_invariant_many,
    right_translate,
    sample_base_point,
)
from cartanlab.models import MODELS, make_model
from cartanlab.report import ExperimentConfig

from conftest import CORE_MODELS


def section_values(sections):
    """The values_many of a list of sections: at each row of a stack P[p, n],
    the (N, len(sections)) matrix whose column a is sections[a] there."""

    def values_many(P):
        return np.array([[X(p) for X in sections] for p in P], dtype=float).transpose(0, 2, 1)

    return values_many


def test_multiplicativity_canonical_translation(zoo):
    model, S = zoo("translation-R2")
    assert check_multiplicative(S, seed=3, count=40) <= 1e-9


@pytest.mark.parametrize("name", CORE_MODELS)
def test_multiplicativity_all_shipped(zoo, name, rng):
    model, S = zoo(name)
    assert check_multiplicative(S, seed=5, count=30) <= 1e-7
    assert check_unital(S, rng) <= 1e-9


def _nan_on_call(mu_at, call):
    """mu_at returning an all-NaN jet on its call-th call and exact ones otherwise."""
    calls = [0]

    def wrapped(coords):
        calls[0] += 1
        out = np.asarray(mu_at(coords), dtype=float)
        return np.full_like(out, np.nan) if calls[0] == call else out

    return wrapped


def _nan_row_on_call(mu_at, call, row):
    """mu_at whose stacked form returns an all-NaN jet in row `row` of its
    call-th call and exact ones otherwise; the single form is its batch of one."""
    calls = [0]

    def many(G):
        calls[0] += 1
        out = np.array(mu_at.many(G), dtype=float)
        if calls[0] == call:
            out[row] = np.nan
        return out

    return batch_of_one(many)


def test_multiplicativity_fails_on_one_nan_jet(zoo):
    # the first stacked jet call takes the product jets of all 20 samples, so
    # row 10 of it is the product jet of the 11th; max(worst, nan) would drop
    # it and pass with max_error ~7e-12
    model, S = zoo("pair-R2")
    bad = CartanConnection(model, _nan_row_on_call(S.mu_at, 1, 10))
    assert check_multiplicative(bad, seed=0, count=20) == np.inf


def test_unitality_reports_nan_jet_as_infinite(zoo):
    model, S = zoo("pair-R2")
    bad = CartanConnection(model, _nan_on_call(S.mu_at, 5))
    assert check_unital(bad, np.random.default_rng(0)) == np.inf


def _multiplicative_one_by_one(S, seed, count):
    """check_multiplicative as a per-sample loop: each pair drawn, then its
    single jets and its oracle product taken."""
    model = S.model
    rng = np.random.default_rng(seed)
    worst = WorstErrors(("multiplicative",))
    for _ in range(count):
        g, h = model.sample_composable(rng)
        lhs = S.jet(model.arrow(model.mul(g.coords, h.coords)))
        try:
            rhs = oracle_jet_mul(model, S.jet(g), S.jet(h))
        except NotABisectionError:
            worst.record("multiplicative", np.inf)
            continue
        worst.record("multiplicative", jet_distance(lhs, rhs))
    return worst["multiplicative"]


def _unital_one_by_one(S, rng):
    """check_unital as a per-sample loop."""
    worst = WorstErrors(("unital",))
    for _ in range(UNITAL_SAMPLES):
        m = sample_base_point(S.model, rng)
        worst.record("unital", jet_distance(S.jet(S.model.unit_arrow(m)),
                                            identity_jet(S.model, m)))
    return worst["unital"]


def _jets_raising_at(S, rows, label, error=DomainError):
    """S whose jet map raises error(label at g) at the first arrow g of a
    stack that is one of rows; its single form is its batch of one."""

    def many(G):
        for g in np.asarray(G, dtype=float):
            if any(np.array_equal(g, r) for r in rows):
                raise error(f"{label} at {g}")
        return S.mu_many(G)

    return CartanConnection(S.model, batch_of_one(many), name=S.name)


def _nan_jets_at(S, rows):
    """S with an all-NaN jet at the arrows rows and exact ones elsewhere."""

    def many(G):
        MU = np.array(S.mu_many(G), dtype=float)
        MU[[any(np.array_equal(g, r) for r in rows) for g in G]] = np.nan
        return MU

    return CartanConnection(S.model, batch_of_one(many), name=S.name)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_multiplicativity_checks_equal_the_per_sample_loops(name, jacobians):
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    assert check_multiplicative(S, seed=7, count=5) == _multiplicative_one_by_one(S, 7, 5)
    assert (check_unital(S, np.random.default_rng(7))
            == _unital_one_by_one(S, np.random.default_rng(7)))

    rng = np.random.default_rng(7)
    pairs = [model.sample_composable(rng) for _ in range(5)]
    # a jet the oracle refuses fails its own pair alone, stacked or not
    refused = _nan_jets_at(S, [pairs[3][1].coords])
    assert check_multiplicative(refused, seed=7, count=5) == np.inf
    assert _multiplicative_one_by_one(refused, 7, 5) == np.inf
    # pair 3's product jet fails a step before pair 1's second factor:
    # evaluating the whole stack step by step would meet pair 3's error first
    products = [model.mul(g.coords, h.coords) for g, h in pairs]
    bad = _jets_raising_at(S, [products[3], pairs[1][1].coords], "jet")
    with raises(DomainError) as per_sample:
        _multiplicative_one_by_one(bad, 7, 5)
    with raises(DomainError) as stacked:
        check_multiplicative(bad, seed=7, count=5)
    assert str(per_sample.value) == f"jet at {pairs[1][1].coords}"
    assert str(stacked.value) == str(per_sample.value)

    rng = np.random.default_rng(7)
    units = [model.unit(sample_base_point(model, rng)) for _ in range(UNITAL_SAMPLES)]
    bad = _jets_raising_at(S, [units[4], units[11]], "unit jet")
    with raises(DomainError) as per_sample:
        _unital_one_by_one(bad, np.random.default_rng(7))
    with raises(DomainError) as stacked:
        check_unital(bad, np.random.default_rng(7))
    assert str(per_sample.value) == f"unit jet at {units[4]}"
    assert str(stacked.value) == str(per_sample.value)


@pytest.mark.parametrize("count", [1, 6, 20])
def test_multiplicativity_takes_every_jet_in_three_stacked_calls(zoo, monkeypatch, count):
    model, S = zoo("pair-R2")
    calls = {"mu_many": 0, "oracle": 0}

    def counting_many(G):
        calls["mu_many"] += 1
        return S.mu_at.many(G)

    def counting_oracle(*args):
        calls["oracle"] += 1
        return oracle_jets_and_refusals(*args)

    monkeypatch.setattr(connection, "oracle_jets_and_refusals", counting_oracle)
    check_multiplicative(CartanConnection(model, batch_of_one(counting_many)), seed=2,
                         count=count)
    assert calls == {"mu_many": 3, "oracle": 1}


def test_multiplicativity_detects_kernel_fault(zoo):
    # deliberately perturb the horizontal jets by a nonzero kernel section;
    # measured deviation on this fault is ~1.4e-1
    model, S = zoo("translation-R2")
    frame = aligned_frame(model, np.zeros(2))

    def perturbed(g):
        K = frame(model.src(g))
        C = 0.05 * np.array([[1.0 + g[2], 0.5 * g[3]], [0.2, 1.0 - g[2]]])
        return S.mu_at(g) + K @ C

    bad = CartanConnection(model, perturbed, name="faulted")
    assert check_multiplicative(bad, seed=3, count=30) > 1e-3


def test_pair_chart_parallelism_multiplicative(zoo):
    model, S = zoo("pair-R2")
    assert check_multiplicative(S, seed=11, count=40) <= 1e-8


def test_transport_identity_and_constant_path(zoo, rng):
    model, S = zoo("se2-action")
    m = np.array([0.2, -0.1])
    g = model.arrow(model.arrow_with_source(m, rng))
    same = parallel_transport(S, lambda t: m, 0.0, 1.0, g)
    assert np.max(np.abs(same.coords - g.coords)) < 1e-12
    same2 = parallel_transport(S, lambda t: m + t * np.array([0.3, 0.1]), 0.0, 0.0, g)
    assert np.max(np.abs(same2.coords - g.coords)) < 1e-12


def test_transport_fixes_units(zoo):
    model, S = zoo("se2-action")
    gamma = lambda t: np.array([0.1, -0.2]) + t * np.array([0.4, 0.3])
    g0 = model.unit_arrow(gamma(0.0))
    out = parallel_transport(S, gamma, 0.0, 1.0, g0)
    assert np.max(np.abs(out.coords - model.unit(gamma(1.0)))) < 1e-8


def test_transport_cocycle(zoo, rng):
    model, S = zoo("isojet-sphere")
    m = np.array([0.05, -0.1])
    gamma = lambda t: m + t * np.array([0.3, 0.2]) + t * t * np.array([-0.1, 0.15])
    g = model.arrow(np.array([m[0], m[1], 0.2, -0.15, 0.3]))
    ab = parallel_transport(S, gamma, 0.0, 0.7, g)
    bc = parallel_transport(S, gamma, 0.7, 1.0, ab)
    ac = parallel_transport(S, gamma, 0.0, 1.0, g)
    assert np.max(np.abs(bc.coords - ac.coords)) < 1e-8


def test_transport_translation_closed_form(zoo, rng):
    # horizontal leaves of the constant-bisection connection keep the group
    # coordinate fixed and slide the base point along the path
    model, S = zoo("translation-R2")
    m = np.array([0.3, 0.1])
    gamma = lambda t: m + t * np.array([-0.5, 0.4])
    g = model.arrow(model.arrow_with_source(m, rng))
    out = parallel_transport(S, gamma, 0.0, 1.0, g)
    expected = np.concatenate([g.coords[:2], gamma(1.0)])
    assert np.max(np.abs(out.coords - expected)) < 1e-10


def test_transport_escape(zoo, rng):
    model, S = zoo("translation-R2")
    m = np.array([0.5, 0.0])
    g = model.arrow(model.arrow_with_source(m, rng))
    with raises(EscapeError):
        parallel_transport(S, lambda t: m + t * np.array([3.0, 0.0]), 0.0, 1.0, g)


@pytest.mark.parametrize("name", ["translation-R2", "se2-action", "isojet-sphere"])
def test_vector_transport_escape(zoo, name):
    # the arrow transport raises on this path; its linearization must too,
    # not return an endpoint outside the chart box
    model, S = zoo(name)
    m = np.array([0.5, 0.0])
    gamma = lambda t: m + t * np.array([3.0, 0.0])
    X = algebroid_vec(model, m, kernel_basis(model, m)[:, 0], check=False)
    with raises(EscapeError):
        transport_with_vector(S, gamma, 0.0, 1.0, model.unit(m), X.vec)
    with raises(EscapeError):
        algebroid_transport(S, gamma, 0.0, 1.0, X)


def test_stacked_transport_escape_names_the_first_row_that_left(zoo):
    # members 1 and 2 leave the box at the same step along their own paths,
    # member 0 stays: the error names member 1's arrow, as it does alone
    model, S = zoo("translation-R2")
    M = np.array([[0.1, 0.0], [0.5, 0.0], [0.5, 0.1]])
    velocity = np.array([[0.1, 0.0], [3.0, 0.0], [3.0, 0.0]])
    U = model.unit.many(M)
    with raises(EscapeError) as stacked_error:
        transport_many(S, lambda T: M + T * velocity, np.zeros(3), 1.0, U,
                       np.zeros((3, model.N)), steps=40)
    with raises(EscapeError) as alone:
        transport_with_vector(S, lambda t: M[1] + t * velocity[1], 0.0, 1.0, U[1],
                              np.zeros(model.N), steps=40)
    assert str(stacked_error.value) == str(alone.value)


def _transport_unstacked(S, gamma, t0, t1, coords0, w0, steps):
    # one member alone, three mu_at per stage: the field at x and the two
    # probes of its directional difference
    N = S.model.N

    def rhs(t, y):
        gdot = deriv_at_zero(lambda s: gamma(t + s), 1e-6)

        def field(x):
            return np.asarray(S.mu_at(x), dtype=float) @ gdot

        return np.concatenate([field(y[:N]), directional_derivative(field, y[:N], y[N:])])

    y = rk4(rhs, np.concatenate([coords0, w0]), t0, t1, steps)
    return y[:N], y[N:]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_parallel_transport_equals_the_one_member_lift(name):
    # the reference is the arrow-only integration parallel_transport ran
    # before it became transport_many's batch of one
    model, S = make_model(name)
    rng = np.random.default_rng(19)
    m = sample_base_point(model, rng)
    v = rng.uniform(-1.0, 1.0, size=model.n)
    gamma = lambda t: m + t * v
    g = model.arrow(model.arrow_with_source(gamma(0.02), rng))

    def rhs(t, x):
        return np.asarray(S.mu_at(x), dtype=float) @ path_velocity(gamma, t)

    out = parallel_transport(S, gamma, 0.02, -0.03, g)
    assert np.array_equal(out.coords, rk4(rhs, g.coords, 0.02, -0.03, 20))


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_transport_many_rows_equal_each_member_alone(name, jacobians):
    # the fd copy's connection keeps mu_at and its stacked form
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    rng = np.random.default_rng(17)
    m = sample_base_point(model, rng)
    v = rng.uniform(-1.0, 1.0, size=model.n)
    gamma = lambda t: m + t * v
    t0 = np.array([0.05, -0.03])
    U = np.stack([model.unit(gamma(t)) for t in t0])
    W = np.stack([random_section(model, rng)(gamma(t0[0])), np.zeros(model.N)])
    X, Wt = transport_many(S, gamma, t0, 0.0, U, W, steps=3)
    assert Wt[0].any() and not Wt[1].any()  # the zero row takes no probe
    for a in range(2):
        x, w = transport_with_vector(S, gamma, t0[a], 0.0, U[a], W[a], steps=3)
        assert np.array_equal(X[a], x) and np.array_equal(Wt[a], w)
        x, w = _transport_unstacked(S, gamma, float(t0[a]), 0.0, U[a], W[a], 3)
        assert np.array_equal(X[a], x) and np.array_equal(Wt[a], w)


def test_parallel_transport_evaluates_one_jet_per_stage(zoo):
    # a zero tangent takes no probe, so no probe row joins the arrow's
    model, S = zoo("se2-action")
    calls = []

    def mu_at(g):
        calls.append(1)
        return S.mu_at(g)

    m, v = np.array([0.1, -0.2]), np.array([0.4, 0.3])
    parallel_transport(CartanConnection(model, mu_at), lambda t: m + t * v, 0.0, 0.5,
                       model.unit_arrow(m), steps=10)
    assert len(calls) == 4 * 10


def test_transport_route_takes_one_jet_batch_of_6_per_stage(zoo, rng):
    # 4 RK4 steps x 4 stages of the stacked +-tau transports, each stage the
    # two members' arrows and the four probes of their tangents
    model, S = zoo("isojet-sphere")
    batches, singles = [], []

    def mu_at(g):
        singles.append(1)
        return S.mu_at(g)

    def mu_many(G):
        batches.append(len(G))
        return S.mu_many(G)

    m, v = sample_base_point(model, rng), rng.uniform(-1.0, 1.0, size=model.n)
    X = random_section(model, rng)
    # a single jet would be a batch of one
    infinitesimalize(CartanConnection(model, batch_of_one(mu_many)),
                     "parallel-transport")(m, v, X)
    assert batches == [6] * 16
    # without mu_at.many, mu_many stacks the same 96 arrows through mu_at
    infinitesimalize(CartanConnection(model, mu_at), "parallel-transport")(m, v, X)
    assert len(singles) == 96


def test_transport_with_vector_matches_endpoint_differences(zoo):
    # w is the derivative of the transported endpoint along the initial
    # source-vertical direction w0
    model, S = zoo("se2-action")
    m = np.array([0.1, -0.2])
    gamma = lambda t: m + t * np.array([0.3, 0.25])
    u0 = model.unit(m)
    w0 = kernel_basis(model, m) @ np.array([0.6, -0.4, 0.8])
    x, w = transport_with_vector(S, gamma, 0.0, 1.0, u0, w0)
    eps = 1e-5

    def endpoint(s):
        return parallel_transport(S, gamma, 0.0, 1.0, model.arrow(u0 + s * w0)).coords

    assert np.max(np.abs(x - endpoint(0.0))) < 1e-12
    fd = (endpoint(eps) - endpoint(-eps)) / (2 * eps)
    assert np.max(np.abs(w - fd)) < 1e-7


def test_algebroid_transport_linear_on_fibres(zoo, rng):
    model, S = zoo("se2-action")
    m = np.array([0.0, 0.2])
    gamma = lambda t: m + t * np.array([0.4, -0.3])
    X = random_section(model, rng)
    Y = random_section(model, rng)
    a, b = 0.7, -1.3
    vx = algebroid_vec(model, m, X(m), check=False)
    vy = algebroid_vec(model, m, Y(m), check=False)
    vz = algebroid_vec(model, m, a * X(m) + b * Y(m), check=False)
    tx = algebroid_transport(S, gamma, 0.0, 1.0, vx)
    ty = algebroid_transport(S, gamma, 0.0, 1.0, vy)
    tz = algebroid_transport(S, gamma, 0.0, 1.0, vz)
    assert np.max(np.abs(tz.vec - a * tx.vec - b * ty.vec)) < 1e-6


@pytest.mark.parametrize("method", ["direct-formula", "flow-formula",
                                    "parallel-transport"])
def test_translation_constant_sections_are_parallel(zoo, method):
    model, S = zoo("translation-R2")
    nab = infinitesimalize(S, method)
    X = lambda m: np.array([0.4, -0.7, 0.0, 0.0])
    val = nab(np.array([0.1, 0.2]), np.array([1.0, -0.5]), X)
    assert np.max(np.abs(val.vec)) < 1e-9


def test_unknown_method_rejected(zoo):
    _, S = zoo("translation-R2")
    with raises(ValueError):
        infinitesimalize(S, "secant")


@pytest.mark.parametrize("name", ["se2-action", "so3-sphere", "isojet-sphere"])
def test_two_routes_agree(zoo, name, rng):
    model, S = zoo(name)
    nf = infinitesimalize(S, "flow-formula")
    nt = infinitesimalize(S, "parallel-transport")
    nd = infinitesimalize(S, "direct-formula")
    for _ in range(5):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1, 1, size=model.n)
        X = random_section(model, rng)
        a, b, c = nd(m, v, X).vec, nf(m, v, X).vec, nt(m, v, X).vec
        assert np.max(np.abs(b - c)) < 1e-4
        assert np.max(np.abs(a - b)) < 1e-4
        assert np.max(np.abs(a - c)) < 1e-4


def test_routes_agree_on_finite_difference_path(zoo, rng):
    # same geometry with every analytic jacobian stripped: the widened
    # derivative steps keep the two literal routes inside the 1e-4 contract
    from cartanlab.connection import CartanConnection

    model, S = zoo("se2-action")
    fd_model = model.without_jacobians()
    fd_S = CartanConnection(fd_model, S.mu_at, name=S.name)
    nf = infinitesimalize(fd_S, "flow-formula")
    nt = infinitesimalize(fd_S, "parallel-transport")
    nd = infinitesimalize(fd_S, "direct-formula")
    for _ in range(4):
        m = sample_base_point(fd_model, rng)
        v = rng.uniform(-1, 1, size=fd_model.n)
        X = random_section(fd_model, rng)
        a, b, c = nd(m, v, X).vec, nf(m, v, X).vec, nt(m, v, X).vec
        assert np.max(np.abs(b - c)) < 1e-4
        assert np.max(np.abs(a - b)) < 1e-4


@pytest.mark.parametrize("name", ["se2-action", "isojet-sphere"])
def test_leibniz_rule(zoo, name, rng):
    model, S = zoo(name)
    nd = infinitesimalize(S, "direct-formula")
    for _ in range(5):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1, 1, size=model.n)
        X = random_section(model, rng)
        grad = rng.uniform(-0.5, 0.5, size=model.n)

        def fX(mm):
            return (1.0 + grad @ np.asarray(mm)) * np.asarray(X(mm))

        lhs = nd(m, v, fX).vec
        rhs = (grad @ v) * np.asarray(X(m)) + (1.0 + grad @ m) * nd(m, v, X).vec
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_path_independence_of_transport_route(zoo, rng):
    model, S = zoo("se2-action")
    straight = infinitesimalize(S, "parallel-transport")
    bent = infinitesimalize_along(
        S, lambda m, v: (lambda t: m + t * v + t * t * np.array([0.3, -0.2])))
    for _ in range(5):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1, 1, size=model.n)
        X = random_section(model, rng)
        assert np.max(np.abs(straight(m, v, X).vec - bent(m, v, X).vec)) < 1e-4


def test_integral_bisections_close_under_products_gauge(zoo, rng):
    # left-translation bisections integrate the Maurer-Cartan horizontal field;
    # their pointwise products must stay integral
    from cartanlab.groupoid import bisection_family, compose_families, oracle_jets
    from cartanlab.models.rotations import rot2

    model, S = zoo("gauge-se2-so2")

    def translation_bisection(a):
        return lambda m: np.concatenate([[a[0]], a[1:] + rot2(a[0]) @ m, m])

    def integrality_defect(family, m):
        j = oracle_jets(model, family, m[None])[0]
        return float(np.max(np.abs(j.mu - S.mu_at(j.g.coords))))

    b1 = bisection_family(model, translation_bisection(np.array([0.3, 0.1, -0.2])))
    b2 = bisection_family(model, translation_bisection(np.array([-0.2, 0.05, 0.15])))
    prod = compose_families(model, b1, b2)
    for _ in range(6):
        m = rng.uniform(-0.3, 0.3, size=2)
        assert integrality_defect(b1, m) < 1e-8
        assert integrality_defect(b2, m) < 1e-8
        assert integrality_defect(prod, m) < 1e-6


def test_integral_bisections_close_under_products_sphere(zoo, rng):
    # first-order extensions of actual sphere rotations integrate the
    # prolongation field, and so do their products
    from cartanlab.groupoid import bisection_family, compose_families, oracle_jets
    from cartanlab.models.actions import stereo_jac_many, unstereo_jac_many, unstereo_many
    from cartanlab.models.rotations import exp_so3_many

    model, S = zoo("isojet-sphere")
    metric = model.extras["metric"]

    def isometry_extension(w):
        R = exp_so3_many(w[None])[0]

        def b(m):
            m = np.asarray(m, dtype=float)
            Ru = R @ unstereo_many(m[None])[0]
            mp = Ru[:2] / (1.0 - Ru[2])  # the stereographic chart of R u
            A = stereo_jac_many(Ru[None])[0] @ R @ unstereo_jac_many(m[None])[0]
            lam_ratio = np.sqrt(metric(mp)[0, 0] / metric(m)[0, 0])
            Rth = A * lam_ratio
            theta = np.arctan2(Rth[1, 0], Rth[0, 0])
            return np.concatenate([m, mp, [theta]])

        return b

    def integrality_defect(family, m):
        j = oracle_jets(model, family, m[None])[0]
        return float(np.max(np.abs(j.mu - S.mu_at(j.g.coords))))

    b1 = bisection_family(model, isometry_extension(np.array([0.2, -0.1, 0.3])))
    b2 = bisection_family(model, isometry_extension(np.array([-0.15, 0.25, 0.1])))
    prod = compose_families(model, b1, b2)
    for _ in range(4):
        m = rng.uniform(-0.3, 0.3, size=2)
        assert integrality_defect(b1, m) < 1e-6
        assert integrality_defect(b2, m) < 1e-6
        assert integrality_defect(prod, m) < 1e-6


def test_additivity_in_direction(zoo, rng):
    model, S = zoo("se2-action")
    nd = infinitesimalize(S, "direct-formula")
    m = sample_base_point(model, rng)
    X = random_section(model, rng)
    v = rng.uniform(-1, 1, size=2)
    w = rng.uniform(-1, 1, size=2)
    lhs = nd(m, v + w, X).vec
    rhs = nd(m, v, X).vec + nd(m, w, X).vec
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def _flow_one(field, field_jvp, x0, v0, tau):
    """One member's flow_with_tangent for time tau in the route's 4 steps,
    over single-point callables: a stack of one."""
    X, V = flow_with_tangent(lambda Y: field(Y[0])[None], lambda Y, W: field_jvp(Y[0], W[0])[None],
                             x0[None], v0[None], np.array([tau]), steps=4)
    return X[0], V[0]


def _flow_nabla_full_jacobian(S, m, v, X):
    """The flow-formula route with the variational system built from the full
    central-difference jacobian of X^R (2N field evaluations per stage), kept
    as the reference for the matrix-free route."""
    model = S.model
    h_field = outer_fd_step(model)

    def XR(coords):
        return right_invariant_many(model, X, coords[None])[0]

    def lifted_difference(tau):
        g_t, a_t = _flow_one(XR, lambda y, w: jacobian_fd(XR, y, h=h_field) @ w,
                             model.unit(m), model.Tunit(m) @ v, tau)
        return a_t - np.asarray(S.mu_at(g_t), dtype=float) @ v

    return deriv_at_zero(lifted_difference, T_DIFF_STEP)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", ["se2-action", "so3-sphere", "isojet-sphere",
                                  "gauge-se2-so2", "pair-R2"])
def test_matrix_free_flow_route_matches_full_jacobian(zoo, name, jacobians):
    model, S = zoo(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    nf = infinitesimalize(S, "flow-formula")
    rng = np.random.default_rng(7)
    for _ in range(3):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1, 1, size=model.n)
        X = random_section(model, rng)
        ref = _flow_nabla_full_jacobian(S, m, v, X)
        assert np.max(np.abs(nf(m, v, X).vec - ref)) < 1e-8


def test_flow_route_evaluates_the_section_96_times(zoo, rng):
    # 2 outer t-points x 4 RK4 steps x 4 stages, each one X^R evaluation for
    # the flow and two for the directional difference of the tangent
    model, S = zoo("se2-action")
    nf = infinitesimalize(S, "flow-formula")
    X = random_section(model, rng)
    calls = [0]

    def counted(mm):
        calls[0] += 1
        return X(mm)

    nf(sample_base_point(model, rng), rng.uniform(-1, 1, size=model.n), counted)
    assert calls[0] == 96


def _flow_nabla_per_member(S, m, v, X):
    """The flow-formula route as it ran before its flows were stacked: one
    one-member flow_with_tangent per outer t-point, over an X^R that calls
    right_translate at one arrow at a time, its tangent by directional_derivative."""
    model = S.model
    h_field = outer_fd_step(model)

    def XR(coords):
        a = model.arrow(coords)
        return right_translate(model, a, model.unit_arrow(a.target),
                               np.asarray(X(a.target), dtype=float))

    def lifted_difference(tau):
        g_t, a_t = _flow_one(XR, lambda y, w: directional_derivative(XR, y, w, h=h_field),
                             model.unit(m), model.Tunit(m) @ v, tau)
        return a_t - np.asarray(S.mu_at(g_t), dtype=float) @ v

    return deriv_at_zero(lifted_difference, T_DIFF_STEP)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_flow_route_equals_the_per_member_flows(name, jacobians):
    # the fd copy's connection keeps mu_at and its stacked form
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    nf = infinitesimalize(S, "flow-formula")
    rng = np.random.default_rng(41)
    for _ in range(2):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1.0, 1.0, size=model.n)
        X = random_section(model, rng)
        assert np.array_equal(nf(m, v, X).vec, _flow_nabla_per_member(S, m, v, X))


def test_flow_route_takes_one_stacked_field_call_of_6_per_stage(zoo, rng, monkeypatch):
    # 4 RK4 steps x 4 stages of the stacked +-tau flows, each stage the two
    # members' points and the four probes of their tangents
    model, S = zoo("se2-action")
    rows = []
    real = connection.right_invariant_many

    def counted(model, X, G):
        rows.append(len(G))
        return real(model, X, G)

    monkeypatch.setattr(connection, "right_invariant_many", counted)
    nf = infinitesimalize(S, "flow-formula")
    nf(sample_base_point(model, rng), rng.uniform(-1, 1, size=model.n),
       random_section(model, rng))
    assert rows == [6] * 16


def test_nabla_compare_fails_on_one_nan_flow_sample(zoo, monkeypatch):
    # max(worst, nan) would drop the sample and pass both flow checks
    model, S = zoo("se2-action")
    real = experiments.infinitesimalize

    def with_nan_flow(S, method="direct-formula"):
        conn = real(S, method)
        if method != "flow-formula":
            return conn

        def nabla(M, V, family):  # the second sample's row reads NaN
            out = conn.nabla(M, V, family).copy()
            out[1] = np.nan
            return out

        return AlgebroidConnection(model, nabla)

    monkeypatch.setattr(experiments, "infinitesimalize", with_nan_flow)
    config = ExperimentConfig(model="se2-action", experiment="nabla-compare", seed=3)
    checks = {c.name: c for c in experiments.run_nabla_compare(model, S, config, 3)}
    for name in ("direct-vs-flow", "flow-vs-transport"):
        assert checks[name].max_error == np.inf
        assert not checks[name].passed
    assert checks["direct-vs-transport"].passed


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_nabla_many_equals_nabla_per_section(name, jacobians):
    # many sections at one point, in one nabla_rows call of one row, equal
    # nabla on each section; the fd copy's connection keeps mu_at and its
    # stacked form
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    nab = infinitesimalize(S, "direct-formula")
    rng = np.random.default_rng(31)
    for _ in range(3):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1.0, 1.0, size=model.n)
        frame = aligned_frame(model, m)
        sections = [lambda mm, a=a: frame(mm)[:, a] for a in range(frame.rank)]
        sections.append(random_section(model, rng))
        cols = nab.nabla_rows(m[None], v[None], section_values(sections))[0]
        for a, X in enumerate(sections):
            assert np.array_equal(cols[:, a], nab(m, v, X).vec)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_nabla_rows_equal_nabla(name, jacobians):
    # one call over a stack of points and directions, a zero direction among
    # them, equals nabla at each row on each section; so do non-contiguous
    # views of the stacks
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    nab = infinitesimalize(S, "direct-formula")
    rng = np.random.default_rng(37)
    M = np.stack([sample_base_point(model, rng) for _ in range(4)])
    V = rng.uniform(-1.0, 1.0, size=(4, model.n))
    V[2] = 0.0
    frame = aligned_frame(model, M[0])
    sections = [lambda mm, a=a: frame(mm)[:, a] for a in range(frame.rank)]
    sections.append(random_section(model, rng))
    wide = np.concatenate([M, V], axis=1)
    for Ms, Vs in ((M, V), (wide[:, :model.n], wide[:, model.n:]), (M[::-2], V[::-2])):
        D = nab.nabla_rows(Ms, Vs, section_values(sections))
        assert D.shape == (len(Ms), model.N, len(sections))
        for a in range(len(Ms)):
            for b, X in enumerate(sections):
                assert np.array_equal(D[a, :, b], nab(Ms[a], Vs[a], X).vec)
    assert not nab.nabla_rows(M, V, section_values(sections))[2].any()


def _direct_nabla_one_point(S, m, v, X):
    """The direct-formula nabla as it was computed one point at a time, before
    its stacked form: term 1 a directional_derivative of the section, term 2
    one directional difference of mu(.) v from the unit arrow."""
    term1 = directional_derivative(X, m, v)
    term2 = directional_derivatives(
        lambda G: np.stack([mu @ v for mu in S.mu_many(G)]), S.model.unit(m), X(m)[None])
    return term1 - term2[0]


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_direct_nabla_equals_its_one_point_form(name, jacobians):
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    nab = infinitesimalize(S, "direct-formula")
    rng = np.random.default_rng(43)
    X = random_section(model, rng)
    for v in (rng.uniform(-1.0, 1.0, size=model.n), np.zeros(model.n)):
        m = sample_base_point(model, rng)
        assert np.array_equal(nab(m, v, X).vec, _direct_nabla_one_point(S, m, v, X))


def _routes(S):
    """The four connections nabla-compare compares, the bent path's as it
    builds it."""
    bend = np.full(S.model.n, 0.3)
    bend[0] = -0.2
    return {"direct": infinitesimalize(S, "direct-formula"),
            "flow": infinitesimalize(S, "flow-formula"),
            "transport": infinitesimalize(S, "parallel-transport"),
            "bent": infinitesimalize_along(
                S, lambda m, v: (lambda t: m + t * v + t * t * bend))}


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_route_rows_equal_the_one_sample_nabla(name, jacobians):
    # one nabla call over a family of drawn sections, a zero direction
    # among the samples, equals each route's one-sample nabla at each row,
    # bit for bit; so do non-contiguous views of the stacks
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    rng = np.random.default_rng(73)
    M = np.stack([sample_base_point(model, rng) for _ in range(3)])
    V = rng.uniform(-1.0, 1.0, size=(3, model.n))
    V[1] = 0.0
    sections = [random_section(model, rng) for _ in range(3)]
    wide = np.concatenate([M, V], axis=1)
    views = ((M, V, sections), (wide[:, :model.n], wide[:, model.n:], sections),
             (M[::-2], V[::-2], sections[::-2]))
    for route, nab in _routes(S).items():
        for Ms, Vs, Xs in views:
            D = nab.nabla(Ms, Vs, AffineSection.stack_of(Xs))
            assert D.shape == (len(Ms), model.N)
            for a, X in enumerate(Xs):
                assert np.array_equal(D[a], nab(Ms[a], Vs[a], X).vec), (route, a)


@pytest.mark.parametrize("route", ["direct", "flow", "transport"])
def test_nabla_refuses_points_and_directions_of_the_wrong_shape(zoo, route):
    # one sample must be one point and one direction of dimension n, and a
    # stacked call as many points as directions, all of dimension n
    model, S = zoo("se2-action")
    nab = _routes(S)[route]
    X = random_section(model, np.random.default_rng(89))
    m, v = np.array([0.1, -0.2]), np.array([0.4, 0.3])
    for mm, vv in ((m[None], v), (m, v[None]), (m, np.append(v, 0.0)),
                   (np.append(m, 0.0), v), (m[:1], v)):
        with raises(DomainError):
            nab(mm, vv, X)
    family = AffineSection.stack_of([X, X])
    M, V = np.stack([m, m]), np.stack([v, v])
    for MM, VV in ((M, V[:1]), (M[:1], V), (M, np.pad(V, ((0, 0), (0, 1)))), (m, v),
                   (M[:, :1], V[:, :1])):
        with raises(DomainError):
            nab.nabla(MM, VV, family)
    if route == "direct":  # the one route with a form for several sections
        with raises(DomainError):
            nab.nabla_rows(M, V[:1], section_values([X]))
    else:
        assert nab.nabla_rows is None


def _rk4_integrations(monkeypatch, count):
    """The rk4 calls one se2-action nabla-compare report of count samples makes."""
    calls = []
    real = chartcalc.rk4

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(chartcalc, "rk4", counted)
    monkeypatch.setattr(connection, "rk4", counted)
    report = experiments.run(ExperimentConfig(model="se2-action", experiment="nabla-compare",
                                              seed=5, sample_count=count))
    assert all(c.passed for c in report.checks)
    return len(calls)


def test_nabla_compare_integrates_once_per_route_whatever_the_count(monkeypatch):
    # the flow, transport and bent-path routes each run one stacked RK4
    # integration of all samples' members
    assert _rk4_integrations(monkeypatch, 2) == _rk4_integrations(monkeypatch, 25) == 3


def test_check_multiplicative_fails_a_jet_the_oracle_refuses(zoo):
    # an all-NaN jet is no bisection's: the oracle raises, the sample fails
    model, S = zoo("isojet-perturbed")
    nan_S = CartanConnection(model, lambda g: np.full_like(S.mu_at(g), np.nan))
    assert check_multiplicative(nan_S, seed=1, count=3) == np.inf


def test_transport_refuses_a_nan_start(zoo):
    model, S = zoo("translation-R2")
    m = np.array([0.1, 0.0])
    g = model.unit_arrow(np.array([np.nan, 0.0]))
    with raises(EscapeError, match="does not sit over"):
        parallel_transport(S, lambda t: m + t * np.array([0.1, 0.0]), 0.0, 1.0, g)


def test_unital_check_takes_the_samples_its_report_states(zoo, monkeypatch):
    drawn = []

    def counting(model, rng):
        drawn.append(1)
        return sample_base_point(model, rng)

    _, S = zoo("pair-R2")
    monkeypatch.setattr(connection, "sample_base_point", counting)
    check_unital(S, np.random.default_rng(0))
    assert len(drawn) == UNITAL_SAMPLES
    report = experiments.run(ExperimentConfig(model="pair-R2", experiment="multiplicativity",
                                              seed=1, sample_count=2))
    assert [c.samples for c in report.checks if c.name == "unital"] == [UNITAL_SAMPLES]
