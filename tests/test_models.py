import dataclasses

import numpy as np
import pytest
from pytest import raises

from cartanlab.chartcalc import (
    differentiate,
    differentiate_many,
    in_box,
    jacobian_fd,
    jacobians_fd,
)
from cartanlab.errors import ConfigError, MetricError
from cartanlab.groupoid import (
    JACOBIAN_HOOKS,
    inv_tangent_many,
    jet_distance,
    left_translate_many,
    oracle_jet,
    oracle_jet_inverse,
    oracle_jet_mul,
    right_translate_many,
    sample_base_point,
)
from cartanlab.jetalg import random_jet
from cartanlab.models import MODELS, make_model
from cartanlab.models.isojet import chol2, dchol2, isometry_matrix, prolongation_jet
from cartanlab.models.metrics import (
    euclidean_metric,
    hyperbolic_metric,
    perturbed_metric,
    sphere_metric,
)
from cartanlab.models.actions import make_so3_sphere_groupoid
from cartanlab.models.rotations import (
    _EPS,
    compose_so3_jac_many,
    compose_so3_many,
    exp_so3_many,
    hat_many,
    jl_inv_many,
    jl_many,
    log_so3_many,
)

from conftest import CORE_MODELS


def test_unknown_model_rejected():
    with raises(KeyError):
        make_model("moebius")


def _jacobians_fd_in_first_slot(func_many, X, Y):
    """jacobians_fd of func_many(., Y) at the rows of X, each probe of row a
    paired with Y[a]."""
    # jacobians_fd's probes run forward steps first, then by row and coordinate
    held = np.tile(np.repeat(Y, X.shape[1], axis=0), (2, 1))
    return jacobians_fd(lambda P: func_many(P, held), X)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_structure_map_jacobians_match_fd(zoo, name, rng):
    # the four stacked hooks and the stacked chart-map jacobians against
    # central differences of the stacked maps, on stacks and on
    # non-contiguous views of them
    model, _ = zoo(name)

    def swapped(func_many):
        return lambda P, Q: func_many(Q, P)

    for G, H, M in _stacked_cases(model, rng, k=4):
        Dg, Dh = model.mul_jac_many(G, H)
        fd = [(Dg, _jacobians_fd_in_first_slot(model.mul_many, G, H)),
              (Dh, _jacobians_fd_in_first_slot(swapped(model.mul_many), H, G)),
              (model.inv_jac_many(G), jacobians_fd(model.inv_many, G)),
              (model.src.jacobian(G), jacobians_fd(model.src.many, G)),
              (model.tgt.jacobian(G), jacobians_fd(model.tgt.many, G)),
              (model.unit.jacobian(M), jacobians_fd(model.unit.many, M))]
        if model.src_fiber_chart is not None:
            emb, project = model.src_fiber_chart(M[0])
            U = np.array([project(g) for g in G])
            fd.append((emb.jacobian(U), jacobians_fd(emb.many, U)))
        for retract_many, jac_many in ((model.retract_src_many, model.retract_src_jac_many),
                                       (model.retract_tgt_many, model.retract_tgt_jac_many)):
            Dr, Dm = jac_many(G, M)
            fd += [(Dr, _jacobians_fd_in_first_slot(retract_many, G, M)),
                   (Dm, _jacobians_fd_in_first_slot(swapped(retract_many), M, G))]
        for analytic, central in fd:
            assert analytic.shape == central.shape
            assert np.max(np.abs(analytic - central)) < 1e-9


@pytest.mark.parametrize("name", CORE_MODELS)
def test_fd_model_agrees_with_analytic(zoo, name, rng):
    # the stripped model runs every tangent map through central differences;
    # oracle jets must land on the same values
    model, S = zoo(name)
    fd_model = model.without_jacobians()
    assert not fd_model.has_jacobians
    for _ in range(3):
        g, h = model.sample_composable(rng)
        j1 = random_jet(model, S.jet, g, rng)
        j2 = random_jet(model, S.jet, h, rng)
        p_analytic = oracle_jet_mul(model, j1, j2)
        p_fd = oracle_jet_mul(fd_model, j1, j2)
        assert jet_distance(p_analytic, p_fd) < 1e-8


def test_rotation_vector_roundtrip(rng):
    W = rng.uniform(-0.9, 0.9, size=(20, 3))
    for w, R, w_back in zip(W, exp_so3_many(W), log_so3_many(exp_so3_many(W))):
        assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        assert np.max(np.abs(w_back - w)) < 1e-10
    # small-angle branch
    w = np.array([[1e-8, -2e-8, 5e-9]])
    assert np.max(np.abs(log_so3_many(exp_so3_many(w)) - w)) < 1e-14


def test_rotation_jacobian_identities(rng):
    # d/dt exp((w + t d)^) = (J_l(w) d)^ exp(w^); J_r(w) = J_l(-w)
    for _ in range(10):
        w = rng.uniform(-0.8, 0.8, size=3)
        d = rng.uniform(-1, 1, size=3)
        h = 1e-6
        R_plus, R_minus, R = exp_so3_many(np.stack([w + h * d, w - h * d, w]))
        JL, JR = jl_many(np.stack([w, -w]))
        JL_inv, JR_inv = jl_inv_many(np.stack([w, -w]))
        lhs = (R_plus - R_minus) / (2 * h)
        rhs = hat_many((JL @ d)[None])[0] @ R
        assert np.max(np.abs(lhs - rhs)) < 1e-8
        assert np.max(np.abs(JL @ JL_inv - np.eye(3))) < 1e-12
        assert np.max(np.abs(JR @ JR_inv - np.eye(3))) < 1e-12


def test_compose_so3_jacobians(rng):
    for _ in range(10):
        w2 = rng.uniform(-0.5, 0.5, size=(1, 3))
        w1 = rng.uniform(-0.5, 0.5, size=(1, 3))
        D2, D1 = compose_so3_jac_many(w2, w1)
        D2_fd = jacobians_fd(lambda X: compose_so3_many(X, np.repeat(w1, len(X), 0)), w2)
        D1_fd = jacobians_fd(lambda X: compose_so3_many(np.repeat(w2, len(X), 0), X), w1)
        assert np.max(np.abs(D2 - D2_fd)) < 1e-8
        assert np.max(np.abs(D1 - D1_fd)) < 1e-8


def _rotation_vectors(rng, k=40):
    """Rotation vectors of every branch: random angles, angles below _EPS,
    exactly 0 and angles within 1e-7 of pi; then the same rows as a
    non-contiguous view."""
    axes = rng.normal(size=(k, 3))
    axes /= np.sqrt(np.sum(axes * axes, axis=1))[:, None]
    angles = np.concatenate([rng.uniform(0.0, 3.0, k // 4),
                             rng.uniform(0.0, 0.9 * _EPS, k // 4),
                             np.zeros(k // 4),
                             np.pi - rng.uniform(0.0, 1e-7, k - 3 * (k // 4))])
    W = axes * angles[:, None]
    yield W
    yield np.concatenate([W, W], axis=1)[:, ::2]


def test_stacked_rotation_maps_match_single_calls(rng):
    # row a of each stacked form equals the form on that row alone, the
    # single-point call the so3-sphere model makes, bit for bit
    def alone(many, *stacks):
        return [many(*(x[None] for x in rows)) for rows in zip(*stacks)]

    for W in _rotation_vectors(rng):
        for many in (exp_so3_many, jl_many, jl_inv_many):
            assert np.array_equal(many(W), np.concatenate(alone(many, W)))
        R = exp_so3_many(W)
        R_view = np.concatenate([R, R], axis=2)[:, :, ::2]
        for stack in (R, R_view):
            assert np.array_equal(log_so3_many(stack), np.concatenate(alone(log_so3_many, stack)))
        W1 = W[::-1]
        assert np.array_equal(compose_so3_many(W, W1),
                              np.concatenate(alone(compose_so3_many, W, W1)))
        D2, D1 = compose_so3_jac_many(W, W1)
        for a, single in enumerate(alone(compose_so3_jac_many, W, W1)):
            assert np.array_equal(D2[a], single[0][0]) and np.array_equal(D1[a], single[1][0])


def test_stacked_sphere_action_matches_single_calls(rng):
    # the stereographic action at stacks of rotations of every branch
    model, _ = make_so3_sphere_groupoid()
    for W in _rotation_vectors(rng):
        X = rng.uniform(-0.7, 0.7, size=(len(W), 2))
        X_view = np.concatenate([X, X], axis=1)[:, ::2]
        for G in (np.concatenate([W, X], axis=1), np.concatenate([W, X_view], axis=1)):
            assert np.array_equal(model.tgt.many(G), [model.tgt(g) for g in G])


@pytest.mark.parametrize("metric", [euclidean_metric(), sphere_metric(),
                                    hyperbolic_metric(), perturbed_metric(0.4)])
def test_metric_positive_and_partials(metric, rng):
    for _ in range(10):
        x = rng.uniform(-0.6, 0.6, size=2)
        G = metric(x)
        assert np.min(np.linalg.eigvalsh(G)) > 0.0
        dG = metric.dg(x)
        h = 1e-6
        for l in range(2):
            e = np.zeros(2)
            e[l] = h
            fd = (metric(x + e) - metric(x - e)) / (2 * h)
            assert np.max(np.abs(dG[:, :, l] - fd)) < 1e-8


def test_cholesky_derivative(rng):
    for _ in range(10):
        B = rng.uniform(-1, 1, size=(2, 2))
        G = B @ B.T + 2.0 * np.eye(2)
        dG = rng.uniform(-1, 1, size=(2, 2))
        dG = dG + dG.T
        L = chol2(G)
        assert np.max(np.abs(L @ L.T - G)) < 1e-12
        h = 1e-7
        fd = (chol2(G + h * dG) - chol2(G - h * dG)) / (2 * h)
        assert np.max(np.abs(dchol2(L, dG) - fd)) < 1e-6


def test_chol2_rejects_indefinite():
    with raises(MetricError):
        chol2(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_chol2_rejects_a_nan_metric():
    # a NaN pivot is not positive; `pivot <= 0` let it through as a NaN factor
    with raises(MetricError):
        chol2(np.full((2, 2), np.nan))
    with raises(MetricError):
        chol2(np.array([[1.0, np.nan], [np.nan, 1.0]]))


@pytest.mark.parametrize("metric", [sphere_metric(), hyperbolic_metric(),
                                    perturbed_metric(0.4)])
def test_isometry_matrix_preserves_metric(metric, rng):
    for _ in range(10):
        m = rng.uniform(-0.5, 0.5, size=2)
        mp = rng.uniform(-0.5, 0.5, size=2)
        th = rng.uniform(-0.7, 0.7)
        A = isometry_matrix(metric, m, mp, th)
        defect = A.T @ metric(mp) @ A - metric(m)
        assert np.max(np.abs(defect)) < 1e-12
        assert np.linalg.det(A) > 0.0


@pytest.mark.parametrize("name", ["isojet-plane", "isojet-sphere",
                                  "isojet-hyperbolic", "isojet-perturbed"])
def test_prolongation_solve_consistent(zoo, name, rng):
    model, S = zoo(name)
    metric = model.extras["metric"]
    for _ in range(10):
        g = model.sample_arrow(rng)
        mu, residual = prolongation_jet(metric, g.coords)
        assert residual < 1e-8
        assert np.max(np.abs(model.Tsrc(g.coords) @ mu - np.eye(2))) < 1e-12


def test_prolongation_euclidean_is_rigid_motion_extension(zoo, rng):
    # flat metric: horizontal jets extend arrows to rigid-motion one-jet fields
    # (constant isometry part, no rotation drift)
    model, S = zoo("isojet-plane")
    for _ in range(5):
        g = model.sample_arrow(rng)
        mu = S.mu_at(g.coords)
        from cartanlab.models.rotations import rot2

        assert np.max(np.abs(mu[2:4, :] - rot2(g.coords[4]))) < 1e-12
        assert np.max(np.abs(mu[4, :])) < 1e-12


def test_isojet_oracle_jets_metric_compatible_first_order(zoo, rng):
    from cartanlab.groupoid import extend_bisection

    model, S = zoo("isojet-sphere")
    metric = model.extras["metric"]
    for _ in range(6):
        g = model.sample_arrow(rng)
        j = oracle_jet(model, extend_bisection(model, S.jet(g)), g.source)
        Tphi = model.Ttgt(j.g.coords) @ j.mu
        defect = Tphi.T @ metric(j.g.target) @ Tphi - metric(j.g.source)
        assert np.max(np.abs(defect)) < 1e-7


@pytest.mark.parametrize("name", ["isojet-sphere", "isojet-hyperbolic", "isojet-perturbed"])
def test_cached_horizontal_jet_equals_prolongation_jet(name):
    # fresh model, two passes: a jet must not depend on what ran before it;
    # half the arrows share a source, as a direct-formula stencil's do
    model, S = make_model(name)
    metric = model.extras["metric"]
    rng = np.random.default_rng(8)
    arrows = [model.sample_arrow(rng).coords for _ in range(6)]
    arrows += [np.concatenate([g[:2], model.sample_arrow(rng).coords[2:]]) for g in arrows]
    for _ in range(2):
        for g in arrows:
            assert np.array_equal(S.mu_at(g), prolongation_jet(metric, g)[0])


ISOJET_MODELS = ["isojet-plane", "isojet-sphere", "isojet-hyperbolic", "isojet-perturbed"]


@pytest.mark.parametrize("name", ISOJET_MODELS)
def test_batched_jets_do_not_depend_on_the_batch(zoo, name):
    model, S = zoo(name)
    rng = np.random.default_rng(21)
    for k in range(1, 8):
        G = np.stack([model.sample_arrow(rng).coords for _ in range(k)])
        G[: k // 2, :2] = G[0, :2]  # some share a source, as a stencil does
        batch = S.mu_at.many(G)
        assert batch.shape == (k, 5, 2)
        for a in range(k):
            assert np.array_equal(batch[a], S.mu_at(G[a]))


def _reference_frame_data(metric, x):
    """The per-point frame data the batched jets replaced: (L, gamma, (L^T)^-1,
    (dL/dx_l)^T, d(L^T)^-1/dx_l)."""
    from cartanlab.chartcalc import christoffel_from_partials, metric_partials

    G = metric(x)
    dG = metric_partials(metric, x)
    L = chol2(G)
    dL = np.stack([dchol2(L, dG[:, :, l]) for l in range(2)], axis=2)
    gamma = christoffel_from_partials(np.linalg.inv(G), dG)
    LTinv = np.linalg.inv(L.T)
    dLT = tuple(dL[:, :, l].T for l in range(2))
    dLTinv = tuple(-LTinv @ dLT[l] @ LTinv for l in range(2))
    return L, gamma, LTinv, dLT, dLTinv


def _reference_jet(metric, g):
    """The per-arrow solve the batched jets replaced, one base direction at
    a time."""
    from cartanlab.models.rotations import J2, rot2

    L_m, gamma_m, _, dLT_m, _ = _reference_frame_data(metric, g[:2])
    _, gamma_p, LpTinv, _, dLTinv_p = _reference_frame_data(metric, g[2:4])
    R = rot2(g[4])
    LpTinvR = LpTinv @ R
    LmT = L_m.T
    A = LpTinvR @ LmT
    dA_theta = LpTinv @ J2 @ R @ LmT
    Mvec = dA_theta.ravel()
    w = np.zeros(2)
    for i in range(2):
        target = np.einsum("kc,cj->kj", A, gamma_m[:, i, :]) \
            - np.einsum("kab,a,bj->kj", gamma_p, A[:, i], A)
        rhs = (target - LpTinvR @ dLT_m[i]
               - sum(dLTinv_p[a] @ R @ LmT * A[a, i] for a in range(2)))
        w[i] = float(Mvec @ rhs.ravel()) / float(Mvec @ Mvec)
    return np.vstack([np.eye(2), A, w])


@pytest.mark.parametrize("name", ISOJET_MODELS)
def test_batched_jets_match_the_per_point_solve(zoo, name):
    model, S = zoo(name)
    metric = model.extras["metric"]
    rng = np.random.default_rng(22)
    G = np.stack([model.sample_arrow(rng).coords for _ in range(12)])
    batch = S.mu_at.many(G)
    for a in range(len(G)):
        assert np.max(np.abs(batch[a] - _reference_jet(metric, G[a]))) < 1e-13


def test_metric_partials_fall_back_to_per_point_differences():
    from cartanlab.chartcalc import MetricChart, metric_partials

    metric = sphere_metric()
    no_dg = MetricChart(2, metric.g, None, name="sphere-fd")
    X = np.array([[0.1, -0.2], [0.3, 0.25], [-0.4, 0.05]])
    stacked = metric_partials(no_dg, X)
    assert stacked.shape == (3, 2, 2, 2)
    for a in range(3):
        assert np.array_equal(stacked[a], metric_partials(no_dg, X[a]))
    assert np.max(np.abs(stacked - metric_partials(metric, X))) < 1e-8


@pytest.mark.parametrize("metric", [euclidean_metric(), sphere_metric(),
                                    hyperbolic_metric(), perturbed_metric(0.4)])
def test_metrics_broadcast_over_a_stack_of_points(metric):
    X = np.array([[0.1, -0.2], [0.3, 0.25], [-0.4, 0.05]])
    g, dg = metric(X), metric.dg(X)
    assert g.shape == (3, 2, 2) and dg.shape == (3, 2, 2, 2)
    for a in range(3):
        assert np.array_equal(g[a], metric(X[a]))
        assert np.array_equal(dg[a], metric.dg(X[a]))


def test_metric_that_does_not_broadcast_is_refused():
    from cartanlab.chartcalc import MetricChart
    from cartanlab.models.isojet import make_isometry_jet_groupoid

    # written for one point: on a stack x[0] is the first point, not a coordinate
    metric = MetricChart(2, lambda x: (1.0 + x[0] ** 2) * np.eye(2), name="one-point")
    model, S = make_isometry_jet_groupoid(metric)
    g = np.array([0.1, -0.2, 0.3, 0.25, 0.4])
    with raises(MetricError, match="broadcast"):
        S.mu_at(g)
    with raises(MetricError, match="broadcast"):
        prolongation_jet(metric, g)
    with raises(MetricError, match="broadcast"):
        S.mu_at.many(np.stack([g, g]))


def test_cholesky_factors_broadcast_over_a_stack(rng):
    B = rng.uniform(-1, 1, size=(4, 2, 2))
    G = B @ np.swapaxes(B, 1, 2) + 2.0 * np.eye(2)
    dG = rng.uniform(-1, 1, size=(4, 2, 2))
    dG = dG + np.swapaxes(dG, 1, 2)
    L, dL = chol2(G), dchol2(chol2(G), dG)
    for a in range(4):
        assert np.array_equal(L[a], chol2(G[a]))
        assert np.array_equal(dL[a], dchol2(L[a], dG[a]))


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_source_side(zoo, name, jacobians, rng):
    # and the target side: exact where target_slot builds it, at roundoff
    # where the target map is an action
    model, _ = zoo(name)
    if not jacobians:
        model = model.without_jacobians()
    target_tol = 0.0 if name.startswith(("pair", "isojet")) else 1e-12
    for _ in range(5):
        g = model.sample_arrow(rng).coords
        m = sample_base_point(model, rng)
        assert np.array_equal(model.src(model.retract_src(g, m)), m)
        assert np.array_equal(model.retract_src(g, model.src(g)), g)
        a = model.arrow_with_source(m, rng)
        assert np.array_equal(model.src(a), m)
        assert in_box(a, model.domain_box)
        emb, project = model.src_fiber_chart(m)
        u = project(a)
        assert np.array_equal(model.src(emb(u)), m)
        assert np.array_equal(project(emb(u)), u)
        assert np.max(np.abs(differentiate(emb, u) - jacobian_fd(emb, u))) < 1e-9
        assert np.max(np.abs(model.tgt(model.retract_tgt(g, m)) - m)) <= target_tol
        assert np.max(np.abs(model.retract_tgt(g, model.tgt(g)) - g)) <= target_tol
        if jacobians and target_tol == 0.0:
            assert not differentiate(model.tgt, g).flags.writeable
            assert not model.tgt.jacobian(np.stack([g, g])).flags.writeable
            assert not any(J.flags.writeable
                           for J in model.retract_tgt_jac_many(g[None], m[None]))


def _blocks(value):
    """The blocks of a map's value: a tuple of arrays as it is, one array as a
    tuple of one."""
    return value if isinstance(value, tuple) else (value,)


def _stacked_cases(model, rng, k=7):
    """Random stacks of arrows, composable partners and base points, each
    also as a non-contiguous view (one column of padding sliced away)."""
    pairs = [model.sample_composable(rng) for _ in range(k)]
    G = np.array([g.coords for g, _ in pairs])
    H = np.array([h.coords for _, h in pairs])
    M = np.array([sample_base_point(model, rng) for _ in range(k)])

    def padded(A):
        B = np.concatenate([np.full((len(A), 1), 9.0), A], axis=1)
        return B[:, 1:]

    yield G, H, M
    yield padded(G), padded(H), padded(M)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_structure_maps_match_single_calls(zoo, name, jacobians):
    # row a of every stacked form equals the single-point call bit for bit;
    # the single mul and inv and the retractions are batches of one, and the
    # jacobian hooks have no single form, so for all of them this is row a of
    # a stack against a stack of one row
    model, _ = zoo(name)
    if not jacobians:
        model = model.without_jacobians()
    rng = np.random.default_rng(23)
    for G, H, M in _stacked_cases(model, rng):
        for cm, X in ((model.src, G), (model.tgt, G), (model.unit, M)):
            assert np.array_equal(cm.many(X), [cm(x) for x in X])
        maps = [("mul", (G, H)), ("inv", (G,)), ("retract_src", (G, M)),
                ("retract_tgt", (G, M))]
        for name, args in maps:
            single, many = getattr(model, name), getattr(model, name + "_many")
            assert np.array_equal(many(*args), [single(*row) for row in zip(*args)])
        hooks = [("mul_jac_many", (G, H)), ("inv_jac_many", (G,)),
                 ("retract_src_jac_many", (G, M)), ("retract_tgt_jac_many", (G, M))]
        assert [hook for hook, _ in hooks] == list(JACOBIAN_HOOKS)
        if not jacobians:
            assert all(getattr(model, hook) is None for hook in JACOBIAN_HOOKS)
            hooks = []
        for hook, args in hooks:
            many = getattr(model, hook)
            rows = [_blocks(many(*(X[a:a + 1] for X in args))) for a in range(len(G))]
            for b, block in enumerate(_blocks(many(*args))):
                assert np.array_equal(block, [row[b][0] for row in rows])
        # row a of the stacked chart-map jacobian is the point's own, analytic
        # or by central differences
        for cm, X in ((model.src, G), (model.tgt, G), (model.unit, M)):
            jacs = differentiate_many(cm, X)
            assert jacs.flags.c_contiguous
            assert all(np.array_equal(jac, differentiate(cm, x)) for x, jac in zip(X, jacs))
        # the stacked finite-difference jacobians equal the per-point ones
        for cm, X in ((model.src, G), (model.tgt, G), (model.unit, M)):
            jacs = jacobians_fd(cm.many, X)
            assert jacs.flags.c_contiguous
            for x, jac in zip(X, jacs):
                single = jacobian_fd(cm.eval, x)
                assert np.array_equal(jac, single) and jac.flags.c_contiguous
                if not jacobians:
                    assert np.array_equal(differentiate(cm, x), single)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_chart_map_jacobian_is_called_once_per_stack(zoo, name):
    # differentiate_many takes the analytic jacobian of a stack in one call,
    # whatever the number of rows
    model, _ = zoo(name)
    rng = np.random.default_rng(29)
    G = np.array([model.sample_arrow(rng).coords for _ in range(5)])
    M = np.array([sample_base_point(model, rng) for _ in range(5)])
    for cm, X in ((model.src, G), (model.tgt, G), (model.unit, M)):
        calls = []

        def counted(Y, jacobian=cm.jacobian):
            calls.append(len(Y))
            return jacobian(Y)

        counting = dataclasses.replace(cm, jacobian=counted)
        for k in (1, 2, 5):
            differentiate_many(counting, X[:k])
        assert calls == [1, 2, 5]


@pytest.mark.parametrize("name", ["pair-R2", "se2-action", "gauge-se2-so2", "isojet-sphere"])
def test_jet_oracle_models_give_every_stacked_form(zoo, name):
    # the models of the jet-oracle benchmark loop nowhere
    model, _ = zoo(name)
    assert None not in (model.src.eval_many, model.tgt.eval_many, model.unit.eval_many)


@pytest.mark.parametrize("name", ["se2-action", "so3-sphere", "isojet-sphere"])
def test_nabla_routes_models_give_every_stacked_form(zoo, name):
    # the models of the nabla-routes benchmark: the flow route's stacked X^R
    # loops over no structure map
    model, _ = zoo(name)
    assert None not in (model.src.eval_many, model.tgt.eval_many, model.unit.eval_many,
                        model.mul_jac_many)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_oracle_matrices_are_c_contiguous(zoo, name, jacobians):
    model, S = zoo(name)
    if not jacobians:
        model = model.without_jacobians()
    rng = np.random.default_rng(29)
    g, h = model.sample_composable(rng)
    j1, j2 = random_jet(model, S.jet, g, rng), random_jet(model, S.jet, h, rng)
    for jet in (oracle_jet_mul(model, j1, j2), oracle_jet_inverse(model, j1)):
        assert jet.mu.flags.c_contiguous


@pytest.mark.parametrize("name", ["pair-R1", "pair-R2", "translation-R2", "se2-action",
                                  "so3-sphere", "isojet-plane"])
def test_shared_constants_are_read_only(name):
    # a model hands every caller the same constant jet or jacobian matrix, or
    # stacks of it: a write through the one at g1 raises and leaves the one
    # at g2 as it was
    model, S = make_model(name)
    rng = np.random.default_rng(29)
    g1, g2 = model.sample_arrow(rng), model.sample_arrow(rng)

    def pair(g):
        return np.stack([g.coords, g.coords])

    # the source retraction's jacobians are constant on every model
    reads = [lambda g: model.retract_src_jac_many(pair(g), np.stack([g.source] * 2))[0],
             lambda g: model.retract_src_jac_many(pair(g), np.stack([g.source] * 2))[1]]
    if not name.startswith("isojet"):  # the prolongation jets are computed per arrow
        reads += [lambda g: S.jet(g).mu, lambda g: S.mu_many(pair(g))]
    if name.startswith(("pair", "isojet")):
        # the action groupoids' other jacobians depend on the arrow
        reads += [lambda g: model.Tunit(g.source),
                  lambda g: model.mul_jac_many(pair(g), pair(g))[0],
                  lambda g: model.mul_jac_many(pair(g), pair(g))[1],
                  lambda g: model.inv_jac_many(pair(g)),
                  lambda g: model.retract_tgt_jac_many(pair(g), np.stack([g.target] * 2))[0],
                  lambda g: model.retract_tgt_jac_many(pair(g), np.stack([g.target] * 2))[1]]
    for read in reads:
        before = read(g2).copy()
        with raises(ValueError, match="read-only"):
            read(g1)[0, 0] = 7.0
        assert np.array_equal(read(g2), before)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_model_gives_every_jacobian_hook_or_none(name):
    # a model with some hooks would read has_jacobians as True and then call
    # a missing one: it is refused where it is built, naming the hook
    model, _ = make_model(name)
    assert model.has_jacobians
    for hook in JACOBIAN_HOOKS:
        with raises(ConfigError, match=hook):
            dataclasses.replace(model, **{hook: None})
    assert not model.without_jacobians().has_jacobians


@pytest.mark.parametrize("name", sorted(MODELS))
def test_tangent_maps_call_each_stacked_hook_once(name):
    # a stack of arrows takes one call of each hook a tangent map reads
    model, _ = make_model(name)
    calls = []

    def counted(hook, fn):
        def wrapper(*args):
            calls.append(hook)
            return fn(*args)
        return wrapper

    model = dataclasses.replace(model, **{hook: counted(hook, getattr(model, hook))
                                          for hook in JACOBIAN_HOOKS})
    rng = np.random.default_rng(59)
    pairs = [model.sample_composable(rng) for _ in range(5)]
    G = np.array([g.coords for g, _ in pairs])
    H = np.array([h.coords for _, h in pairs])
    V = rng.uniform(-1.0, 1.0, size=G.shape)
    left_translate_many(model, G, H, V)
    right_translate_many(model, H, G, V)
    inv_tangent_many(model, G, V)
    assert calls == ["mul_jac_many", "retract_tgt_jac_many", "mul_jac_many",
                     "retract_src_jac_many", "inv_jac_many"]
