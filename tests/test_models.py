import dataclasses

import numpy as np
import pytest
from pytest import raises

from cartanlab.chartcalc import (
    MetricChart,
    christoffel_from_partials,
    differentiate,
    differentiate_many,
    in_box,
    jacobian_fd,
    jacobians_fd,
)
from cartanlab.connection import infinitesimalize
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
from cartanlab.models.isojet import (
    chol2,
    dchol2,
    inv2,
    inv2_lt,
    isometry_matrices,
    make_isometry_jet_groupoid,
    prolongation_jets,
)
from cartanlab.models.metrics import (
    _sq_norm,
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
    rot2,
    rot2_many,
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

    # the plane rotations at 0, +-pi and random angles, on a strided view too:
    # rot2 is the batch of one, and both equal the scalar formula
    T = np.concatenate([[0.0, np.pi, -np.pi], rng.uniform(-4.0, 4.0, 20)])
    for angles in (T, np.repeat(T, 2)[::2]):
        R = rot2_many(angles)
        assert R.flags.c_contiguous
        for Ra, t in zip(R, angles):
            c, s = np.cos(t), np.sin(t)
            assert np.array_equal(Ra, rot2(t)) and np.array_equal(Ra, [[c, -s], [s, c]])
            assert np.array_equal(rot2(t), rot2_many([t])[0])
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


def _off_diagonal_metric():
    """A test-only SPD metric with g01 != 0 and analytic partials. Near the
    origin |g01| > g00, so LAPACK's LU pivots there and inv2 does not."""

    def g(x):
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 0.5 + x[..., 0] ** 2
        out[..., 1, 1] = 4.0 + x[..., 1] ** 2
        out[..., 0, 1] = out[..., 1, 0] = 0.9 + 0.3 * x[..., 0] * x[..., 1]
        return out

    def dg(x):
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = 2.0 * x[..., 0]
        out[..., 1, 1, 1] = 2.0 * x[..., 1]
        out[..., 0, 1, :] = out[..., 1, 0, :] = 0.3 * x[..., ::-1]
        return out

    return MetricChart(2, g, dg, name="off-diagonal")


@pytest.mark.parametrize("metric", [euclidean_metric(), sphere_metric(),
                                    hyperbolic_metric(), perturbed_metric(0.4),
                                    _off_diagonal_metric()])
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
        A = isometry_matrices(metric, m[None], mp[None], np.array([th]))[0]
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
        mu, dA_theta, rhs = prolongation_jets(metric, g.coords[None])
        # w solves dA/dtheta w_i = rhs_i for each base direction i
        assert np.max(np.abs(rhs - mu[:, 4, :, None, None] * dA_theta[:, None])) < 1e-8
        assert np.max(np.abs(model.Tsrc(g.coords) @ mu[0] - np.eye(2))) < 1e-12


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
            assert np.array_equal(S.mu_at(g), prolongation_jets(metric, g[None])[0][0])


def test_the_perturbed_metric_keeps_its_x2_translations():
    # lam = 1 + eps x_1^2 does not depend on x_2, so the prolonged
    # x_2-translation, the constant section anchored to d/dx_2, is parallel
    # for the direct-formula connection, exactly; the section anchored to
    # d/dx_1 is not. An arrow is (m, m', theta) with source m and target m'
    model, S = make_model("isojet-perturbed")
    nabla = infinitesimalize(S, "direct-formula")
    x1, x2 = np.eye(5)[2], np.eye(5)[3]
    rng = np.random.default_rng(20)
    moved = 0.0
    for _ in range(10):
        m, v = sample_base_point(model, rng), rng.uniform(-1.0, 1.0, size=2)
        u = model.unit(m)
        assert not np.any(model.Tsrc(u) @ np.array([x1, x2]).T)
        assert np.array_equal(model.Ttgt(u) @ np.array([x1, x2]).T, np.eye(2))
        assert not np.any(nabla(m, v, lambda p: x2).vec)
        moved = max(moved, float(np.max(np.abs(nabla(m, v, lambda p: x1).vec))))
    assert moved > 1e-2


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


def _einsum_christoffel(Ginv, dG):
    """The Levi-Civita symbols as one einsum over the bracket
    d_i g_jl + d_j g_il - d_l g_ij, shared with nothing in the library."""
    d_i = np.swapaxes(dG, -3, -2)
    d_l = np.swapaxes(np.swapaxes(dG, -1, -3), -1, -2)
    bracket = np.swapaxes(d_i, -1, -2) + d_i - d_l
    return 0.5 * np.einsum("...kl,...lij->...kij", Ginv, bracket)


def _reference_frame_data(metric, x):
    """The per-point frame data the batched jets replaced: (L, gamma, (L^T)^-1,
    (dL/dx_l)^T, d(L^T)^-1/dx_l)."""
    from cartanlab.chartcalc import metric_partials

    G = metric(x)
    dG = metric_partials(metric, x)
    L = chol2(G)
    dL = np.stack([dchol2(L, dG[:, :, l]) for l in range(2)], axis=2)
    gamma = _einsum_christoffel(np.linalg.inv(G), dG)
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


def _lapack_einsum_jets(metric, G):
    """prolongation_jets on LAPACK inverses and einsum contractions: the
    reference whose bits the closed forms keep, and on which the report
    digests rest."""
    from cartanlab.chartcalc import metric_partials
    from cartanlab.models.rotations import J2

    k = len(G)
    X = np.concatenate([G[:, :2], G[:, 2:4]])
    gm = metric(X)
    dgm = metric_partials(metric, X)
    L = chol2(gm)
    gamma = _einsum_christoffel(np.linalg.inv(gm), dgm)
    dLT = np.swapaxes(dchol2(L[:, None], dgm.transpose(0, 3, 1, 2)), -1, -2)
    LTinv = np.linalg.inv(np.swapaxes(L, -1, -2))
    LpTinv = LTinv[k:]
    dLpTinv = -LpTinv[:, None] @ dLT[k:] @ LpTinv[:, None]
    R = rot2_many(G[:, 4])
    LpTinvR = LpTinv @ R
    LmT = np.swapaxes(L[:k], -1, -2)
    A = LpTinvR @ LmT
    dA_theta = LpTinv @ J2 @ R @ LmT
    dA_m = LpTinvR[:, None] @ dLT[:k]
    dA_p = dLpTinv @ R[:, None] @ LmT[:, None]
    target = (np.einsum("...kc,...cij->...ikj", A, gamma[:k])
              - np.einsum("...kab,...ai,...bj->...ikj", gamma[k:], A, A))
    rhs = target - dA_m - np.einsum("...akj,...ai->...ikj", dA_p, A)
    w = (np.einsum("...kj,...ikj->...i", dA_theta, rhs)
         / np.einsum("...kj,...kj->...", dA_theta, dA_theta)[:, None])
    mu = np.empty((k, 5, 2))
    mu[:, :2] = np.eye(2)
    mu[:, 2:4] = A
    mu[:, 4] = w
    return mu, dA_theta, rhs


def _arrows_in_box(model, rng, k):
    low, high = model.domain_box.T
    return low + (high - low) * rng.random((k, model.N))


@pytest.mark.parametrize("name", ISOJET_MODELS)
def test_closed_form_jets_equal_the_lapack_einsum_kernel_bit_for_bit(zoo, name):
    # numpy promises neither that np.linalg.inv of a diagonal 2x2 stack is
    # its unpivoted LU solve written out nor that einsum sums from 0 in
    # index order; the report digests rest on both, on every shipped metric
    model, _ = zoo(name)
    metric = model.extras["metric"]
    rng = np.random.default_rng(23)
    for k in (1, 12, 426):
        G = _arrows_in_box(model, rng, k)
        for new, old in zip(prolongation_jets(metric, G), _lapack_einsum_jets(metric, G)):
            assert new.tobytes() == old.tobytes()


def test_closed_form_inverses_equal_lapack_on_diagonal_stacks(rng):
    # signed zeros included: the off-diagonal zeros are +0, as LAPACK's
    D = np.zeros((300, 2, 2))
    D[:, 0, 0], D[:, 1, 1] = rng.uniform(0.1, 10.0, size=(2, 300))
    assert inv2(D).tobytes() == np.linalg.inv(D).tobytes()
    L = chol2(D)
    assert inv2_lt(L).tobytes() == np.linalg.inv(np.swapaxes(L, -1, -2)).tobytes()
    # on general SPD stacks, pivoted or not, they agree to roundoff
    B = rng.uniform(-1.0, 1.0, size=(300, 2, 2))
    S = B @ np.swapaxes(B, -1, -2) + 0.1 * np.eye(2)
    assert np.any(np.abs(S[:, 0, 1]) > S[:, 0, 0])
    scale = np.abs(np.linalg.inv(S)).max(axis=(1, 2))[:, None, None]
    assert np.max(np.abs(inv2(S) - np.linalg.inv(S)) / scale) < 1e-13
    L = chol2(S)
    LTinv = np.linalg.inv(np.swapaxes(L, -1, -2))
    scale = np.abs(LTinv).max(axis=(1, 2))[:, None, None]
    assert np.max(np.abs(inv2_lt(L) - LTinv) / scale) < 1e-14
    # inv2_lt is inv2's steps on L^T with its zeros folded in
    assert inv2_lt(L).tobytes() == inv2(np.swapaxes(L, -1, -2)).tobytes()


def test_christoffel_symbols_equal_the_einsum_bit_for_bit(rng):
    # the broadcast sum stays generic in dimension; on a flat metric every
    # product is -0 here, and the sum from 0 makes the symbols +0, as
    # einsum's do
    for dim in (2, 3):
        Ginv = rng.standard_normal((50, dim, dim))
        dG = rng.standard_normal((50, dim, dim, dim))
        dG = dG + np.swapaxes(dG, 1, 2)
        for Ginv, dG in ((Ginv, dG), (-np.eye(dim), np.zeros((dim, dim, dim)))):
            assert (christoffel_from_partials(Ginv, dG).tobytes()
                    == _einsum_christoffel(Ginv, dG).tobytes())


@pytest.mark.parametrize("name", ISOJET_MODELS)
def test_prolongation_jets_make_no_linalg_call(zoo, name, monkeypatch):
    model, S = zoo(name)
    G = _arrows_in_box(model, np.random.default_rng(24), 12)
    expected = S.mu_at.many(G)

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for fn in np.linalg.__all__:
        if fn != "LinAlgError":
            monkeypatch.setattr(np.linalg, fn, refused)
    with raises(AssertionError):
        np.linalg.inv(np.eye(2))
    with raises(AssertionError):
        np.linalg.solve(np.eye(2), np.ones(2))
    assert np.array_equal(prolongation_jets(model.extras["metric"], G)[0], expected)


def test_off_diagonal_metric_jets_match_the_per_point_solve():
    metric = _off_diagonal_metric()
    model, _ = make_isometry_jet_groupoid(metric)
    rng = np.random.default_rng(25)
    G = _arrows_in_box(model, rng, 200)
    gm = metric(np.concatenate([G[:, :2], G[:, 2:4]]))
    assert np.any(np.abs(gm[:, 0, 1]) > gm[:, 0, 0])  # LAPACK pivots here
    batch = prolongation_jets(metric, G)[0]
    old = _lapack_einsum_jets(metric, G)[0]
    assert np.max(np.abs(batch - old)) < 1e-13
    for a in range(len(G)):
        assert np.max(np.abs(batch[a] - _reference_jet(metric, G[a]))) < 1e-13
    for g in G[:20]:
        mu, dA_theta, rhs = prolongation_jets(metric, g[None])
        assert np.max(np.abs(rhs - mu[:, 4, :, None, None] * dA_theta[:, None])) < 1e-8
        assert np.max(np.abs(model.Tsrc(g) @ mu[0] - np.eye(2))) < 1e-12


@pytest.mark.parametrize("metric", [euclidean_metric(), sphere_metric(),
                                    hyperbolic_metric(), perturbed_metric(0.4)])
def test_shipped_dg_equals_central_differences_of_g(metric):
    # metric_partials reads dg only, so every shipped dg is checked here
    # against jacobians_fd of g on a stack of points
    from cartanlab.chartcalc import metric_partials

    X = np.array([[0.1, -0.2], [0.3, 0.25], [-0.4, 0.05]])
    dg = metric_partials(metric, X)
    assert dg.shape == (3, 2, 2, 2)
    assert np.max(np.abs(dg - jacobians_fd(metric.g, X))) < 1e-8


@pytest.mark.parametrize("metric", [euclidean_metric(), sphere_metric(),
                                    hyperbolic_metric(), perturbed_metric(0.4)])
def test_metrics_broadcast_over_a_stack_of_points(metric):
    X = np.array([[0.1, -0.2], [0.3, 0.25], [-0.4, 0.05]])
    g, dg = metric(X), metric.dg(X)
    assert g.shape == (3, 2, 2) and dg.shape == (3, 2, 2, 2)
    for a in range(3):
        assert np.array_equal(g[a], metric(X[a]))
        assert np.array_equal(dg[a], metric.dg(X[a]))


@pytest.mark.parametrize("metric", [euclidean_metric(), sphere_metric(),
                                    hyperbolic_metric(), perturbed_metric(0.4)])
def test_conformal_metrics_keep_the_einsum_bits(metric, rng):
    # dg is delta_ij dlam_l with +0 off the diagonal, and |x|^2 sums from 0
    # in order, as einsum gives them, signed zeros included
    X = rng.uniform(-0.6, 0.6, size=(200, 2))
    dg = metric.dg(X)
    assert dg.tobytes() == np.einsum("ij,...l->...ijl", np.eye(2), dg[:, 0, 0, :]).tobytes()
    assert _sq_norm(X).tobytes() == np.einsum("...i,...i->...", X, X).tobytes()


def test_metric_that_does_not_broadcast_is_refused():
    from cartanlab.chartcalc import MetricChart
    from cartanlab.models.isojet import make_isometry_jet_groupoid

    # written for one point: on a stack x[0] is the first point, not a coordinate
    metric = MetricChart(2, lambda x: (1.0 + x[0] ** 2) * np.eye(2),
                         lambda x: 2.0 * x[0] * np.einsum("ij,l->ijl", np.eye(2), [1.0, 0.0]),
                         name="one-point")
    model, S = make_isometry_jet_groupoid(metric)
    g = np.array([0.1, -0.2, 0.3, 0.25, 0.4])
    with raises(MetricError, match="broadcast"):
        S.mu_at(g)
    with raises(MetricError, match="broadcast"):
        prolongation_jets(metric, g[None])
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
    # a stack against a stack of one row. Each chart map, and the source
    # fiber chart's embedding, has one implementation: its single form is
    # the batch of one of its stacked form
    model, S = zoo(name)
    if not jacobians:
        model = model.without_jacobians()
    rng = np.random.default_rng(23)
    for cm in (model.src, model.tgt, model.unit):
        assert cm.eval.many is cm.eval_many
    if model.src_fiber_chart is not None:
        emb, _ = model.src_fiber_chart(sample_base_point(model, np.random.default_rng(29)))
        assert emb.eval.many is emb.eval_many

    def rows_match(owner, maps):
        for name, args in maps:
            single, many = getattr(owner, name), getattr(owner, name + "_many")
            assert np.array_equal(many(*args), [single(*row) for row in zip(*args)])

    def hook_rows_match(owner, hooks):
        for hook, args in hooks:
            many = getattr(owner, hook)
            rows = [_blocks(many(*(X[a:a + 1] for X in args))) for a in range(len(args[0]))]
            for b, block in enumerate(_blocks(many(*args))):
                assert np.array_equal(block, [row[b][0] for row in rows])

    for G, H, M in _stacked_cases(model, rng):
        for cm, X in ((model.src, G), (model.tgt, G), (model.unit, M)):
            assert np.array_equal(cm.many(X), [cm(x) for x in X])
        # the jets, which read no structure-map jacobian
        assert np.array_equal(S.mu_at.many(G), [S.mu_at(g) for g in G])
        rows_match(model, [("mul", (G, H)), ("inv", (G,)), ("retract_src", (G, M)),
                           ("retract_tgt", (G, M))])
        hooks = [("mul_jac_many", (G, H)), ("inv_jac_many", (G,)),
                 ("retract_src_jac_many", (G, M)), ("retract_tgt_jac_many", (G, M))]
        assert [hook for hook, _ in hooks] == list(JACOBIAN_HOOKS)
        if not jacobians:
            assert all(getattr(model, hook) is None for hook in JACOBIAN_HOOKS)
            hooks = []
        hook_rows_match(model, hooks)
        cc = model.extras.get("classical")
        if cc is not None:
            # the gauge model's bundle maps: the single forms are batches of
            # one, and the jacobians have none
            P, Hh = G[:, :cc.p_dim], cc.normalizer_many(H[:, :cc.p_dim])
            bundle = [("pi", (P,)), ("sigma", (M,)), ("normalizer", (P,)),
                      ("h_act", (P, Hh)), ("h_inv", (Hh,))]
            rows_match(cc, bundle)
            hook_rows_match(cc, [(name + "_jac_many", args) for name, args in bundle])
            assert np.array_equal(cc.omega_matrix.many(P), [cc.omega_matrix(p) for p in P])
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
