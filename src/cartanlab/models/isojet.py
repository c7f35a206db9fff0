"""Groupoid of isometric one-jets of a surface, with its prolongation connection.

An arrow is (m, m', theta): the unique orientation-preserving isometry
A: T_m M -> T_m' M obtained by rotating the metric's Cholesky frame,

    A(m, m', theta) = L(m')^-T R(theta) L(m)^T,   g = L L^T.

In this chart the groupoid operations are affine (theta adds under
composition, frames cancel), while the metric enters through the connection:
the horizontal jet at an arrow extends the isometry to second order by total
covariant constancy of A,

    dA_i = A Gamma_i(m) - Gamma'(m') (A e_i, A .),

solved for the theta-slope of the jet (an overdetermined but consistent linear
system; its residual is exposed for verification).
"""

import numpy as np

from ..chartcalc import (
    ChartMap,
    MetricChart,
    WorstErrors,
    batch_of_one,
    christoffel_from_partials,
    constant_jacobian,
    metric_partials,
)
from ..connection import CartanConnection
from ..errors import MetricError
from ..groupoid import GroupoidModel, source_slot, target_slot
from .rotations import J2, rot2, rot2_many

_I2 = np.eye(2)
THETA_MAX = 0.7  # half-width of the theta row of the arrow box


def chol2(G: np.ndarray) -> np.ndarray:
    """Closed-form lower Cholesky factor of a 2x2 SPD matrix, or of each
    matrix of a stack G[..., 2, 2]. A NaN pivot is not positive, so NaN
    entries raise MetricError too."""
    a, c, b = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
    if not (a > 0.0).all():
        raise MetricError("metric not positive definite")
    l11 = np.sqrt(a)
    l21 = c / l11
    rest = b - l21 * l21
    if not (rest > 0.0).all():
        raise MetricError("metric not positive definite")
    L = np.zeros(np.shape(G))
    L[..., 0, 0] = l11
    L[..., 1, 0] = l21
    L[..., 1, 1] = np.sqrt(rest)
    return L


def dchol2(L: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """Derivative of the 2x2 Cholesky factor given dG (the derivative of G);
    broadcasts over leading axes of L and dG."""
    l11, l21, l22 = L[..., 0, 0], L[..., 1, 0], L[..., 1, 1]
    dl11 = dG[..., 0, 0] / (2.0 * l11)
    dl21 = (dG[..., 0, 1] - l21 * dl11) / l11
    dl22 = (dG[..., 1, 1] - 2.0 * l21 * dl21) / (2.0 * l22)
    dL = np.zeros(np.broadcast(L, dG).shape)
    dL[..., 0, 0] = dl11
    dL[..., 1, 0] = dl21
    dL[..., 1, 1] = dl22
    return dL


def isometry_matrix(metric: MetricChart, m: np.ndarray, mp: np.ndarray,
                    theta: float) -> np.ndarray:
    """The isometric tangent map T_m M -> T_m' M carried by the arrow."""
    Lm = chol2(metric(m))
    Lp = chol2(metric(mp))
    return np.linalg.solve(Lp.T, rot2(theta) @ Lm.T)


def make_isometry_jet_groupoid(
        metric: MetricChart,
        base_box: np.ndarray | None = None) -> tuple[GroupoidModel, CartanConnection]:
    """The isometry-jet groupoid of a surface metric and its prolongation
    connection. The metric's g and dg must broadcast over a leading axis of
    points, as MetricChart describes; the jets are computed for stacks."""
    if base_box is None:
        base_box = np.array([[-0.6, 0.6], [-0.6, 0.6]])
    base_box = np.asarray(base_box, dtype=float)
    n, N = 2, 5
    # every structure-map jacobian is constant: build each matrix once,
    # read-only since every caller shares it, and stack it as a view
    unit_jac, keep_tgt, keep_src, swap = map(constant_jacobian, (
        np.vstack([_I2, _I2, np.zeros((1, 2))]),
        np.diag([0.0, 0.0, 1.0, 1.0, 1.0]),
        np.diag([1.0, 1.0, 0.0, 0.0, 1.0]),
        np.block([[np.zeros((2, 2)), _I2, np.zeros((2, 1))],
                  [_I2, np.zeros((2, 3))],
                  [np.zeros((1, 4)), -np.ones((1, 1))]])))
    unit = ChartMap(n, N, lambda m: np.concatenate([m, m, [0.0]]),
                    jacobian=unit_jac,
                    eval_many=lambda M: np.concatenate([M, M, np.zeros((len(M), 1))], axis=1))

    domain_box = np.vstack([base_box, base_box, [[-THETA_MAX, THETA_MAX]]])

    def horizontal_jets(G):
        return prolongation_jets(metric, np.asarray(G, dtype=float))[0]

    model = GroupoidModel(
        name=f"isojet-{metric.name}",
        n=n,
        N=N,
        unit=unit,
        domain_box=domain_box,
        base_box=base_box,
        mul_jac_many=lambda G, H: (keep_tgt(G), keep_src(G)),
        inv_jac_many=swap,
        extras={"metric": metric},
        mul_many=lambda G, H: np.concatenate([H[:, :2], G[:, 2:4], G[:, 4:] + H[:, 4:]], axis=1),
        inv_many=lambda G: np.concatenate([G[:, 2:4], G[:, :2], -G[:, 4:]], axis=1),
        **source_slot(N, slice(0, 2), domain_box),
        **target_slot(N, slice(2, 4)),
    )

    S = CartanConnection(model, batch_of_one(horizontal_jets), name=f"prolongation[{metric.name}]")
    return model, S


def prolongation_jet(metric: MetricChart, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Horizontal jet matrix at arrow (m, m', theta) and the residual of the
    covariant-constancy solve.

    Rows are (base slots: identity, target slots: the isometry A, theta slot:
    the solved theta-gradient w). w is determined for each base direction i by

        dA/dtheta * w_i = A Gamma_i(m) - Gamma'(m')(A e_i, A .)
                          - dA/dm_i - sum_a dA/dm'_a A[a, i].
    """
    mu, dA_theta, rhs = prolongation_jets(metric, np.asarray(g, dtype=float)[None])
    mu, dA_theta, rhs = mu[0], dA_theta[0], rhs[0]
    worst = WorstErrors(("residual",))
    worst.record("residual", rhs - mu[4, :, None, None] * dA_theta)
    return mu, worst["residual"]


def prolongation_jets(metric: MetricChart,
                      G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The jets of prolongation_jet at a stack of arrows G[k, 5], as mu[k, 5, 2],
    with dA/dtheta[k, 2, 2] and the right-hand sides rhs[k, i, 2, 2] of the
    solve for each base direction i, from which the caller that wants it
    forms the residual.

    Each arrow's rows are computed by the same operations whatever the size
    of the stack, so mu[a] does not depend on the other arrows. The metric is
    evaluated once at the stacked sources and targets, so its g and dg must
    broadcast over a leading axis of points (MetricError where they do not);
    nothing is kept between calls.
    """
    k = len(G)
    X = np.concatenate([G[:, :2], G[:, 2:4]])
    gm = metric(X)
    dgm = metric_partials(metric, X)  # dgm[p, i, j, l] = d_l g_ij
    if gm.shape != (2 * k, 2, 2) or dgm.shape != (2 * k, 2, 2, 2):
        raise MetricError(
            f"metric {metric.name} does not broadcast over a stack of points: "
            f"at {2 * k} points g gave shape {gm.shape} and its partials "
            f"{dgm.shape}, not ({2 * k}, 2, 2) and ({2 * k}, 2, 2, 2)")
    L = chol2(gm)
    dLT = np.swapaxes(dchol2(L[:, None], dgm.transpose(0, 3, 1, 2)), -1, -2)  # [p, l]
    LTinv = np.linalg.inv(np.swapaxes(L, -1, -2))
    dLTinv = -LTinv[:, None] @ dLT @ LTinv[:, None]
    gamma = christoffel_from_partials(np.linalg.inv(gm), dgm)  # gamma[p, k, i, j]

    R = rot2_many(G[:, 4])
    LpTinv = LTinv[k:]
    LpTinvR = LpTinv @ R
    LmT = np.swapaxes(L[:k], -1, -2)
    A = LpTinvR @ LmT
    dA_theta = LpTinv @ J2 @ R @ LmT
    dA_m = LpTinvR[:, None] @ dLT[:k]  # [k, i]
    dA_p = dLTinv[k:] @ R[:, None] @ LmT[:, None]  # [k, a]
    # target[k, i] = A Gamma_i(m) - Gamma'(m')(A e_i, A .)
    target = (np.einsum("...kc,...cij->...ikj", A, gamma[:k])
              - np.einsum("...kab,...ai,...bj->...ikj", gamma[k:], A, A))
    rhs = target - dA_m - np.einsum("...akj,...ai->...ikj", dA_p, A)
    w = (np.einsum("...kj,...ikj->...i", dA_theta, rhs)
         / np.einsum("...kj,...kj->...", dA_theta, dA_theta)[:, None])
    mu = np.empty((k, 5, 2))
    mu[:, :2] = _I2
    mu[:, 2:4] = A
    mu[:, 4] = w
    return mu, dA_theta, rhs
