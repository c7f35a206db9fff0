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
    batch_of_one,
    christoffel_from_partials,
    constant_jacobian,
    metric_partials,
    sum_from_zero,
)
from ..connection import CartanConnection
from ..errors import MetricError
from ..groupoid import GroupoidModel, source_slot, target_slot
from .rotations import J2, rot2_many

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


def inv2(G: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of a stack G[..., 2, 2] of SPD matrices, in the
    order of LAPACK's unpivoted LU solve of G X = I written out. On a diagonal
    stack it equals np.linalg.inv bit for bit, signed zeros included. On a
    general SPD stack it agrees to roundoff: LAPACK pivots where |g01| > g00,
    and an SPD matrix needs no pivot."""
    a, b, c, d = G[..., 0, 0], G[..., 0, 1], G[..., 1, 0], G[..., 1, 1]
    l = c / a
    u = d - l * b
    X = np.empty(np.shape(G))
    X[..., 1, 1] = x11 = 1.0 / u
    X[..., 1, 0] = x10 = (0.0 - l) / u
    X[..., 0, 0] = (1.0 - b * x10) / a
    X[..., 0, 1] = (0.0 - b * x11) / a
    return X


def inv2_lt(L: np.ndarray) -> np.ndarray:
    """(L^T)^-1 for each lower-triangular factor of a stack L[..., 2, 2]:
    inv2's steps on the upper-triangular L^T, where the lower pivot is
    l22 itself, so it equals np.linalg.inv(L^T) wherever inv2 does."""
    l11, l21, l22 = L[..., 0, 0], L[..., 1, 0], L[..., 1, 1]
    X = np.zeros(np.shape(L))
    X[..., 0, 0] = 1.0 / l11
    X[..., 1, 1] = x11 = 1.0 / l22
    X[..., 0, 1] = (0.0 - l21 * x11) / l11
    return X


def isometry_matrices(metric: MetricChart, M: np.ndarray, MP: np.ndarray,
                      theta: np.ndarray) -> np.ndarray:
    """The isometric tangent maps T_m M -> T_m' M carried by a stack of arrows
    (M[k, 2], MP[k, 2], theta[k]), as A[k, 2, 2], row a depending on arrow a
    alone bit for bit."""
    Lm = chol2(metric(M))
    Lp = chol2(metric(MP))
    return np.linalg.solve(np.swapaxes(Lp, -1, -2), rot2_many(theta) @ np.swapaxes(Lm, -1, -2))


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

    def unit_many(M):
        return np.concatenate([M, M, np.zeros((len(M), 1))], axis=1)

    unit = ChartMap(n, N, batch_of_one(unit_many), jacobian=unit_jac, eval_many=unit_many)

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


def prolongation_jets(metric: MetricChart,
                      G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The horizontal jets at a stack of arrows G[k, 5] of (m, m', theta), as
    mu[k, 5, 2], with dA/dtheta[k, 2, 2] and the right-hand sides
    rhs[k, i, 2, 2] of the covariant-constancy solve, from which the caller
    that wants it forms the residual rhs[k, i] - w_i dA/dtheta[k].

    An arrow's rows are (base slots: identity, target slots: the isometry A,
    theta slot: the solved theta-gradient w), w determined for each base
    direction i by

        dA/dtheta * w_i = A Gamma_i(m) - Gamma'(m')(A e_i, A .)
                          - dA/dm_i - sum_a dA/dm'_a A[a, i].

    Each arrow's rows are computed by the same operations whatever the size
    of the stack, so mu[a] does not depend on the other arrows. The metric is
    evaluated once at the stacked sources and targets, so its g and dg must
    broadcast over a leading axis of points (MetricError where they do not);
    nothing is kept between calls.

    The 2x2 algebra is written out on the stack, with no np.linalg call: the
    inverses are inv2 and inv2_lt, and the Christoffel symbols and the
    contractions of the right-hand side are broadcast sums, each in the
    operation order of np.linalg.inv or einsum. So on a diagonal metric, as
    every shipped one is, the jets equal those of the same kernel built on
    np.linalg.inv and einsum bit for bit, and on a general SPD metric they
    agree to roundoff. The frame products are stacked matmul and the
    theta-slope's two contractions are einsum: written out, their sums would
    round differently (matmul's BLAS fuses multiply-adds, and einsum's
    vectorized reduction is neither a sequential nor a pairwise sum).
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
    # each intermediate is dropped once its last use is past: a curvature
    # stencil passes about a thousand arrows, and the stack's peak memory is
    # the process's
    L = chol2(gm)
    Ginv = inv2(gm)
    del gm
    gamma = christoffel_from_partials(Ginv, dgm)  # gamma[p, k, i, j]
    del Ginv
    dLT = np.swapaxes(dchol2(L[:, None], dgm.transpose(0, 3, 1, 2)), -1, -2)  # [p, l]
    del dgm
    LpTinv = inv2_lt(L[k:])  # only the targets' frames are inverted
    dLpTinv = -LpTinv[:, None] @ dLT[k:] @ LpTinv[:, None]
    R = rot2_many(G[:, 4])
    LpTinvR = LpTinv @ R
    LmT = np.swapaxes(L[:k], -1, -2)
    A = LpTinvR @ LmT
    dA_theta = LpTinv @ J2 @ R @ LmT
    dA_m = LpTinvR[:, None] @ dLT[:k]  # [k, i]
    del dLT, LpTinv, LpTinvR
    dA_p = dLpTinv @ R[:, None] @ LmT[:, None]  # [k, a]
    del dLpTinv, R, LmT, L
    # rhs[k, i] = A Gamma_i(m) - Gamma'(m')(A e_i, A .) - dA_m[k, i]
    #             - sum_a dA_p[k, a] A[a, i], indexed [k, i, ., .]. Each sum
    # takes its indices in order, its products multiplied left to right, so
    # the bits, signed zeros included, are those of the einsums
    # "...kc,...cij->...ikj", "...kab,...ai,...bj->...ikj" and
    # "...akj,...ai->...ikj", which the tests keep as the reference
    rhs = sum_from_zero(A[:, None, :, c, None] * gamma[:k, c, :, None, :] for c in range(2))
    rhs -= sum_from_zero(gamma[k:, None, :, a, b, None] * A[:, a, :, None, None]
                         * A[:, None, None, b, :] for a in range(2) for b in range(2))
    del gamma
    rhs -= dA_m
    del dA_m
    rhs -= sum_from_zero(dA_p[:, a, None] * A[:, a, :, None, None] for a in range(2))
    del dA_p
    w = (np.einsum("...kj,...ikj->...i", dA_theta, rhs)
         / np.einsum("...kj,...kj->...", dA_theta, dA_theta)[:, None])
    mu = np.empty((k, 5, 2))
    mu[:, :2] = _I2
    mu[:, 2:4] = A
    mu[:, 4] = w
    return mu, dA_theta, rhs
