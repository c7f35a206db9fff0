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

from dataclasses import dataclass

import numpy as np

from ..chartcalc import (
    ChartMap,
    MetricChart,
    christoffel_from_partials,
    memo_by_point,
    metric_partials,
    worst_case,
)
from ..connection import CartanConnection
from ..errors import MetricError
from ..groupoid import GroupoidModel
from .rotations import J2, rot2


# points whose frame data an isometry-jet model keeps; a few thousand would
# add megabytes of peak memory for few extra hits
FRAME_DATA_CACHE_SIZE = 32


def chol2(G: np.ndarray) -> np.ndarray:
    """Closed-form lower Cholesky factor of a 2x2 SPD matrix."""
    a, c, b = G[0, 0], G[0, 1], G[1, 1]
    if a <= 0.0:
        raise MetricError("metric not positive definite")
    l11 = np.sqrt(a)
    l21 = c / l11
    rest = b - l21 * l21
    if rest <= 0.0:
        raise MetricError("metric not positive definite")
    return np.array([[l11, 0.0], [l21, np.sqrt(rest)]])


def dchol2(L: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """Derivative of the 2x2 Cholesky factor given dG (the derivative of G)."""
    l11, l21, l22 = L[0, 0], L[1, 0], L[1, 1]
    dl11 = dG[0, 0] / (2.0 * l11)
    dl21 = (dG[0, 1] - l21 * dl11) / l11
    dl22 = (dG[1, 1] - 2.0 * l21 * dl21) / (2.0 * l22)
    return np.array([[dl11, 0.0], [dl21, dl22]])


@dataclass(frozen=True)
class IsoFrameData:
    """Cholesky frame and Levi-Civita symbols of the metric at a point, with
    the per-point factors of the prolongation jet built from them."""

    L: np.ndarray
    gamma: np.ndarray  # Gamma[k, i, j]
    LTinv: np.ndarray  # (L^T)^-1
    dLT: tuple[np.ndarray, ...]  # dLT[l] = (d L / d x_l)^T
    dLTinv: tuple[np.ndarray, ...]  # dLTinv[l] = d (L^T)^-1 / d x_l


def frame_data(metric: MetricChart, x: np.ndarray) -> IsoFrameData:
    G = metric(x)
    dG = metric_partials(metric, x)
    L = chol2(G)
    dL = np.stack([dchol2(L, dG[:, :, l]) for l in range(2)], axis=2)
    gamma = christoffel_from_partials(np.linalg.inv(G), dG)
    LTinv = np.linalg.inv(L.T)
    dLT = tuple(dL[:, :, l].T for l in range(2))
    dLTinv = tuple(-LTinv @ dLT[l] @ LTinv for l in range(2))
    return IsoFrameData(L, gamma, LTinv, dLT, dLTinv)


def isometry_matrix(metric: MetricChart, m: np.ndarray, mp: np.ndarray,
                    theta: float) -> np.ndarray:
    """The isometric tangent map T_m M -> T_m' M carried by the arrow."""
    Lm = chol2(metric(m))
    Lp = chol2(metric(mp))
    return np.linalg.solve(Lp.T, rot2(theta) @ Lm.T)


def make_isometry_jet_groupoid(metric: MetricChart,
                               base_box: np.ndarray | None = None,
                               theta_max: float = 0.7) -> tuple[GroupoidModel, CartanConnection]:
    if base_box is None:
        base_box = np.array([[-0.6, 0.6], [-0.6, 0.6]])
    base_box = np.asarray(base_box, dtype=float)
    n, N = 2, 5
    I2 = np.eye(2)
    Z2 = np.zeros((2, 2))
    z21 = np.zeros((2, 1))
    z12 = np.zeros((1, 2))

    src_jac = np.hstack([I2, Z2, z21])
    tgt_jac = np.hstack([Z2, I2, z21])
    unit_jac = np.vstack([I2, I2, z12])
    src = ChartMap(N, n, lambda g: g[:2], jacobian=lambda g: src_jac)
    tgt = ChartMap(N, n, lambda g: g[2:4], jacobian=lambda g: tgt_jac)
    unit = ChartMap(n, N, lambda m: np.concatenate([m, m, [0.0]]),
                    jacobian=lambda m: unit_jac)

    def mul(g, h):
        return np.concatenate([h[:2], g[2:4], [g[4] + h[4]]])

    def mul_jac(g, h):
        Dg = np.zeros((5, 5))
        Dg[2:4, 2:4] = I2
        Dg[4, 4] = 1.0
        Dh = np.zeros((5, 5))
        Dh[:2, :2] = I2
        Dh[4, 4] = 1.0
        return Dg, Dh

    def inv(g):
        return np.concatenate([g[2:4], g[:2], [-g[4]]])

    def inv_jac(g):
        D = np.zeros((5, 5))
        D[:2, 2:4] = I2
        D[2:4, :2] = I2
        D[4, 4] = -1.0
        return D

    def retract_src(g, m):
        return np.concatenate([m, g[2:4], [g[4]]])

    def retract_tgt(g, m):
        return np.concatenate([g[:2], m, [g[4]]])

    src_jacs = (np.diag([0.0, 0.0, 1.0, 1.0, 1.0]), np.vstack([I2, Z2, z12]))
    tgt_jacs = (np.diag([1.0, 1.0, 0.0, 0.0, 1.0]), np.vstack([Z2, I2, z12]))

    theta_box = np.array([[-theta_max, theta_max]])
    domain_box = np.vstack([base_box, base_box, theta_box])

    def arrow_with_source(m, rng):
        mp = rng.uniform(base_box[:, 0], base_box[:, 1])
        th = rng.uniform(-theta_max, theta_max)
        return np.concatenate([m, mp, [th]])

    def fiber_chart(m0):
        m0 = np.asarray(m0, dtype=float)
        emb = ChartMap(3, 5, lambda u: np.concatenate([m0, u]),
                       jacobian=lambda u: np.vstack([np.zeros((2, 3)), np.eye(3)]))

        def project(coords):
            return np.asarray(coords, dtype=float)[2:]

        return emb, project

    # the direct-formula route evaluates the jet at 2·rank stencil arrows that
    # share one source point, and curvature returns to the same stencil
    # points, so the frame data of a few dozen recent points serves most calls
    cached_frame_data = memo_by_point(lambda x: frame_data(metric, x),
                                      FRAME_DATA_CACHE_SIZE)

    def horizontal_jet(g):
        g = np.asarray(g, dtype=float)
        mu, _, _ = _solve_jet(cached_frame_data(g[:2]), cached_frame_data(g[2:4]),
                              float(g[4]))
        return mu

    model = GroupoidModel(
        name=f"isojet-{metric.name}",
        n=n,
        N=N,
        src=src,
        tgt=tgt,
        unit=unit,
        mul=mul,
        inv=inv,
        retract_src=retract_src,
        retract_tgt=retract_tgt,
        domain_box=domain_box,
        base_box=base_box,
        arrow_with_source=arrow_with_source,
        mul_jac=mul_jac,
        inv_jac=inv_jac,
        retract_src_jac=lambda g, m: src_jacs,
        retract_tgt_jac=lambda g, m: tgt_jacs,
        src_fiber_chart=fiber_chart,
        extras={"metric": metric},
    )

    S = CartanConnection(model, horizontal_jet, name=f"prolongation[{metric.name}]")
    return model, S


def prolongation_jet(metric: MetricChart, g: np.ndarray) -> tuple[np.ndarray, float]:
    """Horizontal jet matrix at arrow (m, m', theta) and the residual of the
    covariant-constancy solve.

    Rows are (base slots: identity, target slots: the isometry A, theta slot:
    the solved theta-gradient w). w is determined for each base direction i by

        dA/dtheta * w_i = A Gamma_i(m) - Gamma'(m')(A e_i, A .)
                          - dA/dm_i - sum_a dA/dm'_a A[a, i].
    """
    g = np.asarray(g, dtype=float)
    mu, dA_theta, rhs = _solve_jet(frame_data(metric, g[:2]), frame_data(metric, g[2:4]),
                                   float(g[4]))
    residual = 0.0
    for i in range(2):
        residual = worst_case(residual, float(np.max(np.abs(rhs[i] - mu[4, i] * dA_theta))))
    return mu, residual


def _solve_jet(fm: IsoFrameData, fp: IsoFrameData,
               theta: float) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The jet of prolongation_jet from the frame data at the source and
    target points, with dA/dtheta and the right-hand side for each base
    direction, from which the caller that wants it forms the residual."""
    R = rot2(theta)
    LpTinv = fp.LTinv
    LpTinvR = LpTinv @ R
    LmT = fm.L.T
    A = LpTinvR @ LmT
    dA_theta = LpTinv @ J2 @ R @ LmT
    dA_m = [LpTinvR @ fm.dLT[i] for i in range(2)]
    dA_p = [fp.dLTinv[a] @ R @ LmT for a in range(2)]
    Gm = fm.gamma
    Gp = fp.gamma

    Mvec = dA_theta.ravel()
    denom = float(Mvec @ Mvec)
    w = np.zeros(2)
    rhs = []
    for i in range(2):
        target = np.einsum("kc,cj->kj", A, Gm[:, i, :]) \
            - np.einsum("kab,a,bj->kj", Gp, A[:, i], A)
        rhs.append(target - dA_m[i] - sum(dA_p[a] * A[a, i] for a in range(2)))
        w[i] = float(Mvec @ rhs[i].ravel()) / denom
    return np.vstack([np.eye(2), A, w]), dA_theta, rhs
