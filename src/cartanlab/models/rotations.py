"""Rotation-vector parameterization of SO(3) with closed-form jacobians.

w is a rotation vector (axis * angle); exp/log use Rodrigues' formulas with
Taylor fallbacks near zero angle. The left/right Jacobians J_l, J_r and their
inverses give the derivative of composition in the rotation-vector chart:
for w3 = log(exp(w2) exp(w1)),

    d w3 / d w1 = J_r(w3)^-1 J_r(w1),    d w3 / d w2 = J_l(w3)^-1 J_l(w2).

The SO(3) maps take stacks of rotation vectors w[k, 3] (or of matrices), and
the plane rotations stacks of angles; row a of each depends on row a alone,
bit for bit: a batch of one is the single-point form.
"""

import numpy as np

from ..chartcalc import batch_of_one

_EPS = 1e-6


def hat_many(w: np.ndarray) -> np.ndarray:
    """The skew matrix hat(w[a]) of each row of w[k, 3] (hat(w) v = w x v),
    as H[k, 3, 3]."""
    H = np.zeros((len(w), 3, 3))
    H[:, 2, 1], H[:, 0, 2], H[:, 1, 0] = w.T
    H[:, 1, 2], H[:, 2, 0], H[:, 0, 1] = -w.T
    return H


def _norms(w: np.ndarray) -> list[float]:
    """float(np.linalg.norm(w[a])) for each row of w[k, 3], bit for bit: the
    square root of the row's dot product with itself, as the norm of one row
    takes it (norm(axis=1) sums the squares in another order, which would
    move report values at roundoff)."""
    w = np.ascontiguousarray(w, dtype=float)
    return np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0]).tolist()


def _coeffs(theta: float) -> tuple[float, float, float]:
    """(sin t)/t, (1-cos t)/t^2, (t - sin t)/t^3 with series fallbacks."""
    if theta < _EPS:
        t2 = theta * theta
        return 1.0 - t2 / 6.0, 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0
    return (np.sin(theta) / theta,
            (1.0 - np.cos(theta)) / theta**2,
            (theta - np.sin(theta)) / theta**3)


def _quadratic_many(w: np.ndarray, coeffs) -> np.ndarray:
    """I + c1 W + c2 W^2 with W = hat(w[a]) and (c1, c2) = coeffs(|w[a]|), for
    each row of w[k, 3]: the form of exp, J_l and J_l^-1. The coefficients
    stay scalar Python per row, since array powers round differently from
    the scalar theta**2 and theta**3."""
    c = np.array([coeffs(theta) for theta in _norms(w)]).reshape(-1, 2, 1, 1)
    W = hat_many(np.asarray(w, dtype=float))
    return np.eye(3) + c[:, 0] * W + c[:, 1] * (W @ W)


def exp_so3_many(w: np.ndarray) -> np.ndarray:
    """The rotation matrix exp(hat(w[a])) of each row of w[k, 3], by Rodrigues."""
    return _quadratic_many(w, lambda theta: _coeffs(theta)[:2])


def _log_factor(trace: float) -> float:
    """theta / (2 sin theta) of a rotation with the given trace, series near 0."""
    c = np.clip((trace - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(c))
    if theta < _EPS:
        return 0.5 * (1.0 + theta * theta / 6.0)
    return theta / (2.0 * np.sin(theta))


def log_so3_many(R: np.ndarray) -> np.ndarray:
    """The rotation vector of each matrix of R[k, 3, 3], principal branch."""
    R = np.asarray(R, dtype=float)
    factor = np.array([_log_factor(t) for t in np.trace(R, axis1=1, axis2=2).tolist()])
    D = R - np.swapaxes(R, 1, 2)
    return factor[:, None] * np.stack([D[:, 2, 1], D[:, 0, 2], D[:, 1, 0]], axis=1)


def jl_many(w: np.ndarray) -> np.ndarray:
    """The left Jacobian J_l(w[a]) of each row of w[k, 3]; J_r(w) is J_l(-w)."""
    return _quadratic_many(w, lambda theta: _coeffs(theta)[1:])


def _binv(theta: float) -> float:
    if theta < _EPS:
        return 1.0 / 12.0 + theta * theta / 720.0
    return 1.0 / theta**2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))


def jl_inv_many(w: np.ndarray) -> np.ndarray:
    """J_l(w[a])^-1 of each row of w[k, 3], as I - 0.5 W + b(theta) W^2
    (I + (-0.5) W is I - 0.5 W exactly)."""
    return _quadratic_many(w, lambda theta: (-0.5, _binv(theta)))


def compose_so3_many(w2: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """The rotation vector of exp(w2[a]) exp(w1[a]) for each pair of rows of
    w2[k, 3] and w1[k, 3], principal branch."""
    return log_so3_many(exp_so3_many(w2) @ exp_so3_many(w1))


def compose_so3_jac_many(w2: np.ndarray,
                         w1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The jacobians of compose_so3_many in w2 and in w1 at each pair of rows,
    as stacks of the two blocks J_l(w3)^-1 J_l(w2) and J_r(w3)^-1 J_r(w1)."""
    w3 = compose_so3_many(w2, w1)
    return (jl_inv_many(w3) @ jl_many(w2),
            jl_inv_many(-w3) @ jl_many(-np.asarray(w1, dtype=float)))


def rot2_many(theta: np.ndarray) -> np.ndarray:
    """The rotation of the plane by each angle of a vector theta[k], as a
    C-contiguous R[k, 2, 2]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.ascontiguousarray(np.array([c, -s, s, c]).T).reshape(-1, 2, 2)


rot2 = batch_of_one(rot2_many)  # the rotation by one angle

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])  # generator of 2D rotations: rot2'(t) = J2 rot2(t)
