"""Rotation-vector parameterization of SO(3) with closed-form jacobians.

w is a rotation vector (axis * angle); exp/log use Rodrigues' formulas with
Taylor fallbacks near zero angle. The left/right Jacobians J_l, J_r and their
inverses give the derivative of composition in the rotation-vector chart:
for w3 = log(exp(w2) exp(w1)),

    d w3 / d w1 = J_r(w3)^-1 J_r(w1),    d w3 / d w2 = J_l(w3)^-1 J_l(w2).
"""

import numpy as np

_EPS = 1e-6


def hat(w: np.ndarray) -> np.ndarray:
    wx, wy, wz = w
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def unhat(W: np.ndarray) -> np.ndarray:
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


def _coeffs(theta: float) -> tuple[float, float, float]:
    """(sin t)/t, (1-cos t)/t^2, (t - sin t)/t^3 with series fallbacks."""
    if theta < _EPS:
        t2 = theta * theta
        return 1.0 - t2 / 6.0, 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0
    return (np.sin(theta) / theta,
            (1.0 - np.cos(theta)) / theta**2,
            (theta - np.sin(theta)) / theta**3)


def exp_so3(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    a1, a2, _ = _coeffs(theta)
    W = hat(w)
    return np.eye(3) + a1 * W + a2 * (W @ W)


def log_so3(R: np.ndarray) -> np.ndarray:
    c = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(c))
    if theta < _EPS:
        factor = 0.5 * (1.0 + theta * theta / 6.0)
    else:
        factor = theta / (2.0 * np.sin(theta))
    return factor * unhat(R - R.T)


def jl(w: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(w))
    _, a2, a3 = _coeffs(theta)
    W = hat(w)
    return np.eye(3) + a2 * W + a3 * (W @ W)


def jr(w: np.ndarray) -> np.ndarray:
    return jl(-np.asarray(w, dtype=float))


def _binv(theta: float) -> float:
    if theta < _EPS:
        return 1.0 / 12.0 + theta * theta / 720.0
    return 1.0 / theta**2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))


def jl_inv(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    W = hat(w)
    return np.eye(3) - 0.5 * W + _binv(theta) * (W @ W)


def jr_inv(w: np.ndarray) -> np.ndarray:
    return jl_inv(-np.asarray(w, dtype=float))


def compose_so3(w2: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Rotation-vector of exp(w2) exp(w1), principal branch."""
    return log_so3(exp_so3(w2) @ exp_so3(w1))


def compose_so3_jac(w2: np.ndarray, w1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w3 = compose_so3(w2, w1)
    return jl_inv(w3) @ jl(w2), jr_inv(w3) @ jr(w1)


def rot2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def rot2_many(theta: np.ndarray) -> np.ndarray:
    """rot2 of each angle of a vector theta[k], as a C-contiguous R[k, 2, 2]."""
    c, s = np.cos(theta), np.sin(theta)
    return np.ascontiguousarray(np.array([c, -s, s, c]).T).reshape(-1, 2, 2)


J2 = np.array([[0.0, -1.0], [1.0, 0.0]])  # generator of 2D rotations: rot2'(t) = J2 rot2(t)
