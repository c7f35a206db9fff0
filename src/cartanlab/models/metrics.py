"""Surface metrics shipped with the model zoo, all with analytic partials.

Every shipped metric is conformal, g = lam(x) I, but the constructions that
consume them (Christoffel symbols, isometric-frame factors) work for general
SPD metric charts. g and dg broadcast over leading axes: a stack of points
x[..., 2] gives g[..., 2, 2] and dg[..., 2, 2, 2].
"""

import numpy as np

from ..chartcalc import MetricChart


def _conformal(lam, dlam, name) -> MetricChart:
    """lam maps points x[..., 2] to lam[...], dlam to its gradient [..., 2]."""
    eye = np.eye(2)

    def g(x):
        return lam(x)[..., None, None] * eye

    def dg(x):
        return np.einsum("ij,...l->...ijl", eye, dlam(x))

    return MetricChart(2, g, dg, name=name)


def _sq_norm(x):
    return np.einsum("...i,...i->...", x, x)


def euclidean_metric() -> MetricChart:
    return _conformal(lambda x: np.ones(x.shape[:-1]), np.zeros_like, "euclidean")


def sphere_metric() -> MetricChart:
    """Round sphere in a stereographic chart: lam = 4 / (1 + |x|^2)^2."""

    def lam(x):
        return 4.0 / (1.0 + _sq_norm(x)) ** 2

    def dlam(x):
        return -16.0 * x / ((1.0 + _sq_norm(x)) ** 3)[..., None]

    return _conformal(lam, dlam, "sphere")


def hyperbolic_metric() -> MetricChart:
    """Hyperbolic plane in the disc chart: lam = 4 / (1 - |x|^2)^2."""

    def lam(x):
        return 4.0 / (1.0 - _sq_norm(x)) ** 2

    def dlam(x):
        return 16.0 * x / ((1.0 - _sq_norm(x)) ** 3)[..., None]

    return _conformal(lam, dlam, "hyperbolic")


def perturbed_metric(eps: float = 0.4) -> MetricChart:
    """Non-symmetric perturbation lam = 1 + eps x_1^2; its Gauss curvature is
    position dependent, so the surface has no continuous isometries."""

    def lam(x):
        return 1.0 + eps * x[..., 0] ** 2

    def dlam(x):
        return np.stack([2.0 * eps * x[..., 0], np.zeros(x.shape[:-1])], axis=-1)

    return _conformal(lam, dlam, f"perturbed-eps{eps:g}")
