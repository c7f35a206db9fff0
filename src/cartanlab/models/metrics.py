"""Surface metrics shipped with the model zoo, all with analytic partials.

Every shipped metric is conformal, g = lam(x) I, but the constructions that
consume them (Christoffel symbols, isometric-frame factors) work for general
SPD metric charts. g and dg broadcast over leading axes: a stack of points
x[..., 2] gives g[..., 2, 2] and dg[..., 2, 2, 2]. Being conformal, every
shipped g is diagonal, so isojet.inv2 inverts it as np.linalg.inv does, bit
for bit.
"""

import numpy as np

from ..chartcalc import MetricChart


def _conformal(lam, dlam, name) -> MetricChart:
    """lam maps points x[..., 2] to lam[...], dlam to its gradient [..., 2]."""
    eye = np.eye(2)

    def g(x):
        return lam(x)[..., None, None] * eye

    def dg(x):
        # dg[..., i, j, l] = delta_ij dlam_l, written into zeros so that the
        # off-diagonal entries are +0: a product 0 * dlam_l would be -0
        # where dlam_l < 0, and einsum("ij,...l->...ijl"), whose bits the
        # tests pin, sums from +0
        d = dlam(x)
        out = np.zeros(d.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, :] = out[..., 1, 1, :] = d
        return out

    return MetricChart(2, g, dg, name=name)


def _sq_norm(x):
    return x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]


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
    """Perturbed flat metric lam = 1 + eps x_1^2. Its Gauss curvature varies
    with x_1, so the surface is not flat; lam does not depend on x_2, so the
    x_2-translations are isometries, and the only continuous ones."""

    def lam(x):
        return 1.0 + eps * x[..., 0] ** 2

    def dlam(x):
        return np.stack([2.0 * eps * x[..., 0], np.zeros(x.shape[:-1])], axis=-1)

    return _conformal(lam, dlam, f"perturbed-eps{eps:g}")
