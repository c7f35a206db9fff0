"""Surface metrics shipped with the model zoo, all with analytic partials.

Every shipped metric is conformal, g = lam(x) I, but the constructions that
consume them (Christoffel symbols, isometric-frame factors) work for general
SPD metric charts.
"""

import numpy as np

from ..chartcalc import MetricChart


def _conformal(lam, dlam, name) -> MetricChart:
    def g(x):
        return float(lam(x)) * np.eye(2)

    def dg(x):
        d = np.asarray(dlam(x), dtype=float)
        out = np.zeros((2, 2, 2))
        for l in range(2):
            out[:, :, l] = d[l] * np.eye(2)
        return out

    return MetricChart(2, g, dg, name=name)


def euclidean_metric() -> MetricChart:
    return _conformal(lambda x: 1.0, lambda x: np.zeros(2), "euclidean")


def sphere_metric() -> MetricChart:
    """Round sphere in a stereographic chart: lam = 4 / (1 + |x|^2)^2."""

    def lam(x):
        return 4.0 / (1.0 + float(x @ x)) ** 2

    def dlam(x):
        return -16.0 * np.asarray(x, dtype=float) / (1.0 + float(x @ x)) ** 3

    return _conformal(lam, dlam, "sphere")


def hyperbolic_metric() -> MetricChart:
    """Hyperbolic plane in the disc chart: lam = 4 / (1 - |x|^2)^2."""

    def lam(x):
        return 4.0 / (1.0 - float(x @ x)) ** 2

    def dlam(x):
        return 16.0 * np.asarray(x, dtype=float) / (1.0 - float(x @ x)) ** 3

    return _conformal(lam, dlam, "hyperbolic")


def perturbed_metric(eps: float = 0.4) -> MetricChart:
    """Non-symmetric perturbation lam = 1 + eps x_1^2; its Gauss curvature is
    position dependent, so the surface has no continuous isometries."""

    def lam(x):
        return 1.0 + eps * float(x[0]) ** 2

    def dlam(x):
        return np.array([2.0 * eps * float(x[0]), 0.0])

    return _conformal(lam, dlam, f"perturbed-eps{eps:g}")

