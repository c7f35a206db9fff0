import dataclasses

import numpy as np
import pytest

from cartanlab import groupoid, jetalg
from cartanlab.models import make_model

CORE_MODELS = ["pair-R2", "translation-R2", "se2-action", "so3-sphere",
               "gauge-se2-so2", "isojet-sphere"]

FLAT_MODELS = ["pair-R2", "translation-R2", "se2-action", "so3-sphere",
               "gauge-se2-so2", "isojet-plane", "isojet-sphere",
               "isojet-hyperbolic"]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def zoo():
    """Session-shared instances of every registered model with its connection."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = make_model(name)
        return cache[name]

    return get


def turned_kernel_bases(monkeypatch):
    """Plant reference bases that turn with the point, so that aligned frames
    at different points differ, as on a chart where Tsrc varies: each basis
    of kernel_bases is rotated in the plane of its first two columns (scaled,
    for rank 1) by an angle set by the point, row by row."""
    kernel_bases = groupoid.kernel_bases

    def turned(model, M):
        out = []
        for E, m in zip(kernel_bases(model, M), np.asarray(M, dtype=float)):
            E, angle = np.array(E), 0.3 * float(np.sum(m))
            if E.shape[1] == 1:
                E *= 1.0 + angle
            else:
                c, s = np.cos(angle), np.sin(angle)
                E[:, :2] = E[:, :2] @ np.array([[c, -s], [s, c]])
            out.append(E)
        return np.array(out)

    monkeypatch.setattr(groupoid, "kernel_bases", turned)


def counting_chart_maps(model):
    """A copy of model whose chart maps (src, tgt, unit: eval, eval_many and
    jacobian), stacked structure maps and place_many count their calls in
    the returned dict, by name."""
    calls = {}

    def counted(name, fn):
        calls[name] = 0

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    charts = {name: dataclasses.replace(
        cm, eval=counted(f"{name}.eval", cm.eval),
        eval_many=cm.eval_many and counted(f"{name}.eval_many", cm.eval_many),
        jacobian=cm.jacobian and counted(f"{name}.jacobian", cm.jacobian))
        for name, cm in ((name, getattr(model, name)) for name in ("src", "tgt", "unit"))}
    maps = {name: counted(name, getattr(model, name))
            for name in ("mul_many", "inv_many", "retract_src_many", "retract_tgt_many",
                         "place_many")}
    return dataclasses.replace(model, **charts, **maps), calls


class EagerDraws:
    """The per-sample reference a draw closure's stacked pass is compared
    against: arrow(rng), composable(rng), arrow_at(m, rng) and
    kernel_hom(m, rng), each element decided as it is drawn, through the
    model's batch-of-one draws and jetalg.random_kernel_hom.
    groupoid.DeferredDraws is their stacked form."""

    def __init__(self, model):
        self.model = model

    def arrow(self, rng):
        return self.model.sample_arrow(rng)

    def arrow_at(self, m, rng):
        return groupoid.arrow_at(self.model, m, rng)

    def composable(self, rng):
        return self.model.sample_composable(rng)

    def kernel_hom(self, m, rng):
        return jetalg.random_kernel_hom(self.model, m, rng)
