"""Model zoo registry: named constructors for every shipped groupoid model
with its canonical connection."""

import inspect
import sys

import numpy as np

from ..errors import ConfigError
from .actions import (
    make_action_groupoid,
    make_se2_groupoid,
    make_so3_sphere_groupoid,
    make_translation_groupoid,
)
from .classical import (
    ClassicalCartan,
    classical_curvature,
    classical_curvature_parallel_frame,
    classical_invariants,
    classical_to_groupoid,
    nabla_omega,
    rebuild_classical,
    recover_omega,
    se2_maurer_cartan,
    se2_v_bracket,
    so3_v_bracket,
)
from .isojet import isometry_matrix, make_isometry_jet_groupoid, prolongation_jet
from .metrics import (
    euclidean_metric,
    hyperbolic_metric,
    perturbed_metric,
    sphere_metric,
)
from .pair import make_pair_groupoid

PERTURBED_BOX = np.array([[0.15, 0.95], [-0.4, 0.4]])


def _make_perturbed(eps=0.4):
    if type(eps) not in (int, float) or not abs(eps) <= sys.float_info.max:  # a bool is no number
        raise ConfigError(f"isojet-perturbed: eps must be a finite real number, not {eps!r}")
    return make_isometry_jet_groupoid(perturbed_metric(float(eps)), base_box=PERTURBED_BOX)


# each constructor's keyword parameters are the model's parameters
MODELS = {
    "pair-R2": lambda: make_pair_groupoid(np.array([[-1.0, 1.0], [-1.0, 1.0]])),
    "pair-R1": lambda: make_pair_groupoid(np.array([[-1.0, 1.0]])),
    "translation-R2": lambda: make_translation_groupoid(2),
    "se2-action": make_se2_groupoid,
    "so3-sphere": make_so3_sphere_groupoid,
    "gauge-se2-so2": lambda: classical_to_groupoid(se2_maurer_cartan()),
    "isojet-plane": lambda: make_isometry_jet_groupoid(euclidean_metric()),
    "isojet-sphere": lambda: make_isometry_jet_groupoid(sphere_metric()),
    "isojet-hyperbolic": lambda: make_isometry_jet_groupoid(hyperbolic_metric()),
    "isojet-perturbed": _make_perturbed,
}

# whether the shipped connection's induced algebroid connection is flat (and
# its horizontal field involutive)
EXPECTED_FLAT = {
    "pair-R2": True,
    "pair-R1": True,
    "translation-R2": True,
    "se2-action": True,
    "so3-sphere": True,
    "gauge-se2-so2": True,
    "isojet-plane": True,
    "isojet-sphere": True,
    "isojet-hyperbolic": True,
    "isojet-perturbed": False,
}


def make_model(name: str, params: dict | None = None):
    """Instantiate a registered model with its canonical connection. Raises
    ConfigError for a parameter the model does not read or a value it cannot
    take."""
    if name not in MODELS:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODELS)}")
    params = params or {}
    unknown = [key for key in params if key not in inspect.signature(MODELS[name]).parameters]
    if unknown:
        raise ConfigError(f"model {name} reads no parameter {unknown[0]!r}")
    return MODELS[name](**params)


__all__ = [
    "MODELS", "EXPECTED_FLAT", "make_model", "make_pair_groupoid",
    "make_translation_groupoid", "make_se2_groupoid", "make_so3_sphere_groupoid",
    "make_action_groupoid", "make_isometry_jet_groupoid", "isometry_matrix",
    "prolongation_jet", "euclidean_metric", "sphere_metric", "hyperbolic_metric",
    "perturbed_metric", "ClassicalCartan", "se2_maurer_cartan",
    "classical_to_groupoid", "recover_omega", "rebuild_classical", "nabla_omega",
    "classical_curvature", "classical_curvature_parallel_frame",
    "classical_invariants", "se2_v_bracket", "so3_v_bracket", "PERTURBED_BOX",
]
