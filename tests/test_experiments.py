import pytest

from cartanlab import experiments
from cartanlab.report import ExperimentConfig

# one model each experiment runs on; flatness twice, for both expectations
SURFACE_RUNS = [
    ("jet-axioms", "pair-R2"),
    ("inversion", "pair-R2"),
    ("lemma-3-3", "pair-R2"),
    ("theorem-3-4", "pair-R2"),
    ("multiplicativity", "pair-R2"),
    ("nabla-compare", "pair-R2"),
    ("flatness", "pair-R2"),
    ("flatness", "isojet-perturbed"),
    ("reconstruct", "pair-R2"),
    ("classical-bridge", "gauge-se2-so2"),
    ("riemannian", "isojet-sphere"),
]

GROUP_KEYS = ("lemma-3-3", "theorem-3-4", "flatness")

# the group key that overrides a check when its own name does not
GROUP_OF = {
    **dict.fromkeys(("kernel-right-product", "difference-element", "conjugation-identity",
                     "translation-difference"), "lemma-3-3"),
    **dict.fromkeys(("kernel-embedding-morphism", "kernel-embedding-inverse",
                     "semidirect-bisection-law", "semidirect-multiplication",
                     "adjoint-is-morphism"), "theorem-3-4"),
    **dict.fromkeys(("curvature-flat", "torsion-involutive"), "flatness"),
}

# checks their own name does not override
GROUP_ONLY = {"curvature-flat", "torsion-involutive"}
FIXED = {"verdict-agreement", "dim-g0", "curvature-nonflat-fraction-below",
         "torsion-noninvolutive-fraction-below", "mismatched-model-curvature-nonzero",
         "flatness-verdict"}


def taken_keys(experiment, model, keys):
    """Run with a distinct sentinel tolerance under each key; map each check
    to the key whose sentinel it took, or None."""
    sentinels = {key: 7.0 + i for i, key in enumerate(keys)}
    report = experiments.run(ExperimentConfig(model=model, experiment=experiment, seed=5,
                                              sample_count=1, tolerances=sentinels))
    by_value = {value: key for key, value in sentinels.items()}
    return {c.name: by_value.get(c.tolerance) for c in report.checks}


@pytest.mark.parametrize("experiment,model", SURFACE_RUNS)
def test_tolerance_override_surface(experiment, model):
    by_group = taken_keys(experiment, model, GROUP_KEYS)
    assert not any(name.startswith("aborted") for name in by_group)
    assert by_group == {name: GROUP_OF.get(name) for name in by_group}
    by_any = taken_keys(experiment, model, [*by_group, *GROUP_KEYS])
    assert by_any == {name: None if name in FIXED else GROUP_OF[name] if name in GROUP_ONLY
                      else name for name in by_group}
