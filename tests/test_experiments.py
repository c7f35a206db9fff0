import numpy as np
import pytest

from cartanlab import experiments
from cartanlab.errors import SamplingError
from cartanlab.jetalg import KernelHom
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


def _poisoned_kernel_draws(monkeypatch, config, poison):
    """Patch the experiments' kernel draws so that the draw at the base point
    of draw a of a clean run of config does poison[a]: "nan" hands out an
    all-NaN element, so evaluating that sample raises; "shift" hands out one
    based elsewhere, so assembling its jet raises earlier in the evaluation;
    "raise" raises in the draw itself. Keyed on the point, not on a call
    count, so a rerun of the samples meets the same poison. Returns the
    points of the clean run's draws."""
    real = experiments.random_kernel_hom
    points = []

    def recording(model, m, rng):
        points.append(np.array(m))
        return real(model, m, rng)

    monkeypatch.setattr(experiments, "random_kernel_hom", recording)
    assert not experiments.run(config).checks[0].name.startswith("aborted")
    poisoned = [(points[a], how) for a, how in poison.items()]

    def drawing(model, m, rng):
        phi = real(model, m, rng)
        how = next((how for p, how in poisoned if np.array_equal(p, m)), None)
        if how == "raise":
            raise SamplingError(f"draw at {m}")
        if how == "nan":
            return KernelHom(model, phi.m, np.full_like(phi.phi, np.nan))
        if how == "shift":
            return KernelHom(model, phi.m + 1.0, phi.phi)
        return phi

    monkeypatch.setattr(experiments, "random_kernel_hom", drawing)
    return points


# inversion draws one kernel element per sample, so draw a is sample a; the
# per-sample loop meets sample 3's failure first, in jet_invert
INVERSION = ExperimentConfig(model="se2-action", experiment="inversion", seed=5,
                             sample_count=12)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_an_abort_names_the_first_sample_that_fails():
    # sample 5 fails in the jet assembly, a step before sample 3's failure:
    # evaluating the whole stack step by step would meet sample 5's first
    with pytest.MonkeyPatch.context() as monkeypatch:
        _poisoned_kernel_draws(monkeypatch, INVERSION, {3: "nan", 5: "shift"})
        aborted = experiments.run(INVERSION).checks
    assert [(c.name, c.detail) for c in aborted] == [
        ("aborted[SingularError]", "jet's TM-action is singular")]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_an_evaluation_failure_comes_before_a_later_draw_failure():
    # drawing every sample first would meet sample 10's draw failure first
    with pytest.MonkeyPatch.context() as monkeypatch:
        _poisoned_kernel_draws(monkeypatch, INVERSION, {3: "nan", 10: "raise"})
        aborted = experiments.run(INVERSION).checks
    assert [(c.name, c.detail) for c in aborted] == [
        ("aborted[SingularError]", "jet's TM-action is singular")]


def test_an_abort_names_its_own_sample_in_the_detail():
    # samples 2 and 4 fail alike; the detail names sample 2's base points
    with pytest.MonkeyPatch.context() as monkeypatch:
        points = _poisoned_kernel_draws(monkeypatch, INVERSION, {2: "shift", 4: "shift"})
        aborted = experiments.run(INVERSION).checks
    m = points[2]
    assert [(c.name, c.detail) for c in aborted] == [
        ("aborted[BaseMismatchError]",
         f"mul_kernel_left: base points differ ({m + 1.0} vs {m})")]
