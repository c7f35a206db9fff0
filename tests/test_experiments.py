import dataclasses
import logging

import numpy as np
import pytest

from cartanlab import chartcalc, experiments, jetalg
from cartanlab.chartcalc import WorstErrors
from cartanlab.connection import CartanConnection, infinitesimalize, infinitesimalize_along
from cartanlab.errors import CartanLabError, EscapeError, SamplingError
from cartanlab.groupoid import AffineSection
from cartanlab.jetalg import KernelHom, KernelHoms
from cartanlab.models import MODELS, make_model
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
    count, so a rerun of the samples meets the same poison. Both kernel
    samplers of the experiments draw eagerly through the patch, the stacked
    pass's deferred one too. Returns the points of the clean run's draws."""
    real = experiments.random_kernel_hom
    points = []

    def recording(model, m, rng):
        points.append(np.array(m))
        return real(model, m, rng)

    def patch(sampler):
        for name in ("random_kernel_hom", "deferred_kernel_hom"):
            monkeypatch.setattr(experiments, name, sampler)

    patch(recording)
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

    patch(drawing)
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


# -- nabla-compare: stacked routes against the per-sample loop ------------------

NABLA_CHECKS = ("flow-vs-transport", "direct-vs-flow", "direct-vs-transport",
                "path-independence", "leibniz")


def _nabla_compare_per_sample(model, S, seed, count):
    """run_nabla_compare's worst errors as its per-sample loop computed them
    before the routes were stacked: each sample drawn, then every route on
    that sample alone. Draws go through the experiments module, so a patched
    draw reaches both this loop and the experiment."""
    rng = np.random.default_rng(seed)
    worst = WorstErrors(NABLA_CHECKS)
    nd = infinitesimalize(S, "direct-formula")
    nf = infinitesimalize(S, "flow-formula")
    nt = infinitesimalize(S, "parallel-transport")
    bend = np.full(model.n, 0.3)
    bend[0] = -0.2
    nq = infinitesimalize_along(S, lambda m, v: (lambda t: m + t * v + t * t * bend))
    for _ in range(count):
        m = experiments.sample_base_point(model, rng)
        v = rng.uniform(-1.0, 1.0, size=model.n)
        X = experiments.random_section(model, rng)
        a = nd(m, v, X).vec
        b = nf(m, v, X).vec
        c = nt(m, v, X).vec
        q = nq(m, v, X).vec
        worst.record("flow-vs-transport", b - c)
        worst.record("direct-vs-flow", a - b)
        worst.record("direct-vs-transport", a - c)
        worst.record("path-independence", q - c)
        scale = float(rng.uniform(0.5, 1.5))
        grad = rng.uniform(-0.5, 0.5, size=model.n)

        def fX(mm):
            return (scale + grad @ np.asarray(mm)) * np.asarray(X(mm), dtype=float)

        lhs = nd(m, v, fX).vec
        rhs = (grad @ v) * np.asarray(X(m), dtype=float) + (scale + grad @ m) * a
        worst.record("leibniz", lhs - rhs)
    return dict(worst)


def _model_and_connection(name, jacobians):
    # the fd copy's connection keeps mu_at and its stacked form
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    return model, S


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_nabla_compare_equals_its_per_sample_loop(name, jacobians):
    model, S = _model_and_connection(name, jacobians)
    config = ExperimentConfig(model=name, experiment="nabla-compare", seed=71)
    checks = experiments.run_nabla_compare(model, S, config, 3)
    assert {c.name: c.max_error for c in checks} == _nabla_compare_per_sample(model, S, 71, 3)


@dataclasses.dataclass(frozen=True)
class _PoisonedSection(AffineSection):
    """A drawn section that, where how is set, has NaN values or raises
    EscapeError naming the first point it is read at. Its family reads each
    row through its own section, so the poison follows the sample into any
    stack."""

    how: str = ""

    def many(self, P):
        out = AffineSection.many(self, P)
        if self.how == "escape":
            raise EscapeError(f"poisoned section read at {np.asarray(P)[0]}")
        return np.full_like(out, np.nan) if self.how == "nan" else out

    @staticmethod
    def stack_of(sections):
        def family(P, owner):
            return np.concatenate([sections[a].many(P[r:r + 1]) for r, a in enumerate(owner)])

        return family


NABLA_ABORT = ExperimentConfig(model="se2-action", experiment="nabla-compare", seed=9,
                               sample_count=6)


def _poisoned_sections(monkeypatch, poison):
    """Patch nabla-compare's section draws so that the section of draw a of
    a clean run of NABLA_ABORT does poison[a]. Keyed on the drawn
    coefficients, not on a call count, so a rerun of the samples meets the
    same poison."""
    real = experiments.random_section
    drawn = []

    def recording(model, rng):
        X = real(model, rng)
        drawn.append(X.c0.tobytes())
        return X

    monkeypatch.setattr(experiments, "random_section", recording)
    assert not experiments.run(NABLA_ABORT).checks[0].name.startswith("aborted")
    poisoned = {drawn[a]: how for a, how in poison.items()}

    def drawing(model, rng):
        X = real(model, rng)
        return _PoisonedSection(X.frame, X.c0, X.c1, poisoned.get(X.c0.tobytes(), ""))

    monkeypatch.setattr(experiments, "random_section", drawing)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("poison", [{2: "nan", 4: "escape"}, {2: "escape", 4: "nan"},
                                    {4: "nan"}],
                         ids=["nan-first", "escape-first", "nan-late"])
def test_a_nabla_compare_abort_names_what_the_per_sample_loop_meets_first(poison):
    # a NaN section passes the direct route, and the flow route's second
    # stage meets the NaN arrow its first stage made; an escaping section
    # raises in the direct route. Either way the stacked routes fail on a
    # stack whose error names other rows, and the rerun of
    # draw_then_evaluate ends as the per-sample loop does
    with pytest.MonkeyPatch.context() as monkeypatch:
        _poisoned_sections(monkeypatch, poison)
        model, S = make_model(NABLA_ABORT.model)
        with pytest.raises(CartanLabError) as first:
            _nabla_compare_per_sample(model, S, NABLA_ABORT.seed, NABLA_ABORT.sample_count)
        aborted = experiments.run(NABLA_ABORT).checks
    assert [(c.name, c.detail) for c in aborted] == [
        (f"aborted[{type(first.value).__name__}]", str(first.value))]
    assert type(first.value).__name__ == {"escape": "EscapeError",
                                          "nan": "CompositionError"}[poison[min(poison)]]


# -- jet experiments: stacked kernel draws against the per-sample loop ---------

JET_EXPERIMENTS = ("jet-axioms", "inversion", "lemma-3-3", "theorem-3-4")
JET_MODELS = ("pair-R2", "se2-action", "gauge-se2-so2", "isojet-sphere")


def _run_recording_draws(experiment, model, S, config, per_sample):
    """The (name, max_error) of each check of one jet experiment and, per
    draw_then_evaluate call, the stacked fields its evaluate got. per_sample
    runs the per-sample loop instead: each sample drawn by replay, the draw
    that decides every kernel element as it goes, and evaluated alone."""
    calls = []

    def draw_then_evaluate(rng, count, draw, evaluate, replay=None):
        calls.append([])

        def recorded(*fields):
            calls[-1].append(fields)
            evaluate(*fields)

        if not per_sample:
            chartcalc.draw_then_evaluate(rng, count, draw, recorded, replay)
            return
        for _ in range(count):
            recorded(*chartcalc._stacked_fields([(replay or draw)()]))

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(experiments, "draw_then_evaluate", draw_then_evaluate)
        checks = experiments.EXPERIMENTS[experiment](model, S, config, config.sample_count)
    return [(c.name, c.max_error) for c in checks], calls


def _field_bytes(field) -> list[bytes]:
    """A stacked field as bytes, row by row; a KernelHoms as its points and
    its matrices."""
    if isinstance(field, KernelHoms):
        return [m.tobytes() + phi.tobytes() for m, phi in zip(field.m, field.phi)]
    return [row.tobytes() for row in np.asarray(field)]


@pytest.mark.parametrize("floor", [None, 0.8], ids=["floor", "high-floor"])
@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", JET_MODELS)
@pytest.mark.parametrize("experiment", JET_EXPERIMENTS)
def test_stacked_kernel_draws_equal_the_per_sample_loop(experiment, name, jacobians, floor,
                                                        monkeypatch, caplog):
    # a floor of 0.8 rejects about a third of the candidates, so nearly every
    # stack of deferred draws is refused and replayed; row a of every stacked
    # field, kernel elements included, and every report value equal the
    # per-sample loop's bit for bit, at the shipped floor too
    if floor is not None:
        monkeypatch.setattr(jetalg, "KERNEL_MIN_DET", floor)
    model, S = _model_and_connection(name, jacobians)
    config = ExperimentConfig(model=name, experiment=experiment, seed=29, sample_count=4)
    with caplog.at_level(logging.DEBUG, logger="cartanlab.jetalg"):
        checks, calls = _run_recording_draws(experiment, model, S, config, per_sample=False)
    rejected = sum(r.msg.startswith("resampling") for r in caplog.records)
    looped, looped_calls = _run_recording_draws(experiment, model, S, config, per_sample=True)
    assert checks == looped
    assert not any(c.startswith("aborted") for c, _ in checks)
    assert [len(call) for call in calls] == [1] * len(calls)
    for (stacked,), singles in zip(calls, looped_calls, strict=True):
        for a, field in enumerate(stacked):
            assert _field_bytes(field) == [row for one in singles
                                           for row in _field_bytes(one[a])]
    if floor is not None:
        assert rejected > 0
