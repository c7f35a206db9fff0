import dataclasses
import logging
import sys

import numpy as np
import pytest

from cartanlab import chartcalc, experiments, groupoid, jetalg
from cartanlab.chartcalc import WorstErrors, jacobian_fd
from cartanlab.connection import CartanConnection, infinitesimalize, infinitesimalize_along
from cartanlab.errors import CartanLabError, EscapeError, NotABisectionError, SamplingError
from cartanlab.groupoid import (
    AffineSection,
    aligned_frame,
    algebroid_bracket,
    bisection_family,
    compose_families,
    extend_bisection,
    jet_distance,
    oracle_jet,
    oracle_jet_mul,
)
from cartanlab.jetalg import (
    KernelHom,
    KernelHoms,
    assemble_bisections,
    aut_mul_many,
    kernel_section_pushforwards,
)
from cartanlab.models import MODELS, make_model
from cartanlab.models.isojet import chol2, prolongation_jets
from cartanlab.models.rotations import rot2
from cartanlab.report import ExperimentConfig

from conftest import EagerDraws, counting_chart_maps

# the modules whose functions run sampled blocks, by module: the package's
# curvature attribute is the function of that name
BLOCK_MODULES = tuple(sys.modules[f"cartanlab.{name}"]
                      for name in ("experiments", "groupoid", "connection", "curvature"))

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
    """Patch the kernel stacks (KernelDraw.stack_of) so that the element at
    the point of draw a of a clean run of config does poison[a]: "nan" makes
    it all-NaN, so evaluating that sample raises; "shift" bases it
    elsewhere, so assembling its jet raises earlier in the evaluation;
    "raise" raises in the draws, as its stack resolves. Keyed on the point,
    not on a row, so a rerun of the samples meets the same poison. Returns
    the points of the clean run's draws."""
    real = jetalg.KernelDraw.stack_of
    points = []

    def recording(draws):
        homs = real(draws)
        points.extend(homs.m)
        return homs

    monkeypatch.setattr(jetalg.KernelDraw, "stack_of", staticmethod(recording))
    assert not experiments.run(config).checks[0].name.startswith("aborted")
    poisoned = [(points[a], how) for a, how in poison.items()]

    def poisoning(draws):
        homs = real(draws)
        m, phi = homs.m.copy(), homs.phi.copy()
        for a, p in enumerate(homs.m):
            how = next((how for q, how in poisoned if np.array_equal(q, p)), None)
            if how == "raise":
                raise SamplingError(f"draw at {p}")
            if how == "nan":
                phi[a] = np.nan
            if how == "shift":
                m[a] = p + 1.0
        return KernelHoms(homs.model, m, phi)

    monkeypatch.setattr(jetalg.KernelDraw, "stack_of", staticmethod(poisoning))
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


def _patch_blocks(monkeypatch, block):
    """Route every sampled block through block(rng, evaluate, run, loop):
    run(evaluate) runs the block as the library does, with evaluate in
    place of its own, and loop() yields the stacked fields of each sample
    as the per-sample loop draws it, alone and in turn, through EagerDraws
    where the block draws through a sampler. The blocks are the calls of
    draw_then_evaluate and draw_samples_then_evaluate, patched in every
    module that makes them."""
    plain, sampled = chartcalc.draw_then_evaluate, groupoid.draw_samples_then_evaluate

    def plain_block(rng, count, draw, evaluate):
        block(rng, evaluate, lambda ev: plain(rng, count, draw, ev),
              lambda: (chartcalc.stacked_fields([draw()]) for _ in range(count)))

    def sampled_block(model, rng, count, draw, evaluate):
        block(rng, evaluate, lambda ev: sampled(model, rng, count, draw, ev),
              lambda: (chartcalc.stacked_fields([draw(EagerDraws(model))])
                       for _ in range(count)))

    for module in BLOCK_MODULES:
        for name, patched in (("draw_then_evaluate", plain_block),
                              ("draw_samples_then_evaluate", sampled_block)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, patched)


def _run_recording_draws(experiment, model, S, config, per_sample):
    """The (name, max_error) of each check of one jet experiment and, per
    sampled block, the stacked fields its evaluate got. per_sample runs the
    per-sample loop instead: each sample drawn alone, every kernel element
    decided as it is drawn, and evaluated alone."""
    calls = []

    def block(rng, evaluate, run, loop):
        calls.append([])

        def recorded(*fields):
            calls[-1].append(fields)
            evaluate(*fields)

        if not per_sample:
            run(recorded)
            return
        for fields in loop():
            recorded(*fields)

    with pytest.MonkeyPatch.context() as monkeypatch:
        _patch_blocks(monkeypatch, block)
        checks = experiments.EXPERIMENTS[experiment](model, S, config, config.sample_count)
    return [(c.name, c.max_error) for c in checks], calls


def _field_bytes(field) -> list[bytes]:
    """A stacked field as bytes, row by row; a KernelHoms as its points and
    its matrices, a family of drawn sections (AffineSection.stack_of, as
    jet-axioms' bracket block draws them) as their affine coefficients."""
    if isinstance(field, KernelHoms):
        return [m.tobytes() + phi.tobytes() for m, phi in zip(field.m, field.phi)]
    if hasattr(field, "sections"):
        return [X.c0.tobytes() + X.c1.tobytes() for X in field.sections]
    return [row.tobytes() for row in np.asarray(field)]


@pytest.mark.parametrize("floor", [None, 0.8], ids=["floor", "high-floor"])
@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", JET_MODELS)
@pytest.mark.parametrize("experiment", JET_EXPERIMENTS)
def test_stacked_kernel_draws_equal_the_per_sample_loop(experiment, name, jacobians, floor,
                                                        monkeypatch, caplog):
    # a floor of 0.8 rejects about a third of the candidates, so nearly every
    # stack of deferred draws is refused and drawn again, its refused samples
    # settled as they are drawn; row a of every stacked
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


# -- jet-axioms' bracket block: one stacked bracket call against the loop ------

BRACKET_CHECKS = ("anchor-bracket-homomorphism", "bracket-antisymmetry")


def _bracket_block_per_sample(model, rng, count):
    """jet-axioms' bracket block as its per-sample loop computed it: each
    sample drawn, then [X, Y], one jacobian_fd of each anchored section and
    [X, X] on that sample alone."""
    worst = WorstErrors(BRACKET_CHECKS)
    for _ in range(count):
        X = experiments.random_section(model, rng)
        Y = experiments.random_section(model, rng)
        m = experiments.sample_base_point(model, rng)
        bracket = algebroid_bracket(model, X, Y, m)
        lhs = model.Ttgt(model.unit(m)) @ bracket.vec

        def anchored(sec):
            return lambda mm: model.Ttgt(model.unit(mm)) @ np.asarray(sec(mm), dtype=float)

        Xa, Ya = anchored(X), anchored(Y)
        rhs = jacobian_fd(Ya, m) @ Xa(m) - jacobian_fd(Xa, m) @ Ya(m)
        worst.record("anchor-bracket-homomorphism", lhs - rhs)
        worst.record("bracket-antisymmetry", algebroid_bracket(model, X, X, m).vec)
    return dict(worst)


def _recording_rng_states(monkeypatch):
    """Patch the sampled blocks to record the rng state each starts from;
    jet-axioms' bracket block is its last. Returns the list the states go
    to."""
    states = []

    def recording(rng, evaluate, run, loop):
        states.append(rng.bit_generator.state)
        run(evaluate)

    _patch_blocks(monkeypatch, recording)
    return states


def _generator_at(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_jet_axioms_brackets_equal_the_per_sample_loop(name, jacobians, monkeypatch):
    model, S = _model_and_connection(name, jacobians)
    config = ExperimentConfig(model=name, experiment="jet-axioms", seed=37)
    states = _recording_rng_states(monkeypatch)
    checks = {c.name: c.max_error for c in experiments.run_jet_axioms(model, S, config, 4)}
    looped = _bracket_block_per_sample(model, _generator_at(states[-1]), 5)
    assert {name: checks[name] for name in BRACKET_CHECKS} == looped


def test_jet_axioms_makes_as_many_right_invariant_calls_whatever_the_count(monkeypatch):
    # 5 and 10 bracket samples: the stacked brackets' two calls either way
    model, S = make_model("se2-action")
    config = ExperimentConfig(model="se2-action", experiment="jet-axioms", seed=37)
    real = groupoid.right_invariant_many
    calls = []

    def counting(*args):
        calls.append(len(args[2]))
        return real(*args)

    monkeypatch.setattr(groupoid, "right_invariant_many", counting)
    made = []
    for count in (4, 40):
        del calls[:]
        experiments.run_jet_axioms(model, S, config, count)
        made.append(list(calls))
    assert made == [[4 * 5, 8 * 5], [4 * 10, 8 * 10]]


JET_AXIOMS_ABORT = ExperimentConfig(model="se2-action", experiment="jet-axioms", seed=13,
                                    sample_count=24)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("poison", [{1: "nan", 4: "raise"}, {1: "raise", 4: "nan"},
                                    {4: "nan"}], ids=["nan-first", "raise-first", "nan-late"])
def test_a_jet_axioms_bracket_abort_names_what_the_per_sample_loop_meets_first(poison,
                                                                                 monkeypatch):
    # a NaN base point fails the sample's bracket in the evaluation, after
    # every draw; a raising draw fails in the draws. Keyed on the drawn
    # point, so a rerun of the samples meets the same poison
    real = experiments.sample_base_point
    points = []

    def recording(model, rng):
        points.append(real(model, rng))
        return points[-1]

    monkeypatch.setattr(experiments, "sample_base_point", recording)
    assert not experiments.run(JET_AXIOMS_ABORT).checks[0].name.startswith("aborted")
    poisoned = [(points[a], how) for a, how in poison.items()]

    def drawing(model, rng):
        m = real(model, rng)
        how = next((how for p, how in poisoned if np.array_equal(p, m)), None)
        if how == "raise":
            raise SamplingError(f"draw at {m}")
        return np.full_like(m, np.nan) if how == "nan" else m

    monkeypatch.setattr(experiments, "sample_base_point", drawing)
    states = _recording_rng_states(monkeypatch)
    aborted = experiments.run(JET_AXIOMS_ABORT).checks
    model, _ = make_model(JET_AXIOMS_ABORT.model)
    with pytest.raises(CartanLabError) as first:
        _bracket_block_per_sample(model, _generator_at(states[-1]), len(points))
    assert [(c.name, c.detail) for c in aborted] == [
        (f"aborted[{type(first.value).__name__}]", str(first.value))]
    assert type(first.value).__name__ == {"raise": "SamplingError",
                                          "nan": "CompositionError"}[poison[min(poison)]]


# -- theorem-3-4's semidirect block: stacked families against the loop --------

SEMIDIRECT = "semidirect-bisection-law"


def _semidirect_per_sample(model, S, rng, count):
    """theorem-3-4's semidirect block as its per-sample loop computed it
    before the bisections were stacked: each sample drawn, then its two
    bisections of the jet groupoid assembled and multiplied on that sample
    alone, through the stacked forms on one-row stacks, each kernel section
    read point by point. Base points are drawn through the experiments
    module, so a patched draw reaches both this loop and the experiment."""
    worst = WorstErrors((SEMIDIRECT,))
    for _ in range(count):
        g1, g2 = model.sample_composable(rng)
        b1 = bisection_family(model, extend_bisection(model, S.jet(g1)))
        b2 = bisection_family(model, extend_bisection(model, S.jet(g2)))

        def kernel_section(seed_rng):
            ref = experiments.sample_base_point(model, seed_rng)
            frame = aligned_frame(model, ref)
            C0 = seed_rng.uniform(-0.3, 0.3, size=(frame.rank, model.n))
            C1 = seed_rng.uniform(-0.3, 0.3, size=(frame.rank, model.n))

            def Phi(P, _):  # a family of one, row by row
                return KernelHoms.of([KernelHom(model, mm, frame(mm) @ (C0 + C1 * mm[0]))
                                      for mm in np.asarray(P, dtype=float)])

            return Phi

        Phi1 = kernel_section(rng)
        Phi2 = kernel_section(rng)
        m = g2.source[None]
        j2 = assemble_bisections(model, b2, Phi2)(m)
        j1 = assemble_bisections(model, b1, Phi1)(j2.target)
        lhs = oracle_jet_mul(model, j1[0], j2[0])
        pushed = kernel_section_pushforwards(model, b1, Phi2)

        def Phi12(P, owner):
            return aut_mul_many(Phi1(P, owner), pushed(P, owner))

        rhs = assemble_bisections(model, compose_families(model, b1, b2), Phi12)(m)
        worst.record(SEMIDIRECT, jet_distance(lhs, rhs[0]))
    return worst[SEMIDIRECT]


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_theorem_3_4_semidirect_equals_the_per_sample_loop(name, jacobians, monkeypatch):
    # count 16 draws 4 semidirect samples; the block is theorem-3-4's second
    # sampled block, and it leaves the rng where the loop does
    model, S = _model_and_connection(name, jacobians)
    config = ExperimentConfig(model=name, experiment="theorem-3-4", seed=47)
    states = _recording_rng_states(monkeypatch)
    checks = {c.name: c.max_error for c in experiments.run_theorem_3_4(model, S, config, 16)}
    rng = _generator_at(states[1])
    assert checks[SEMIDIRECT] == _semidirect_per_sample(model, S, rng, 4)
    assert rng.bit_generator.state == states[2]


def test_semidirect_block_makes_a_fixed_number_of_calls(monkeypatch):
    # 3 and 12 samples: five oracle_jets calls (the two factors, their
    # product, the product bisection's jets and the pushed section's jets),
    # one Newton solve, one mu_many per bisection family and one
    # aligned_frames per kernel-section family, each over every sample
    model, S = make_model("se2-action")
    config = ExperimentConfig(model="se2-action", experiment="theorem-3-4", seed=47)
    calls = {}

    def counted(key, real, points):  # records the length of argument points
        def call(*args):
            calls.setdefault(key, []).append(len(args[points]))
            return real(*args)
        return call

    for module, name, points in [(groupoid, "oracle_jets_and_refusals", 2),
                                 (jetalg, "newton_solve_many", 2),
                                 (groupoid, "newton_solve_many", 2),
                                 (jetalg, "aligned_frames", 1)]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name), points))

    def mu_many(G):
        calls.setdefault("mu_many", []).append(len(G))
        return S.mu_many(G)

    counted_S = CartanConnection(model, chartcalc.batch_of_one(mu_many), name=S.name)
    blocks = []

    def recording(rng, evaluate, run, loop):
        calls.clear()
        run(evaluate)
        blocks.append(dict(calls))

    _patch_blocks(monkeypatch, recording)
    for count, k in ((12, 3), (48, 12)):
        del blocks[:]
        experiments.run_theorem_3_4(model, counted_S, config, count)
        assert blocks[1] == {"oracle_jets_and_refusals": [k] * 5, "newton_solve_many": [k],
                             "mu_many": [k, k], "aligned_frames": [k, k]}


THEOREM_ABORT = ExperimentConfig(model="se2-action", experiment="theorem-3-4", seed=13,
                                 sample_count=24)


def _semidirect_draws(monkeypatch, model, S):
    """The stacked fields of the semidirect block of a clean THEOREM_ABORT
    run, and the points its one Newton solve starts from, sample by sample."""
    starts = []
    real = jetalg.newton_solve_many

    def recording(func_many, Y, X0, start, tol):
        starts.extend(X0[start])
        return real(func_many, Y, X0, start, tol)

    with monkeypatch.context() as patched:
        patched.setattr(jetalg, "newton_solve_many", recording)
        checks, calls = _run_recording_draws("theorem-3-4", model, S, THEOREM_ABORT, False)
    assert not checks[0][0].startswith("aborted")
    [fields] = calls[1]
    return fields, starts


def _poisoned_semidirect(monkeypatch, poison):
    """A copy of THEOREM_ABORT's model and a connection on it with sample a of
    its semidirect block poisoned as poison[a] says: "raise" raises
    SamplingError where the sample's first arrow is placed at the second's
    target (place_many, which the deferred draws call); "nan" makes the jet at its first arrow NaN;
    "stall" makes the base map of its Newton solve NaN, so the solve does
    not converge. Keyed on the drawn arrows and the Newton starts, not on a
    call count, so a rerun of the samples meets the same poison."""
    clean, S = make_model(THEOREM_ABORT.model)
    (G1, G2, *_), starts = _semidirect_draws(monkeypatch, clean, S)
    rows = {how: [x[a] for a, kind in poison.items() if kind == how]
            for how, x in (("raise", clean.tgt.many(G2)), ("nan", G1), ("stall", starts))}

    def poisoned(X, how):  # which rows of X are poisoned rows of that kind
        return np.array([any(np.array_equal(x, p) for p in rows[how]) for x in X], dtype=bool)

    def placing(F, M):
        hit = poisoned(M, "raise")
        if hit.any():
            raise SamplingError(f"draw at {M[hit][0]}")
        return clean.place_many(F, M)

    model = dataclasses.replace(clean, place_many=placing)

    def mu_many(G):
        mu = np.array(S.mu_many(G))
        mu[poisoned(G, "nan")] = np.nan
        return mu

    newton_solve_many = jetalg.newton_solve_many

    def stalling(func_many, Y, X0, start, tol):
        stalled = poisoned(X0, "stall")

        def func(P, owner):
            out = np.array(func_many(P, owner))
            out[stalled[owner]] = np.nan
            return out

        return newton_solve_many(func, Y, X0, start, tol)

    monkeypatch.setattr(jetalg, "newton_solve_many", stalling)
    return model, CartanConnection(model, chartcalc.batch_of_one(mu_many), name=S.name)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("poison", [{2: "raise"}, {1: "nan", 2: "raise"},
                                    {1: "nan", 3: "stall"}, {1: "stall", 3: "nan"},
                                    {3: "nan"}],
                         ids=["raise", "nan-then-raise", "nan-then-stall", "stall-then-nan",
                              "nan-late"])
def test_a_semidirect_abort_names_what_the_per_sample_loop_meets_first(poison, monkeypatch):
    # a raising draw fails in the draws, before any sample is evaluated; a
    # NaN jet fails the oracle at the sample's first factor, and a stalled
    # Newton solve fails at its pushed section, after every oracle product.
    # So the stacked block meets "stall-then-nan"'s NaN first and
    # "nan-then-raise"'s raise first; the rerun of draw_then_evaluate ends as
    # the per-sample loop does, and a NaN jet never passes
    model, S = _poisoned_semidirect(monkeypatch, poison)
    monkeypatch.setattr(experiments, "make_model", lambda *_: (model, S))
    states = _recording_rng_states(monkeypatch)
    aborted = experiments.run(THEOREM_ABORT).checks
    with pytest.raises(CartanLabError) as first:
        _semidirect_per_sample(model, S, _generator_at(states[1]), 6)
    assert [(c.name, c.detail) for c in aborted] == [
        (f"aborted[{type(first.value).__name__}]", str(first.value))]
    assert type(first.value).__name__ == {"raise": "SamplingError", "nan": "NotABisectionError",
                                          "stall": "NonFiniteError"}[poison[min(poison)]]


# -- riemannian: stacked isometry, residual and compatibility against the loop --

RIEMANNIAN_CHECKS = ("chart-isometry", "prolongation-residual", "jet-metric-compatibility")
ISOJET_MODELS = sorted(name for name in MODELS if name.startswith("isojet"))


def _riemannian_per_sample(model, S, seed, count):
    """run_riemannian's first three checks as its per-sample loop computed
    them before they were stacked: each arrow drawn, then its isometry
    matrix (the one-arrow formula), its prolongation residual (from the
    stacked jets on a one-row stack) and the oracle jet of its extension on
    that arrow alone; a jet the oracle refuses reads +inf."""
    metric = model.extras["metric"]
    rng = np.random.default_rng(seed)
    worst = WorstErrors(RIEMANNIAN_CHECKS)
    for _ in range(count):
        g = model.sample_arrow(rng)
        m, mp, theta = g.coords[:2], g.coords[2:4], g.coords[4]
        A = np.linalg.solve(chol2(metric(mp)).T, rot2(theta) @ chol2(metric(m)).T)
        worst.record("chart-isometry", A.T @ metric(mp) @ A - metric(m))
        mu, dA_theta, rhs = prolongation_jets(metric, g.coords[None])
        worst.record("prolongation-residual", rhs[0] - mu[0, 4, :, None, None] * dA_theta[0])
        b = extend_bisection(model, S.jet(g))
        try:
            j = oracle_jet(model, b, g.source)
        except NotABisectionError:
            worst.record("jet-metric-compatibility", np.inf)
            continue
        Tphi = model.Ttgt(j.g.coords) @ j.mu
        worst.record("jet-metric-compatibility",
                     Tphi.T @ metric(j.g.target) @ Tphi - metric(j.g.source))
    return dict(worst)


def _riemannian_checks(model, S, seed, count):
    config = ExperimentConfig(model=model.name, experiment="riemannian", seed=seed)
    checks = {c.name: c.max_error for c in experiments.run_riemannian(model, S, config, count)}
    return {name: checks[name] for name in RIEMANNIAN_CHECKS}


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", ISOJET_MODELS)
def test_riemannian_equals_its_per_sample_loop(name, jacobians):
    model, S = _model_and_connection(name, jacobians)
    for seed in (3, 61):
        assert _riemannian_checks(model, S, seed, 7) == _riemannian_per_sample(model, S, seed, 7)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("name", ISOJET_MODELS)
def test_a_riemannian_jet_the_oracle_refuses_reads_inf_for_its_own_sample(name, monkeypatch):
    # sample 2's jet is NaN: the stacked oracle refuses sample 2 alone,
    # which records +inf, as the loop does, with no rerun of the samples
    oracle_rows = []
    real = experiments.oracle_jets_and_refusals

    def counting(model, family, M):
        oracle_rows.append(len(M))
        return real(model, family, M)

    monkeypatch.setattr(experiments, "oracle_jets_and_refusals", counting)
    model, S = make_model(name)
    rng = np.random.default_rng(5)
    arrows = [model.sample_arrow(rng).coords for _ in range(5)]

    def mu_many(G):
        mu = np.array(S.mu_many(G))
        mu[[np.array_equal(g, arrows[2]) for g in G]] = np.nan
        return mu

    nan_S = CartanConnection(model, chartcalc.batch_of_one(mu_many), name=S.name)
    checks = _riemannian_checks(model, nan_S, 5, 5)
    assert oracle_rows == [5]
    assert checks == _riemannian_per_sample(model, nan_S, 5, 5)
    assert checks["jet-metric-compatibility"] == np.inf
    assert checks["chart-isometry"] < 1e-9


# -- deferred arrows: the stacked draws make no structure-map call -------------

DRAWING_EXPERIMENTS = (*JET_EXPERIMENTS, "multiplicativity", "riemannian", "flatness")


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_draw_closures_make_no_structure_map_call(name, monkeypatch):
    # every draw closure of a stacked pass that draws arrows, kernel
    # elements included
    model, calls = counting_chart_maps(make_model(name)[0])
    S = CartanConnection(model, make_model(name)[1].mu_at)
    during_draws = []
    real = groupoid.draw_samples_then_evaluate

    def counting(model, rng, count, draw, evaluate):
        def counted_draw(sample):
            before = sum(calls.values())
            out = draw(sample)
            during_draws.append(sum(calls.values()) - before)
            return out

        real(model, rng, count, counted_draw, evaluate)

    for module in BLOCK_MODULES:
        monkeypatch.setattr(module, "draw_samples_then_evaluate", counting)
    for experiment in DRAWING_EXPERIMENTS:
        if experiment == "riemannian" and "metric" not in model.extras:
            continue
        config = ExperimentConfig(model=name, experiment=experiment, seed=3)
        checks = experiments.EXPERIMENTS[experiment](model, S, config, 4)
        assert not any(c.name.startswith("aborted") for c in checks)
    assert during_draws and not any(during_draws)
