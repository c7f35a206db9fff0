import dataclasses
import functools
import re

import numpy as np
import pytest
from pytest import raises

from cartanlab import groupoid
from cartanlab.chartcalc import FD_STEP, ChartMap, WorstErrors, jacobian_fd, newton_solve
from cartanlab.errors import (
    CompositionError,
    DomainError,
    FrameError,
    NonFiniteError,
    NotABisectionError,
    SamplingError,
    ToleranceError,
)
from cartanlab.groupoid import (
    DET_TOL,
    SECTION_TOL,
    Jet1,
    algebroid_bracket,
    algebroid_vec,
    aligned_frame,
    anchor,
    AffineSection,
    check_axioms,
    compose_bisections,
    extend_bisection,
    family_rows,
    identity_jet,
    inv_tangent_many,
    jet_distance,
    kernel_basis,
    left_translate_many,
    oracle_jet,
    oracle_jet_inverse,
    oracle_jet_mul,
    random_section,
    right_invariant_many,
    right_translate,
    sample_base_point,
)
from cartanlab.jetalg import random_jet
from cartanlab.models import MODELS, make_model
from cartanlab.models.pair import make_pair_groupoid

from conftest import CORE_MODELS


@pytest.mark.parametrize("name", sorted(MODELS))
def test_axioms_on_seeded_samples(zoo, name):
    model, _ = zoo(name)
    errs = check_axioms(model, np.random.default_rng(42), count=100)
    assert max(errs.values()) <= 1e-10, errs


@pytest.mark.parametrize("name", CORE_MODELS)
def test_inversion_tangent_identity(zoo, name, rng):
    # T I X = anchor(X) - X for algebroid elements
    model, _ = zoo(name)
    for _ in range(10):
        m = sample_base_point(model, rng)
        X = algebroid_vec(model, m, random_section(model, rng)(m), check=False)
        u = model.unit_arrow(m)
        lhs = inv_tangent_many(model, u.coords[None], X.vec[None])[0]
        rhs = model.Tunit(m) @ anchor(model, X) - X.vec
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_left_translation_by_unit_is_identity(zoo, rng):
    model, _ = zoo("se2-action")
    for _ in range(5):
        h = model.sample_arrow(rng)
        g = model.unit_arrow(h.target)
        v = rng.uniform(-1, 1, size=model.N)
        v = v - model.Ttgt(h.coords).T @ np.linalg.solve(
            model.Ttgt(h.coords) @ model.Ttgt(h.coords).T, model.Ttgt(h.coords) @ v)
        out = left_translate_many(model, g.coords[None], h.coords[None], v[None])[0]
        assert np.max(np.abs(out - v)) < 1e-8


def test_right_translation_pair_groupoid_by_hand():
    # at (q, p), v = (a, 0); right multiplication by (q,p)^-1 lands at (q, q)
    # with the same first-slot velocity
    model, _ = make_pair_groupoid(np.array([[-1.0, 1.0]]))
    q, p, a = 0.5, -0.3, 0.7
    at = model.arrow(np.array([q, p]))
    ginv = model.arrow(model.inv(at.coords))
    out = right_translate(model, ginv, at, np.array([a, 0.0]))
    assert np.allclose(out, [a, 0.0], atol=1e-12)
    assert np.allclose(model.mul(at.coords, ginv.coords), [q, q], atol=1e-15)


def test_anchor_zero_and_pair_groupoid(zoo):
    model, _ = zoo("pair-R2")
    m = np.array([0.2, -0.4])
    zero = algebroid_vec(model, m, np.zeros(4))
    assert np.max(np.abs(anchor(model, zero))) == 0.0
    w = np.array([0.3, 0.9])
    X = algebroid_vec(model, m, np.concatenate([w, np.zeros(2)]))
    assert np.allclose(anchor(model, X), w, atol=1e-12)


def test_anchor_kills_isotropy_directions(zoo):
    model, _ = zoo("isojet-sphere")
    m = np.array([0.1, 0.2])
    iso = algebroid_vec(model, m, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    assert np.max(np.abs(anchor(model, iso))) < 1e-9


@pytest.mark.parametrize("name", ["pair-R2", "se2-action"])
def test_bracket_antisymmetry(zoo, name, rng):
    model, _ = zoo(name)
    X = random_section(model, rng)
    m = sample_base_point(model, rng)
    assert np.max(np.abs(algebroid_bracket(model, X, X, m).vec)) < 1e-8


def test_bracket_anchor_homomorphism_pair(zoo, rng):
    from cartanlab.chartcalc import jacobian_fd

    model, _ = zoo("pair-R2")
    for _ in range(5):
        X = random_section(model, rng)
        Y = random_section(model, rng)
        m = sample_base_point(model, rng)
        lhs = model.Ttgt(model.unit(m)) @ algebroid_bracket(model, X, Y, m).vec

        def ax(mm):
            return model.Ttgt(model.unit(mm)) @ X(mm)

        def ay(mm):
            return model.Ttgt(model.unit(mm)) @ Y(mm)

        rhs = jacobian_fd(ay, m) @ ax(m) - jacobian_fd(ax, m) @ ay(m)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_bracket_constant_sections_match_commutator(zoo, rng):
    # on a matrix-group action groupoid the bracket of constant sections is the
    # commutator oracle: matrices [[a J2, u], [0, 0]] in the group chart give
    # [(a1,u1),(a2,u2)] = -(0, a1 J2 u2 - a2 J2 u1) with the right-invariant
    # field convention
    from cartanlab.models.rotations import J2

    model, _ = zoo("se2-action")
    for _ in range(5):
        xi = rng.uniform(-0.8, 0.8, size=3)
        eta = rng.uniform(-0.8, 0.8, size=3)

        def const(val):
            return lambda m: np.concatenate([val, np.zeros(2)])

        m = sample_base_point(model, rng)
        got = algebroid_bracket(model, const(xi), const(eta), m).vec
        commutator = np.concatenate(
            [[0.0], xi[0] * (J2 @ eta[1:]) - eta[0] * (J2 @ xi[1:])])
        expected = np.concatenate([-commutator, np.zeros(2)])
        assert np.max(np.abs(got - expected)) < 1e-8


def test_oracle_jet_unit_bisection(zoo):
    model, _ = zoo("se2-action")
    m = np.array([0.3, -0.2])
    j = oracle_jet(model, lambda x: model.unit(x), m)
    assert jet_distance(j, identity_jet(model, m)) < 1e-10


def test_oracle_jet_affine_pair():
    model, _ = make_pair_groupoid(np.array([[-3.0, 3.0]]))
    j = oracle_jet(model, lambda x: np.array([2.0 * x[0], x[0]]), np.array([1.0]))
    assert np.allclose(j.g.coords, [2.0, 1.0], atol=1e-12)
    assert np.allclose(j.mu, [[2.0], [1.0]], atol=1e-9)


@pytest.mark.parametrize("name", CORE_MODELS)
def test_oracle_jet_extension_roundtrip(zoo, name, rng):
    model, S = zoo(name)
    for _ in range(10):
        g = model.sample_arrow(rng)
        j = random_jet(model, S.jet, g, rng)
        back = oracle_jet(model, extend_bisection(model, j), j.g.source)
        assert jet_distance(back, j) < 1e-8


def test_oracle_jet_rejects_non_bisection(zoo):
    model, _ = zoo("pair-R2")
    with raises(NotABisectionError):
        oracle_jet(model, lambda x: np.concatenate([x, 0.5 * x]), np.array([0.2, 0.1]))


def test_oracle_jet_rejects_a_nan_bisection(zoo):
    # NaN > tol and |NaN| < tol are both False; the oracle must not pass
    # a NaN section off as ground truth
    model, _ = zoo("pair-R2")
    with raises(NotABisectionError):
        oracle_jet(model, lambda x: np.full(4, np.nan), np.array([0.2, 0.1]))


def test_oracle_mul_unit_law_and_hand_composition():
    model, S = make_pair_groupoid(np.array([[-8.0, 8.0]]))
    m = np.array([0.5])
    j1 = oracle_jet(model, lambda x: np.array([3.0 * x[0], x[0]]), np.array([1.0]))
    ident = identity_jet(model, np.array([1.0]))
    assert jet_distance(oracle_jet_mul(model, j1, ident), j1) < 1e-9
    # b1(m) = (3m, m) after b2(m) = (2m, m) composes to m -> (6m, m)
    j2 = oracle_jet(model, lambda x: np.array([2.0 * x[0], x[0]]), m)
    j1b = oracle_jet(model, lambda x: np.array([3.0 * x[0], x[0]]), np.array([2 * m[0]]))
    prod = oracle_jet_mul(model, j1b, j2)
    assert np.allclose(prod.g.coords, [6 * m[0], m[0]], atol=1e-12)
    assert np.allclose(prod.mu, [[6.0], [1.0]], atol=1e-8)


def test_oracle_mul_composability_check(zoo, rng):
    model, S = zoo("se2-action")
    g, h = model.sample_composable(rng)
    j1 = random_jet(model, S.jet, g, rng)
    bad = random_jet(model, S.jet, g, rng)  # same source as j1, not composable
    with raises(CompositionError):
        oracle_jet_mul(model, j1, bad)


@pytest.mark.parametrize("name", ["pair-R2", "se2-action", "isojet-sphere"])
def test_oracle_inverse_law_and_associativity(zoo, name, rng):
    model, S = zoo(name)
    for _ in range(6):
        g, h = model.sample_composable(rng)
        j1 = random_jet(model, S.jet, g, rng)
        j2 = random_jet(model, S.jet, h, rng)
        inv_law = oracle_jet_mul(model, j1, oracle_jet_inverse(model, j1))
        assert jet_distance(inv_law, identity_jet(model, j1.g.target)) < 1e-7
        k = model.arrow(model.arrow_with_source(g.target, rng))
        j0 = random_jet(model, S.jet, k, rng)
        lhs = oracle_jet_mul(model, oracle_jet_mul(model, j0, j1), j2)
        rhs = oracle_jet_mul(model, j0, oracle_jet_mul(model, j1, j2))
        assert jet_distance(lhs, rhs) < 1e-6


def test_sample_composable_raises_after_one_draw_when_arrow_with_source_misses():
    model, _ = make_pair_groupoid(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    draws = [0]

    def misses(m, rng):
        draws[0] += 1
        return model.arrow_with_source(np.asarray(m) + 0.1, rng)

    bad = dataclasses.replace(model, arrow_with_source=misses)
    with raises(SamplingError):
        bad.sample_composable(np.random.default_rng(0))
    assert draws[0] == 1


def test_sample_composable_refuses_a_source_off_by_more_than_its_tolerance():
    # 1e-7 is far above the guard's 1e-12, but within np.allclose's default
    # rtol of 1e-5 times the target coordinates here
    model, _ = make_pair_groupoid(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    bad = dataclasses.replace(
        model, arrow_with_source=lambda m, rng: model.arrow_with_source(m + 1e-7, rng))
    rng = np.random.default_rng(0)
    assert np.all(np.abs(model.sample_arrow(np.random.default_rng(0)).target) > 0.1)
    with raises(SamplingError):
        bad.sample_composable(rng)


def test_axioms_report_nan_product_as_infinite():
    # the 7th stacked mul call is mul(g, h) inside associativity, one row per
    # sample; row 0 is the first sample's. max(worst, nan) would drop it and
    # report 0.0 for every axiom
    model, _ = make_pair_groupoid(np.array([[-1.0, 1.0], [-1.0, 1.0]]))
    calls = [0]

    def mul_many(G, H):
        calls[0] += 1
        out = np.array(model.mul_many(G, H), dtype=float)
        if calls[0] == 7:
            out[0] = np.nan
        return out

    bad = dataclasses.replace(model, mul_many=mul_many)
    errs = check_axioms(bad, np.random.default_rng(0), count=20)
    assert errs["associativity"] == np.inf


def _axioms_one_by_one(model, rng, count):
    """check_axioms as a per-sample loop: each sample drawn, then evaluated
    through the single-point structure maps."""
    errs = WorstErrors(("unit_source_target", "left_unit", "right_unit",
                        "product_source_target", "inverse", "associativity",
                        "retract_identity"))
    bump = errs.record
    for _ in range(count):
        m = sample_base_point(model, rng)
        u = model.unit(m)
        bump("unit_source_target", model.src(u) - m)
        bump("unit_source_target", model.tgt(u) - m)
        g, h = model.sample_composable(rng)
        bump("left_unit", model.mul(g.coords, model.unit(g.source)) - g.coords)
        bump("right_unit", model.mul(model.unit(g.target), g.coords) - g.coords)
        gh = model.arrow(model.mul(g.coords, h.coords))
        bump("product_source_target", gh.source - h.source)
        bump("product_source_target", gh.target - g.target)
        bump("inverse", model.mul(model.inv(g.coords), g.coords) - model.unit(g.source))
        k = model.arrow_with_source(g.target, rng)
        bump("associativity", model.mul(model.mul(k, g.coords), h.coords)
             - model.mul(k, model.mul(g.coords, h.coords)))
        bump("retract_identity", model.retract_src(g.coords, g.source) - g.coords)
        bump("retract_identity", model.retract_tgt(g.coords, g.target) - g.coords)
    return errs


def _raising_at(many, rows, label):
    """The stacked map many, raising DomainError(label at x) at the first row
    x of its first argument that is one of rows."""

    def poisoned(X, *rest):
        for x in np.asarray(X, dtype=float):
            if any(np.array_equal(x, r) for r in rows):
                raise DomainError(f"{label} at {x}")
        return many(X, *rest)

    return poisoned


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_axioms_equal_the_per_sample_loop(name, jacobians):
    model = make_model(name)[0]
    if not jacobians:
        model = model.without_jacobians()
    stacked = check_axioms(model, np.random.default_rng(9), count=6)
    assert stacked == _axioms_one_by_one(model, np.random.default_rng(9), 6)
    # sample 4 fails at its inverse, a step before sample 2 fails at its
    # retraction: evaluating the whole stack step by step would meet sample
    # 4's error first, the per-sample loop meets sample 2's
    rng = np.random.default_rng(9)
    drawn = []
    for _ in range(6):
        sample_base_point(model, rng)
        g, _ = model.sample_composable(rng)
        model.arrow_with_source(g.target, rng)
        drawn.append(g.coords)
    bad = dataclasses.replace(
        model, inv_many=_raising_at(model.inv_many, [drawn[4]], "inverse"),
        retract_src_many=_raising_at(model.retract_src_many, [drawn[2]], "retraction"))
    with raises(DomainError) as per_sample:
        _axioms_one_by_one(bad, np.random.default_rng(9), 6)
    with raises(DomainError) as stacked:
        check_axioms(bad, np.random.default_rng(9), count=6)
    assert str(per_sample.value).startswith("retraction at ")
    assert str(stacked.value) == str(per_sample.value)


def _counting_stacked_maps(model):
    """A copy of model whose stacked structure maps count their calls in
    the returned dict."""
    calls = {}

    def counted(name, many):
        calls[name] = 0

        def wrapped(*args):
            calls[name] += 1
            return many(*args)

        return wrapped

    charts = {name: dataclasses.replace(getattr(model, name), eval_many=counted(
        name, getattr(model, name).eval_many)) for name in ("src", "tgt", "unit")}
    maps = {name: counted(name, getattr(model, name))
            for name in ("mul_many", "inv_many", "retract_src_many", "retract_tgt_many")}
    return dataclasses.replace(model, **charts, **maps), calls


@pytest.mark.parametrize("name", ["pair-R2", "se2-action"])
def test_axioms_make_as_many_stacked_calls_for_any_count(name):
    model, calls = _counting_stacked_maps(make_model(name)[0])
    counts = []
    for count in (1, 5, 17):
        for key in calls:
            calls[key] = 0
        check_axioms(model, np.random.default_rng(3), count=count)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["mul_many"] == 8


def test_a_copy_keeps_the_single_maps_it_is_given():
    # a model writes only stacked maps; a dataclasses.replace copy keeps a
    # single map it is given (a wrapper of the derived one, as a tracer makes,
    # or a map of its own), and derives it again from another stacked map
    model, _ = make_pair_groupoid(np.array([[-1.0, 1.0]]))
    g = np.array([0.3, -0.2])
    wrapped = functools.wraps(model.mul)(lambda a, b: model.mul(a, b))
    assert dataclasses.replace(model, mul=wrapped).mul is wrapped

    def mul(g, h):
        return np.zeros(2)

    own = dataclasses.replace(model, mul=mul)
    assert own.mul is mul and dataclasses.replace(own, name="copy").mul is mul
    negated = dataclasses.replace(model, inv_many=lambda G: -G)
    assert np.array_equal(negated.inv(g), -g)
    assert np.array_equal(model.inv(g), [-0.2, 0.3])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_left_translate_many_retracts_every_probe_in_one_stacked_call(name):
    model, _ = make_model(name)
    model = model.without_jacobians()
    calls = {"many": 0, "single": 0}

    def many(G, M):
        calls["many"] += 1
        return model.retract_tgt_many(G, M)

    def single(g, m):
        calls["single"] += 1
        return model.retract_tgt(g, m)

    counted = dataclasses.replace(model, retract_tgt_many=many, retract_tgt=single)
    rng = np.random.default_rng(41)
    pairs = [model.sample_composable(rng) for _ in range(3)]
    G, AT = (np.array([pair[i].coords for pair in pairs]) for i in (0, 1))
    V = rng.uniform(-1, 1, size=(3, model.N))
    out = left_translate_many(counted, G, AT, V)
    assert calls == {"many": 1, "single": 0}
    assert np.array_equal(out, left_translate_many(model, G, AT, V))


def test_frame_cache_skips_projection_at_new_points(zoo, monkeypatch):
    # the frame depends on the point only through Tsrc(unit(m)), which is
    # constant on se2-action: the one pinv, taken when the frame is built,
    # serves every point, read one at a time or in a stack
    model, _ = zoo("se2-action")
    real = np.linalg.pinv
    calls = [0]

    def counted(a, *args, **kwargs):
        calls[0] += 1
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    frame = aligned_frame(model, np.zeros(model.n))
    rng = np.random.default_rng(5)
    points = np.array([sample_base_point(model, rng) for _ in range(100)])
    for m in points:
        frame(m)
    frame.many(points)
    assert calls[0] == 1


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fd_frame_projects_each_source_jacobian_once(name, monkeypatch):
    # central differences leave Tsrc(unit(m)) at a few roundoff-level values,
    # so the -fd frame's projection memo computes one projection per value
    model = make_model(name)[0].without_jacobians()
    real = np.linalg.pinv
    calls = [0]

    def counted(a, *args, **kwargs):
        calls[0] += 1
        return real(a, *args, **kwargs)

    frame = aligned_frame(model, 0.5 * (model.base_box[:, 0] + model.base_box[:, 1]))
    rng = np.random.default_rng(5)
    points = np.array([sample_base_point(model, rng) for _ in range(100)])
    monkeypatch.setattr(np.linalg, "pinv", counted)
    for m in points:
        frame(m)
    frame.many(points)
    distinct = {model.Tsrc(model.unit(m)).tobytes() for m in points}
    assert calls[0] == len(distinct) < len(points)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_warm_frame_equals_cold_frame(name, jacobians):
    model, _ = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
    ref = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
    warm = aligned_frame(model, ref)
    rng = np.random.default_rng(11)
    points = [sample_base_point(model, rng) for _ in range(6)]
    for _ in range(2):  # the second pass reads the projection memo
        for m in points:
            assert np.array_equal(warm(m), aligned_frame(model, ref)(m))


def test_frame_error_names_the_point():
    # a pair-R1 copy whose source jacobian turns at unit(m) for m > 0.9: the
    # kernel there is orthogonal to the reference basis at 0. Every such m
    # has the same Tsrc(unit(m)), so the error must come from the frame's
    # point, not from the matrix the projection is keyed on
    model, _ = make_model("pair-R1")
    turned = dataclasses.replace(model.src, jacobian=lambda G: np.where(
        (G[:, 1] > 0.9)[:, None, None], [[[1.0, 0.0]]], [[[0.0, 1.0]]]))
    frame = aligned_frame(dataclasses.replace(model, src=turned), np.zeros(1))
    for m in (np.array([0.95]), np.array([0.97]), np.array([0.95])):
        with raises(FrameError, match=re.escape(f"degenerated at {m} ")):
            frame(m)
    assert np.array_equal(frame(np.array([0.5])), [[1.0], [0.0]])


# -- the oracle evaluates each probe point once --------------------------------


def _reference_oracle_jet(model, b, m, h=FD_STEP):
    """oracle_jet without the per-call memo: b evaluated at 4n+2 points."""
    m = np.asarray(m, dtype=float)
    g = np.asarray(b(m), dtype=float)
    for probe in (m, *(m + h * e for e in np.eye(model.n)),
                  *(m - h * e for e in np.eye(model.n))):
        defect = float(np.max(np.abs(model.src(np.asarray(b(probe), dtype=float)) - probe)))
        if defect > SECTION_TOL:
            raise NotABisectionError(f"src(b(x)) != x near {m}: defect {defect:.3e}")
    mu = jacobian_fd(b, m, h=h)
    arrow = model.arrow(g)
    if abs(np.linalg.det(model.Ttgt(g) @ mu)) < DET_TOL:
        raise NotABisectionError("target map of the bisection is singular")
    return Jet1(arrow, mu)


def _reference_oracle_jet_mul(model, j1, j2):
    b1 = extend_bisection(model, j1)
    b2 = extend_bisection(model, j2)
    return _reference_oracle_jet(model, compose_bisections(model, b1, b2), j2.g.source)


def _reference_oracle_jet_inverse(model, j):
    b = extend_bisection(model, j)

    def phi(x):
        return model.tgt(np.asarray(b(x), dtype=float))

    def b_inv(y):
        x = newton_solve(phi, np.asarray(y, dtype=float), j.g.source, 1e-14)
        return model.inv(np.asarray(b(x), dtype=float))

    return _reference_oracle_jet(model, b_inv, j.g.target)


def _same_jet(j1, j2):
    return np.array_equal(j1.g.coords, j2.g.coords) and np.array_equal(j1.mu, j2.mu)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_oracle_equals_its_unmemoized_form(name, jacobians):
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
    rng = np.random.default_rng(19)
    for _ in range(3):
        g, h = model.sample_composable(rng)
        j1 = random_jet(model, S.jet, g, rng)
        j2 = random_jet(model, S.jet, h, rng)
        b = extend_bisection(model, j2)
        assert _same_jet(oracle_jet(model, b, h.source), _reference_oracle_jet(model, b, h.source))
        assert _same_jet(oracle_jet_mul(model, j1, j2), _reference_oracle_jet_mul(model, j1, j2))
        assert _same_jet(oracle_jet_inverse(model, j1), _reference_oracle_jet_inverse(model, j1))


def _counted_bisections(monkeypatch, keep_stacked):
    """Count the single-row calls, the stacked calls and the stacked rows of
    every family of bisections extend_bisections builds from now on (a single
    jet's extend_bisection is its family of one), and the rows of the first
    stacked call. Without keep_stacked the families lose their stacked form,
    so the oracle evaluates them point by point, as it does any plain
    callable."""
    counts = {"single": 0, "stacked": 0, "rows": 0, "first": None}
    real = groupoid.extend_bisections

    def counting(model, J):
        family = real(model, J)

        def rows(X, owner):
            if not keep_stacked:
                counts["single"] += len(X)
                return np.array([family(X[r:r + 1], owner[r:r + 1])[0]
                                 for r in range(len(X))])
            counts["stacked"] += 1
            counts["rows"] += len(X)
            if counts["first"] is None:
                counts["first"] = len(X)
            return family(X, owner)

        return rows

    monkeypatch.setattr(groupoid, "extend_bisections", counting)
    return counts


def _counted(counts):
    """(single calls, stacked calls, stacked rows) so far; then start again."""
    out = (counts["single"], counts["stacked"], counts["rows"])
    counts.update(single=0, stacked=0, rows=0, first=None)
    return out


# each id ends in the number of points the inverse evaluates its bisection at
@pytest.mark.parametrize("name,keep_stacked,jet_counts,inverse_counts", [
    # (single calls, stacked calls, stacked rows): one stacked call of the 2n+1
    # probes; the inverse's stacked Newton takes the shared start (1 row), its
    # stencil (2n rows), one step for the 2n members whose target is not the
    # start's (2n rows), and the final 2n+1 rows
    pytest.param("pair-R2", True, (0, 1, 5), (0, 4, 14), id="pair-R2-14"),
    # point by point: 2n+1 calls, and 34 for the inverse, where the shared
    # start and its first stencil are evaluated once for all 2n+1 solves
    pytest.param("so3-sphere", False, (5, 0, 0), (34, 0, 0), id="so3-sphere-34"),
])
def test_oracle_evaluates_each_probe_once(zoo, monkeypatch, name, keep_stacked,
                                          jet_counts, inverse_counts):
    model, S = zoo(name)
    counts = _counted_bisections(monkeypatch, keep_stacked)
    g = model.sample_arrow(np.random.default_rng(0))
    j = S.jet(g)
    oracle_jet(model, groupoid.extend_bisection(model, j), g.source)
    assert _counted(counts) == jet_counts
    oracle_jet_inverse(model, j)
    assert _counted(counts) == inverse_counts


@pytest.mark.parametrize("k", [1, 3])
def test_a_family_of_jets_evaluates_each_probe_once(zoo, monkeypatch, k):
    # k members on pair-R2 (n = 2, 2n+1 = 5 probes each): the product
    # evaluates each factor's family in one stacked call of 5k rows; the
    # inverse makes the 4 stacked calls of a single jet's, the first of them
    # at the k Newton starts, one per member, and 14 rows per member
    model, S = zoo("pair-R2")
    rng = np.random.default_rng(31)
    pairs = [model.sample_composable(rng) for _ in range(k)]
    J1 = groupoid.Jets.of([S.jet(g) for g, _ in pairs])
    J2 = groupoid.Jets.of([S.jet(h) for _, h in pairs])
    counts = _counted_bisections(monkeypatch, True)
    groupoid.oracle_jet_muls(model, J1, J2)
    assert _counted(counts) == (0, 2, 2 * 5 * k)
    groupoid.oracle_jet_inverses(model, J1)
    first = counts["first"]
    assert (_counted(counts), first) == ((0, 4, 14 * k), k)


def test_oracle_raises_what_the_first_failing_probe_raises(zoo):
    # the probes are m, m + h e_0, m + h e_1, m - h e_0, m - h e_1: probe 1 is
    # no section point and probe 3 raises. Evaluating every row first meets
    # probe 3's error; the ordered per-probe loop meets probe 1's first.
    model, _ = zoo("pair-R2")
    m, h = np.array([0.2, 0.1]), FD_STEP
    shifted, broken = m + h * np.eye(2)[0], m - h * np.eye(2)[0]

    def b(x):
        if np.array_equal(x, broken):
            raise NonFiniteError("probe 3")
        return model.unit(x + 0.5 if np.array_equal(x, shifted) else x)

    with raises(NonFiniteError):
        ChartMap(2, 4, b).many(np.array([m, shifted, broken]))
    with raises(NotABisectionError, match="defect"):
        oracle_jet(model, b, m)


def test_a_family_raises_what_its_first_failing_member_raises(zoo):
    # member 0 is a section whose target map is constant (singular), member
    # 1 is no section at its probe m + h e_0. Checking every member's
    # sections before any target map would meet member 1's error first; the
    # members taken in order meet member 0's
    model, _ = zoo("pair-R2")
    M = np.array([[0.2, 0.1], [-0.3, 0.4]])
    shifted = M[1] + FD_STEP * np.eye(2)[0]

    def family(X, owner):
        rows = []
        for x, a in zip(X, owner):
            if a == 0:
                rows.append(np.concatenate([[0.5, 0.5], x]))  # tgt = (0.5, 0.5)
            else:
                rows.append(model.unit(x + 0.5 if np.array_equal(x, shifted) else x))
        return np.array(rows)

    with raises(NotABisectionError, match="defect"):  # member 1 alone
        groupoid.oracle_jets(model, lambda X, owner: family(X, owner + 1), M[1:])
    with raises(NotABisectionError, match="singular"):
        groupoid.oracle_jets(model, family, M)


@pytest.mark.parametrize("probe", range(5))
def test_oracle_checks_the_section_at_every_probe(zoo, probe):
    # a map that is a section everywhere but at one probe point, including
    # m - h e_1, which the stencil forms again as m + (-h) e_1
    model, _ = zoo("pair-R2")
    m, h = np.array([0.2, 0.1]), FD_STEP
    eye = np.eye(model.n)
    bad = (m, *(m + h * e for e in eye), *(m - h * e for e in eye))[probe]

    def b(x):
        return model.unit(x + 0.5 if np.array_equal(x, bad) else x)

    with raises(NotABisectionError):
        oracle_jet(model, b, m)
    oracle_jet(model, model.unit, m)  # without the bad point, b is a bisection


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_frame_columns_are_orthonormal(name, jacobians):
    # connection_matrix solves K coeffs = W as K.T @ W, which needs this
    model, _ = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
    frame = aligned_frame(model, 0.5 * (model.base_box[:, 0] + model.base_box[:, 1]))
    rng = np.random.default_rng(13)
    for _ in range(6):
        K = frame(sample_base_point(model, rng))
        assert np.max(np.abs(K.T @ K - np.eye(frame.rank))) < 1e-12


def _frame_model(name, jacobians):
    model, _ = make_model(name)
    return model if jacobians else model.without_jacobians()


def _views(P):
    # the stack itself and two non-contiguous views of stacks
    return P, np.repeat(P, 2, axis=1)[:, ::2], P[::-2]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_source_slot_declares_a_constant_source_jacobian(name):
    # every shipped model reads its source from a coordinate slot, so Tsrc is
    # the same matrix at every arrow; the declaration survives a copy and
    # leaves with the analytic jacobians or with the source it describes
    model, _ = make_model(name)
    rng = np.random.default_rng(47)
    g, h = model.sample_arrow(rng), model.sample_arrow(rng)
    assert np.array_equal(model.constant_Tsrc, model.Tsrc(g.coords))
    assert np.array_equal(model.constant_Tsrc, model.Tsrc(h.coords))
    assert dataclasses.replace(model, name="copy").constant_Tsrc is model.constant_Tsrc
    assert model.without_jacobians().constant_Tsrc is None
    moved = dataclasses.replace(model.src, jacobian=lambda X: model.src.jacobian(X))
    assert dataclasses.replace(model, src=moved).constant_Tsrc is None


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_constant_source_jacobian_gives_one_kernel_basis(name, monkeypatch):
    # kernel_basis reads Tsrc at unit(m), so with a constant_Tsrc it is one
    # matrix: one SVD per model, read-only, whatever the point or the caller
    from cartanlab.jetalg import random_kernel_hom

    model, _ = make_model(name)
    svd = groupoid._kernel_basis
    calls = []

    def counted(A):
        calls.append(1)
        return svd(A)

    monkeypatch.setattr(groupoid, "_kernel_basis", counted)
    rng = np.random.default_rng(61)
    for _ in range(3):
        m = sample_base_point(model, rng)
        K = kernel_basis(model, m)
        assert K.tobytes() == svd(model.Tsrc(model.unit(m))).tobytes()
        assert not K.flags.writeable
        random_kernel_hom(model, m, rng)
        aligned_frame(model, m)
    assert len(calls) == 1
    assert model.without_jacobians().constant_kernel_basis is None


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_frame_refuses_a_point_of_the_wrong_dimension(name, jacobians):
    # a constant frame needs no point to build its matrix, so it must check
    # the point itself: a frame at a point that is not of dimension n is none
    model = _frame_model(name, jacobians)
    n = model.n
    frame = aligned_frame(model, 0.5 * (model.base_box[:, 0] + model.base_box[:, 1]))
    for m in (np.zeros(n + 1), np.zeros((1, n)), np.float64(0.0)):
        with raises(DomainError):
            frame(m)
        # nor does the constant kernel basis, at a point or as a reference
        with raises(DomainError):
            kernel_basis(model, m)
        with raises(DomainError):
            aligned_frame(model, m)
    for P in (np.zeros((3, n + 1)), np.zeros(n), np.zeros((2, 3, n))):
        with raises(DomainError):
            frame.many(P)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_frame_rows_equal_the_projection_at_each_point(name, jacobians):
    # row a of frame.many(P), and frame(P[a]), are the reference basis
    # projected onto ker Tsrc(unit(P[a])) and re-orthonormalized, built here
    # point by point, bit for bit
    model = _frame_model(name, jacobians)
    ref = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
    frame = aligned_frame(model, ref)
    E_ref = kernel_basis(model, ref)
    rng = np.random.default_rng(53)
    P = np.array([sample_base_point(model, rng) for _ in range(5)])
    for stack in _views(P):
        K = frame.many(stack)
        assert K.shape == (len(stack), model.N, frame.rank)
        for p, row in zip(stack, K):
            A = model.Tsrc(model.unit(p))
            E = (np.eye(model.N) - np.linalg.pinv(A) @ A) @ E_ref
            w, U = np.linalg.eigh(E.T @ E)
            expected = E @ (U @ np.diag(1.0 / np.sqrt(w)) @ U.T)
            assert np.array_equal(row, expected)
            assert np.array_equal(frame(p), expected)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_random_section_rows_equal_single_calls(name, jacobians):
    # row a of X.many(P) is X(P[a]) bit for bit, and X^R reads the same
    # bytes through X.many as through X point by point
    model = _frame_model(name, jacobians)
    rng = np.random.default_rng(59)
    X = random_section(model, rng)
    P = np.array([sample_base_point(model, rng) for _ in range(5)])
    for stack in _views(P):
        rows = X.many(stack)
        assert rows.shape == (len(stack), model.N)
        for p, row in zip(stack, rows):
            assert np.array_equal(row, X(p))
    G = np.array([model.sample_arrow(rng).coords for _ in range(5)])
    for arrows in _views(G):
        assert np.array_equal(right_invariant_many(model, X, arrows),
                              right_invariant_many(model, lambda m: X(m), arrows))


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_section_family_rows_equal_each_drawn_section(name, jacobians):
    # row r of the drawn sections' family is section owner[r] at P[r], bit
    # for bit, on stacks and non-contiguous views; so are the rows
    # right_invariant_many reads through family_rows
    model = _frame_model(name, jacobians)
    rng = np.random.default_rng(61)
    sections = [random_section(model, rng) for _ in range(3)]
    family = AffineSection.stack_of(sections)
    P = np.array([sample_base_point(model, rng) for _ in range(6)])
    owner = np.array([2, 0, 0, 1, 2, 1])
    for stack in _views(P):
        own = owner[:len(stack)]
        rows = family(stack, own)
        assert rows.shape == (len(stack), model.N)
        for p, a, row in zip(stack, own, rows):
            assert np.array_equal(row, sections[a](p))
    G = np.array([model.sample_arrow(rng).coords for _ in range(6)])
    for arrows in _views(G):
        own = owner[:len(arrows)]
        stacked_rows = right_invariant_many(model, family_rows(family, own), arrows)
        for g, a, row in zip(arrows, own, stacked_rows):
            assert np.array_equal(row, right_invariant_many(model, sections[a], g[None])[0])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fd_frame_reads_a_stack_in_one_differentiate_many_call(name, monkeypatch):
    # the -fd frame reads Tsrc(unit(m)) of every row of a stack in one
    # stacked call, never model.Tsrc row by row
    model = make_model(name)[0].without_jacobians()
    frame = aligned_frame(model, 0.5 * (model.base_box[:, 0] + model.base_box[:, 1]))
    rng = np.random.default_rng(67)
    P = np.array([sample_base_point(model, rng) for _ in range(7)])
    expected = np.stack([frame(p) for p in P])
    calls = {"many": 0, "single": 0}
    real_many, real_single = groupoid.differentiate_many, groupoid.differentiate

    def many(f, X):
        calls["many"] += 1
        return real_many(f, X)

    def single(f, x):
        calls["single"] += 1
        return real_single(f, x)

    monkeypatch.setattr(groupoid, "differentiate_many", many)
    monkeypatch.setattr(groupoid, "differentiate", single)
    assert np.array_equal(frame.many(P), expected)
    assert calls == {"many": 1, "single": 0}


def test_stacked_frame_error_names_the_first_degenerate_point():
    # test_frame_error_names_the_point's turned pair-R1 copy: a stack with
    # two degenerate rows names the first of them
    model, _ = make_model("pair-R1")
    turned = dataclasses.replace(model.src, jacobian=lambda G: np.where(
        (G[:, 1] > 0.9)[:, None, None], [[[1.0, 0.0]]], [[[0.0, 1.0]]]))
    frame = aligned_frame(dataclasses.replace(model, src=turned), np.zeros(1))
    P = np.array([[0.5], [0.97], [0.95]])
    for _ in range(2):  # the second stack reads the first's healthy row from the memo
        with raises(FrameError, match=re.escape(f"degenerated at {P[1]} ")):
            frame.many(P)
    assert np.array_equal(frame.many(P[:1]), [[[1.0], [0.0]]])


def test_memoized_frames_are_read_only(zoo):
    # se2-action: every point shares the one projection the frame makes, so
    # a write into one frame would change the frame at every point
    model, _ = zoo("se2-action")
    frame = aligned_frame(model, np.zeros(model.n))
    K = frame(np.array([0.1, 0.1]))
    with raises(ValueError):
        K *= 2
    assert np.array_equal(frame(np.array([0.3, -0.1])), aligned_frame(
        model, np.zeros(model.n))(np.array([0.3, -0.1])))


def test_composability_check_refuses_a_nan_source(zoo):
    model, _ = zoo("pair-R2")
    g = model.arrow(np.array([0.3, 0.4, np.nan, 0.2]))
    at = model.unit_arrow(np.array([0.1, 0.2]))
    with raises(CompositionError):
        left_translate_many(model, g.coords[None], at.coords[None], np.zeros((1, model.N)))


def test_verticality_check_refuses_a_nan_vector(zoo):
    model, _ = zoo("se2-action")
    with raises(ToleranceError):
        algebroid_vec(model, np.array([0.1, 0.2]), np.full(model.N, np.nan))


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_right_invariant_many_rows_equal_right_translate(name, jacobians):
    # row a is T R_g . X(tgt(g)) at the unit over tgt(g), as right_translate
    # takes it one arrow at a time, bit for bit, on a stack and on a view
    model, _ = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
    rng = np.random.default_rng(37)
    X = random_section(model, rng)
    G = np.array([model.sample_arrow(rng).coords for _ in range(6)])
    for stack in (G, np.concatenate([G, G], axis=1)[:, ::2]):
        rows = right_invariant_many(model, X, stack)
        for g, row in zip(stack, rows):
            a = model.arrow(g)
            ref = right_translate(model, a, model.unit_arrow(a.target), X(a.target))
            assert np.array_equal(row, ref)
            assert np.array_equal(right_invariant_many(model, X, g[None])[0], ref)


def test_right_invariant_many_refuses_an_arrow_it_cannot_compose(zoo):
    # a NaN target makes the composability defect NaN, which must fail
    model, _ = zoo("se2-action")
    G = np.array([[0.1, 0.2, -0.1, 0.3, 0.2], [0.1, np.nan, 0.0, 0.3, 0.2]])

    def X(m):
        return np.array([0.1, 0.2, 0.3, 0.0, 0.0])

    with raises(CompositionError):
        right_invariant_many(model, X, G)
    with raises(CompositionError):
        right_invariant_many(model, X, G[1:])
