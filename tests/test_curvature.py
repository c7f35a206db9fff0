import dataclasses
import importlib
import itertools
import sys
import types

import numpy as np
import pytest
from pytest import raises

from cartanlab.chartcalc import batch_of_one, directional_derivative, jacobian_fd
from cartanlab.connection import CartanConnection, infinitesimalize
from cartanlab.curvature import (
    CURV_FD_STEP,
    GRID_RADIUS,
    _jacobi_residual,
    _transport_matrices,
    _transport_matrix,
    connection_matrices,
    connection_matrix,
    curvature,
    curvatures,
    flatness_experiment,
    frobenius_torsion,
    frobenius_torsions,
    reconstruct_action,
)
from cartanlab.errors import FlatnessError, NonFiniteError
from cartanlab.experiments import run_flatness, run_reconstruct, run_riemannian
from cartanlab.groupoid import (
    aligned_frame,
    aligned_frames,
    right_invariant_many,
    sample_base_point,
)
from cartanlab.models import EXPECTED_FLAT, MODELS, PERTURBED_BOX, make_model
from cartanlab.report import ExperimentConfig

from conftest import turned_kernel_bases

# the package re-exports the function curvature under the submodule's name
curvature_mod = importlib.import_module("cartanlab.curvature")


@pytest.mark.parametrize("name", ["translation-R2", "pair-R2"])
def test_flat_model_curvature_vanishes(zoo, name, rng):
    model, S = zoo(name)
    nab = infinitesimalize(S, "direct-formula")
    for _ in range(4):
        R = curvature(nab, sample_base_point(model, rng))
        assert R.norm_inf <= 1e-6


def test_sphere_isojet_curvature_flat(zoo, rng):
    model, S = zoo("isojet-sphere")
    nab = infinitesimalize(S, "direct-formula")
    for _ in range(4):
        R = curvature(nab, sample_base_point(model, rng))
        assert R.norm_inf <= 1e-4


def test_perturbed_curvature_large(zoo, rng):
    # threshold locked from the recorded oracle run: observed curvature norms
    # over the shipped sampling box lie in [3.4e-1, 4.5e-1]
    model, S = zoo("isojet-perturbed")
    nab = infinitesimalize(S, "direct-formula")
    norms = [curvature(nab, sample_base_point(model, rng)).norm_inf
             for _ in range(6)]
    assert all(v > 10 * 1e-4 for v in norms)
    assert max(norms) > 1e-1


def test_curvature_antisymmetry(zoo, rng):
    model, S = zoo("isojet-sphere")
    nab = infinitesimalize(S, "direct-formula")
    R = curvature(nab, sample_base_point(model, rng)).R
    assert np.max(np.abs(R + np.transpose(R, (1, 0, 2, 3)))) <= 1e-8


def test_torsion_vanishes_at_units_for_involutive(zoo, rng):
    model, S = zoo("isojet-sphere")
    m = sample_base_point(model, rng)
    tau = frobenius_torsion(S, model.unit_arrow(m))
    assert np.max(np.abs(tau)) <= 1e-5


def test_torsion_translation_random_arrows(zoo, rng):
    model, S = zoo("translation-R2")
    for _ in range(6):
        tau = frobenius_torsion(S, model.sample_arrow(rng))
        assert np.max(np.abs(tau)) <= 1e-5


def test_torsion_perturbed_large(zoo, rng):
    model, S = zoo("isojet-perturbed")
    norms = [float(np.max(np.abs(frobenius_torsion(S, model.sample_arrow(rng)))))
             for _ in range(8)]
    above = sum(v > 10 * 1e-4 for v in norms)
    assert above >= 0.8 * len(norms)


def test_torsion_antisymmetry(zoo, rng):
    model, S = zoo("isojet-perturbed")
    tau = frobenius_torsion(S, model.sample_arrow(rng))
    assert np.max(np.abs(tau + np.transpose(tau, (1, 0, 2)))) == 0.0


@pytest.mark.parametrize("name,expect", [
    ("translation-R2", True),
    ("isojet-sphere", True),
    ("isojet-perturbed", False),
])
def test_flatness_experiment_verdicts(zoo, name, expect):
    model, S = zoo(name)
    rep = flatness_experiment(S, seed=4, count=6)
    assert rep.flat is expect
    assert rep.involutive is expect
    assert rep.agreement


def test_reconstruct_translation_abelian(zoo):
    model, S = zoo("translation-R2")
    nab = infinitesimalize(S, "direct-formula")
    res = reconstruct_action(nab, np.zeros(2), sample_count=3)
    assert res.dim_g0 == 2
    assert np.max(np.abs(res.structure_constants)) <= 1e-10
    assert res.residuals["jacobi"] <= 1e-5
    assert res.residuals["anchor_hom"] <= 1e-5
    assert res.residuals["parallelism"] <= 1e-5
    assert res.residuals["path_dependence"] <= 1e-4


def test_reconstruct_flat_plane_isojet_motion_algebra(zoo):
    # flat-plane isometry jets: three-dimensional algebra with a rank-two
    # derived algebra (the translations), Euclidean-motion type
    model, S = zoo("isojet-plane")
    nab = infinitesimalize(S, "direct-formula")
    res = reconstruct_action(nab, np.zeros(2), sample_count=3)
    assert res.dim_g0 == 3
    c = res.structure_constants
    assert np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) == 0.0
    assert res.residuals["jacobi"] <= 1e-5
    assert res.residuals["anchor_hom"] <= 1e-5
    derived = np.linalg.matrix_rank(c.reshape(-1, 3), tol=1e-6)
    assert derived == 2
    killing = np.einsum("ade,bed->ab", c, c)
    eigs = np.sort(np.linalg.eigvalsh(killing))
    assert eigs[0] < -1e-3 and abs(eigs[1]) < 1e-6 and abs(eigs[2]) < 1e-6


def test_reconstruct_sphere_isojet_rotation_algebra(zoo):
    # sphere isometry jets: fully non-abelian three-dimensional algebra with
    # negative-definite Killing form
    model, S = zoo("isojet-sphere")
    nab = infinitesimalize(S, "direct-formula")
    res = reconstruct_action(nab, np.zeros(2), sample_count=3)
    assert res.dim_g0 == 3
    c = res.structure_constants
    assert res.residuals["jacobi"] <= 1e-5
    assert res.residuals["anchor_hom"] <= 1e-5
    assert res.residuals["path_dependence"] <= 1e-4
    derived = np.linalg.matrix_rank(c.reshape(-1, 3), tol=1e-6)
    assert derived == 3
    killing = np.linalg.eigvalsh(np.einsum("ade,bed->ab", c, c))
    assert np.all(killing < -1e-3)


def test_reconstruct_action_fields_match_anchor(zoo, rng):
    model, S = zoo("se2-action")
    nab = infinitesimalize(S, "direct-formula")
    res = reconstruct_action(nab, np.zeros(2), sample_count=3)
    m = rng.uniform(-0.15, 0.15, size=2)
    for a in range(res.dim_g0):
        lhs = res.action_fields[a](m)
        rhs = model.Ttgt(model.unit(m)) @ res.parallel_sections[a](m)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_reconstruct_refuses_curved_connection(zoo):
    model, S = zoo("isojet-perturbed")
    nab = infinitesimalize(S, "direct-formula")
    m0 = PERTURBED_BOX.mean(axis=1)
    with raises(FlatnessError):
        reconstruct_action(nab, m0, sample_count=2)


def _four_evaluation_transport(nabla, frame, path, steps=16):
    """Reference RK4 transport that evaluates the coefficient at every stage."""
    Y = np.eye(frame.rank)
    h = 1.0 / steps
    dt = 1e-6

    def gdot(t):
        return (np.asarray(path(t + dt), dtype=float)
                - np.asarray(path(t - dt), dtype=float)) / (2 * dt)

    def rhs(t, Y):
        return -connection_matrix(nabla, frame, np.asarray(path(t), dtype=float), gdot(t)) @ Y

    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, Y)
        k2 = rhs(t + 0.5 * h, Y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, Y + 0.5 * h * k2)
        k4 = rhs(t + h, Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return Y


def _transport_setup(zoo, name):
    model, S = zoo(name)
    nab = infinitesimalize(S, "direct-formula")
    m0 = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
    frame = aligned_frame(model, m0)
    return model, nab, m0, frame


def _l_path(m0, corner):
    def path(t):
        p = m0.copy()
        if t <= 0.5:
            p[0] += (corner[0] - m0[0]) * 2 * t
        else:
            p[0] = corner[0]
            p[1:] += (corner[1:] - m0[1:]) * (2 * t - 1)
        return p

    return path


def test_transport_evaluates_coefficients_once_per_node(zoo, monkeypatch):
    # one stacked coefficient call per RK4 node, whatever the number of members
    _, nab, m0, frame = _transport_setup(zoo, "isojet-sphere")
    calls = []

    def counting(*args):
        calls.append(len(args[2]))
        return connection_matrices(*args)

    monkeypatch.setattr(curvature_mod, "connection_matrices", counting)
    m1 = m0 + 0.15
    _transport_matrix(nab, frame, lambda t: m0 + t * (m1 - m0), steps=16)
    assert calls == [1] * (2 * 16 + 1)
    ends = m0 + np.array([[0.15, 0.15], [-0.1, 0.05], [0.0, 0.2]])
    del calls[:]
    _transport_matrices(nab, frame, lambda t: m0 + t * (ends - m0), steps=16)
    assert calls == [3] * (2 * 16 + 1)


@pytest.mark.parametrize("name", ["isojet-sphere", "so3-sphere"])
def test_transport_matches_four_evaluation_rk4_exactly(zoo, name):
    model, nab, m0, frame = _transport_setup(zoo, name)
    r = frame.rank
    offset = np.linspace(0.2, -0.1, model.n)
    paths = [_l_path(m0, m0 + np.full(model.n, 0.2)),
             lambda t: m0 + t * offset]
    for path in paths:
        new = _transport_matrix(nab, frame, path)
        old = _four_evaluation_transport(nab, frame, path)
        assert np.array_equal(new, old)


@pytest.mark.parametrize("name", ["isojet-sphere", "so3-sphere", "pair-R2"])
def test_transport_matrices_rows_equal_the_four_evaluation_transport(zoo, name):
    # radial paths, a zero-length one among them, and the two L-paths
    model, nab, m0, frame = _transport_setup(zoo, name)
    r = frame.rank
    ends = m0 + np.array([[0.2, -0.1], [-0.15, 0.05], [0.0, 0.0]])
    Y = _transport_matrices(nab, frame, lambda t: m0 + t * (ends - m0))
    for a, end in enumerate(ends):
        path = lambda t: m0 + t * (end - m0)
        assert np.array_equal(Y[a], _four_evaluation_transport(nab, frame, path))
    assert np.array_equal(Y[2], np.eye(r))
    corner = m0 + 0.2
    paths = [_l_path(m0, corner), _l_path(m0[::-1], corner[::-1])]
    flipped = lambda t: paths[1](t)[::-1]  # the L-path along the last axis first
    Y = _transport_matrices(nab, frame, lambda t: np.stack([paths[0](t), flipped(t)]))
    for a, path in enumerate((paths[0], flipped)):
        assert np.array_equal(Y[a], _four_evaluation_transport(nab, frame, path))


def test_transport_raises_on_non_finite_coefficients(zoo, monkeypatch):
    _, nab, m0, frame = _transport_setup(zoo, "isojet-sphere")
    r = frame.rank
    monkeypatch.setattr(curvature_mod, "connection_matrices",
                        lambda nabla, frame, M, W: np.full((len(M), r, r), np.nan))
    with raises(NonFiniteError):
        _transport_matrix(nab, frame, lambda t: m0 + t * 0.1)
    with raises(NonFiniteError):
        _transport_matrices(nab, frame, lambda t: m0 + t * np.array([[0.1, 0.0], [0.0, 0.1]]))


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_connection_matrices_rows_equal_connection_matrix(name, jacobians):
    # random stacks, a zero direction among them, and non-contiguous views
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    nab = infinitesimalize(S, "direct-formula")
    rng = np.random.default_rng(41)
    n = model.n
    M = np.stack([sample_base_point(model, rng) for _ in range(4)])
    W = rng.uniform(-1.0, 1.0, size=(4, n))
    W[1] = 0.0
    frame = aligned_frame(model, M[0])
    r = frame.rank
    wide = np.concatenate([M, W], axis=1)
    for Ms, Ws in ((M, W), (wide[:, :n], wide[:, n:]), (M[::-2], W[::-2])):
        G = connection_matrices(nab, frame, Ms, Ws)
        assert G.shape == (len(Ms), r, r)
        # the stacked K.T @ D rounds as the product at each row alone
        D = nab.nabla_rows(Ms, Ws, frame.many)
        for a in range(len(Ms)):
            assert np.array_equal(G[a], connection_matrix(nab, frame, Ms[a], Ws[a]))
            assert np.array_equal(G[a], frame(Ms[a]).T @ D[a])
    assert not connection_matrices(nab, frame, M, W)[1].any()


def _count_transports(monkeypatch):
    """The list that records, in order, the member count of every stacked
    transport reconstruct_action makes and, as ("brackets", k), each
    algebroid_brackets call over k pairs when it returns. A batch-of-one
    _transport_matrix call fails the test."""
    events = []
    transport_matrices = _transport_matrices
    real_brackets = curvature_mod.algebroid_brackets

    def counting_brackets(*args):
        out = real_brackets(*args)
        events.append(("brackets", len(args[2])))
        return out

    def counting_many(nabla, frame, path_many, steps=16):
        events.append(len(path_many(0.0)))
        return transport_matrices(nabla, frame, path_many, steps)

    def refused_one(*args, **kwargs):
        raise AssertionError("a transport ran alone")

    monkeypatch.setattr(curvature_mod, "_transport_matrices", counting_many)
    monkeypatch.setattr(curvature_mod, "_transport_matrix", refused_one)
    monkeypatch.setattr(curvature_mod, "algebroid_brackets", counting_brackets)
    return events


def _reconstruct_at_centre(model, S):
    m0 = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
    return reconstruct_action(infinitesimalize(S, "direct-formula"), m0, sample_count=5)


def test_reconstruction_transports_in_three_stacked_calls(zoo, monkeypatch):
    # the two L-paths take one stacked transport; then m0, the 9 parallelism
    # grid points with their 36 stencil probes, and the 5 anchor samples with
    # their 20 probes take one more, before the bracket; the brackets of all
    # pairs at m0 are one algebroid_brackets call, whose unit rows at m0 hit
    # the memo, so only its probes along two sections' fields take a third
    # (the third section's probes stay at m0)
    model, S = zoo("isojet-sphere")
    events = _count_transports(monkeypatch)
    _reconstruct_at_centre(model, S)
    assert events == [2, 1 + 9 + 36 + 5 + 4 * 5, 4, ("brackets", 3)]  # [2, 71, 4]


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(name for name, flat in EXPECTED_FLAT.items() if flat))
def test_no_transport_runs_after_the_brackets(name, jacobians, monkeypatch):
    # on every model reconstruct accepts, the parallelism and anchor checks
    # read only the memo the stacked transport before the bracket filled; the
    # one section of pair-R1 has no bracket pair, so its bracket takes no
    # probe
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    events = _count_transports(monkeypatch)
    _reconstruct_at_centre(model, S)
    assert events[-1][0] == "brackets"
    assert events[:-1] == ([2, 25] if name == "pair-R1" else [2, 71, 4])


def test_holonomy_is_refused_before_any_radial_transport(zoo, monkeypatch):
    # with the curvature precondition skipped, a curved connection meets the
    # holonomy gate, which the L-paths' transport alone decides
    model, S = zoo("isojet-perturbed")
    monkeypatch.setattr(curvature_mod, "curvatures",
                        lambda nabla, M: [types.SimpleNamespace(norm_inf=0.0)] * len(M))
    events = _count_transports(monkeypatch)
    with raises(FlatnessError, match="holonomy"):
        _reconstruct_at_centre(model, S)
    assert events == [2]


def _opened_reconstruction(name, jacobians, monkeypatch):
    """The model and reconstruct_action's result at the centre m0 of its base
    box, with the flatness gate opened and the curvature precondition
    skipped, so every model has sections, and the parallelism check probing
    one grid point: a test using it checks none of them."""
    monkeypatch.setattr(curvature_mod, "FLATNESS_TOL", np.inf)
    monkeypatch.setattr(curvature_mod, "curvatures",
                        lambda nabla, M: [types.SimpleNamespace(norm_inf=0.0)] * len(M))
    monkeypatch.setattr(curvature_mod, "GRID_SPACING", 2 * GRID_RADIUS)
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    m0 = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
    return model, m0, reconstruct_action(infinitesimalize(S, "direct-formula"), m0,
                                         sample_count=0)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_reconstruction_section_rows_equal_single_calls(name, jacobians, monkeypatch):
    # row a of a parallel section's .many(P) is the section at P[a] bit for
    # bit, whether the transports there were first taken one point at a time
    # or stacked, and X^R reads the same bytes through .many as point by
    # point
    model, m0, result = _opened_reconstruction(name, jacobians, monkeypatch)
    sections = result.parallel_sections
    rng = np.random.default_rng(61)
    singles_first, stacked_first = (
        m0 + rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=(4, model.n)) for _ in range(2))
    expected = [[xi(p) for p in singles_first] for xi in sections]
    for xi, rows in zip(sections, expected):
        assert np.array_equal(xi.many(singles_first), rows)
    for stack in (stacked_first, np.repeat(stacked_first, 2, axis=1)[:, ::2]):
        for xi in sections:
            rows = xi.many(stack)
            for p, row in zip(stack, rows):
                assert np.array_equal(row, xi(p))
    G = np.array([model.inv(model.arrow_with_source(p, rng)) for p in stacked_first])
    for xi in sections:
        assert np.array_equal(right_invariant_many(model, xi, G),
                              right_invariant_many(model, lambda m, xi=xi: xi(m), G))


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(name for name, flat in EXPECTED_FLAT.items() if flat))
def test_action_fields_equal_the_anchor_point_by_point(name, jacobians, monkeypatch):
    # the stacked action fields (one stack of anchor matrices, one stacked
    # matrix-vector product) equal Ttgt(unit(p)) @ xi(p), taken point by
    # point, bit for bit, on stacks and on non-contiguous views of them
    model, m0, result = _opened_reconstruction(name, jacobians, monkeypatch)
    rng = np.random.default_rng(67)
    P = m0 + rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=(5, model.n))
    for stack in (P, np.repeat(P, 2, axis=1)[:, ::2]):
        for field, xi in zip(result.action_fields, result.parallel_sections):
            expected = [model.Ttgt(model.unit(p)) @ xi(p) for p in stack]
            assert np.array_equal(field.many(stack), expected)
            assert all(np.array_equal(field(p), row) for p, row in zip(stack, expected))


@pytest.mark.parametrize("name", ["isojet-sphere", "pair-R1"])
def test_parallelism_probes_reach_both_ends_of_every_axis(zoo, name):
    # the parallelism check differentiates the parallel sections (xi) at the
    # 3^n grid points whose coordinates are m0 and m0 +- GRID_RADIUS, along
    # every coordinate direction
    model, S = zoo(name)
    n = model.n
    seen = []
    nabla = infinitesimalize(S, "direct-formula")

    def recording(M, V, values_many):
        seen.append((sys._getframe(1).f_code.co_name, np.array(M), np.array(V)))
        return nabla.nabla_rows(M, V, values_many)

    m0 = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
    reconstruct_action(dataclasses.replace(nabla, nabla_rows=recording), m0, sample_count=1)
    # the parallelism check is the one nabla_rows call reconstruct_action
    # makes itself; its curvature and transports call through
    # connection_matrices
    [(M, V)] = [(M, V) for caller, M, V in seen if caller == "reconstruct_action"]
    offsets = (M - m0) / GRID_RADIUS
    assert np.allclose(offsets, np.round(offsets), rtol=0.0, atol=1e-12)
    lattice = sorted(itertools.product((-1, 0, 1), repeat=n))
    assert sorted(set(map(tuple, np.round(offsets).astype(int)))) == lattice
    for i in range(n):
        assert M[:, i].min() == pytest.approx(m0[i] - GRID_RADIUS, abs=1e-12)
        assert M[:, i].max() == pytest.approx(m0[i] + GRID_RADIUS, abs=1e-12)
    # each point along each coordinate direction, once
    assert len(M) == len(lattice) * n and np.array_equal(V, np.tile(np.eye(n), (len(lattice), 1)))


def test_jacobi_residual_reports_nan_as_infinite():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = np.nan
    c[1, 0, 2] = np.nan
    assert _jacobi_residual(c) == np.inf


def test_curvature_evaluates_point_geometry_once_per_point(monkeypatch):
    # fresh isojet-sphere: Gamma at m and at the 2n stencil points take one
    # connection_matrices call each, and each evaluates its stencil jets in
    # one batched call, 2 per curvature (n + 2 n^2 = 10 one point at a time);
    # the source is a coordinate slot, so the frame's reference basis and its
    # one projection read the model's constant_kernel_basis and constant_Tsrc,
    # and neither they nor the 41 frame reads build Tsrc(unit(m))
    from cartanlab.groupoid import GroupoidModel
    from cartanlab.models import isojet, make_model

    model, S = make_model("isojet-sphere")
    calls = {"prolongation_jets": 0, "Tsrc": 0}
    prolongation_jets, Tsrc = isojet.prolongation_jets, GroupoidModel.Tsrc

    def counted_jets(metric, G):
        calls["prolongation_jets"] += 1
        return prolongation_jets(metric, G)

    def counted_Tsrc(self, coords):
        calls["Tsrc"] += 1
        return Tsrc(self, coords)

    monkeypatch.setattr(isojet, "prolongation_jets", counted_jets)
    monkeypatch.setattr(GroupoidModel, "Tsrc", counted_Tsrc)
    curvature(infinitesimalize(S, "direct-formula"), np.array([0.1, -0.2]))
    assert calls == {"prolongation_jets": 2, "Tsrc": 0}


def _all_nan_jets(S):
    """S with mu_at returning an all-NaN jet everywhere."""
    return CartanConnection(S.model, lambda coords: np.full_like(S.mu_at(coords), np.nan),
                            name=S.name)


def test_flatness_checks_fail_on_nan_jets(zoo):
    # NaN <= 10 tol counts a NaN sample as non-flat, and NaN-valued max
    # norms make flat and involutive both False, which would "agree" and
    # match the non-flat expectation of isojet-perturbed
    model, S = zoo("isojet-perturbed")
    config = ExperimentConfig(model="isojet-perturbed", experiment="flatness",
                              seed=1, sample_count=6)
    checks = {c.name: c for c in run_flatness(model, _all_nan_jets(S), config, 6)}
    for name in ("curvature-nonflat-fraction-below",
                 "torsion-noninvolutive-fraction-below", "verdict-agreement"):
        assert not checks[name].passed, name
    assert checks["curvature-nonflat-fraction-below"].max_error == np.inf


def test_riemannian_flatness_verdict_fails_on_nan_jets(zoo):
    model, S = zoo("isojet-perturbed")
    config = ExperimentConfig(model="isojet-perturbed", experiment="riemannian",
                              seed=1, sample_count=6)
    checks = {c.name: c for c in run_riemannian(model, _all_nan_jets(S), config, 6)}
    assert checks["flatness-verdict"].max_error == 1.0
    assert not checks["flatness-verdict"].passed



def test_flatness_experiment_runs_without_the_oracle(monkeypatch):
    # the flatness experiment checks curvature against torsion; it consults
    # no multiplicativity check, so the oracle is never called
    from cartanlab import connection
    from cartanlab.models import make_model

    def unreachable(*args):
        raise AssertionError("flatness_experiment called the jet oracle")

    monkeypatch.setattr(connection, "oracle_jets_and_refusals", unreachable)
    _, S = make_model("pair-R2")
    rep = flatness_experiment(S, seed=0, count=2)
    assert rep.flat and rep.involutive and rep.agreement


def _nan_row_batches(S):
    """S with the first jet of every batch NaN, the single jets intact: its
    mu_at is S.mu_at again, with the NaN batches as its stacked form."""

    def mu_at(g):
        return S.mu_at(g)

    def mu_many(G):
        mu = S.mu_many(G).copy()
        mu[0] = np.nan
        return mu

    mu_at.many = mu_many
    return dataclasses.replace(S, mu_at=mu_at)


@pytest.mark.parametrize("run", [run_flatness, run_reconstruct])
def test_nan_batch_row_fails_or_aborts_the_report(zoo, run):
    model, S = zoo("isojet-sphere")
    config = ExperimentConfig(model="isojet-sphere", experiment=run.__name__[4:],
                              seed=1, sample_count=3)
    try:
        checks = run(model, _nan_row_batches(S), config, 3)
    except (NonFiniteError, FlatnessError):
        # aborted: the transport went non-finite, or reconstruction's
        # flatness precondition refused the NaN curvature
        return
    assert not all(c.passed for c in checks)


def test_reconstruction_refuses_a_nan_curvature(zoo):
    model, S = zoo("pair-R2")
    nan_nabla = dataclasses.replace(
        infinitesimalize(S),
        nabla_rows=lambda M, V, values_many: np.full(values_many(M).shape, np.nan))
    with raises(FlatnessError, match="curvature nan"):
        reconstruct_action(nan_nabla, np.zeros(2), sample_count=1)


def test_reconstruction_refuses_a_nan_holonomy(zoo, monkeypatch):
    # no RK4 transport returns NaN (rk4 raises first), so the NaN transport
    # matrix is planted
    _, S = zoo("pair-R2")
    monkeypatch.setattr(curvature_mod, "_transport_matrices",
                        lambda nabla, frame, path_many: np.full((2, frame.rank, frame.rank), np.nan))
    with raises(FlatnessError, match="holonomy"):
        reconstruct_action(infinitesimalize(S), np.zeros(2), sample_count=1)


def _curvature_by_directions(nabla, m):
    """curvature's R as it was computed before one jacobian_fd of the stacked
    Gamma_j: n^2 directional derivatives of the single Gamma_j."""
    frame = aligned_frame(nabla.model, m)
    r, n = frame.rank, nabla.model.n
    eye = np.eye(n)

    def gamma(point, i):
        return connection_matrix(nabla, frame, point, eye[i])

    G0 = [gamma(m, i) for i in range(n)]
    dG = np.empty((n, n, r, r))
    for i in range(n):
        for j in range(n):
            dG[i, j] = directional_derivative(lambda p: gamma(p, j), m, eye[i], CURV_FD_STEP)
    R = np.zeros((n, n, r, r))
    for i in range(n):
        for j in range(n):
            R[i, j] = dG[i, j] - dG[j, i] + G0[i] @ G0[j] - G0[j] @ G0[i]
    return R


def _torsion_through_mu_at(S, g):
    """frobenius_torsion as it was computed before its one mu_many call: a
    jacobian_fd over mu_at."""
    n, N = S.model.n, S.model.N
    mu0 = np.asarray(S.mu_at(g.coords), dtype=float)
    Q, _ = np.linalg.qr(mu0)
    P_perp = np.eye(N) - Q @ Q.T
    DV = np.moveaxis(jacobian_fd(S.mu_at, g.coords), 1, 0)
    tau = np.zeros((n, n, N))
    for i in range(n):
        for j in range(i + 1, n):
            tau[i, j] = P_perp @ (DV[j] @ mu0[:, i] - DV[i] @ mu0[:, j])
            tau[j, i] = -tau[i, j]
    return tau


@pytest.mark.parametrize("name", sorted(MODELS))
def test_curvature_and_torsion_equal_their_unstacked_forms(name):
    model, S = make_model(name)
    rng = np.random.default_rng(23)
    m = sample_base_point(model, rng)
    nabla = infinitesimalize(S, "direct-formula")
    assert np.array_equal(curvature(nabla, m).R, _curvature_by_directions(nabla, m))
    g = model.sample_arrow(rng)
    assert np.array_equal(frobenius_torsion(S, g), _torsion_through_mu_at(S, g))


def _with_and_without_jacobians(name, jacobians):
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    return model, S


def _non_contiguous(X):
    """X as a view whose rows are not contiguous, equal to X."""
    return np.repeat(X, 2, axis=1)[:, ::2]


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_curvatures_and_torsions_equal_their_rows(name, jacobians):
    # row a of the stacked forms is the batch of one at row a and the
    # unstacked form there, bit for bit, on stacks and non-contiguous views
    model, S = _with_and_without_jacobians(name, jacobians)
    rng = np.random.default_rng(29)
    M = np.stack([sample_base_point(model, rng) for _ in range(3)])
    G = np.stack([model.sample_arrow(rng).coords for _ in range(3)])
    nabla = infinitesimalize(S, "direct-formula")
    for Ms in (M, _non_contiguous(M)):
        for a, curv in enumerate(curvatures(nabla, Ms)):
            assert np.array_equal(curv.m, M[a])
            assert np.array_equal(curv.R, curvature(nabla, M[a]).R)
            assert np.array_equal(curv.R, _curvature_by_directions(nabla, M[a]))
            assert np.array_equal(curv.frame_at_m, aligned_frame(model, M[a])(M[a]))
    for Gs in (G, _non_contiguous(G)):
        tau = frobenius_torsions(S, Gs)
        assert tau.shape == (3, model.n, model.n, model.N)
        for a in range(3):
            g = model.arrow(G[a])
            assert np.array_equal(tau[a], frobenius_torsion(S, g))
            assert np.array_equal(tau[a], _torsion_through_mu_at(S, g))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_curvatures_group_the_rows_by_their_frame(name, monkeypatch):
    # where the reference bases differ, rows are grouped by their aligned
    # frame, in order of first use, and each equals the curvature at its
    # point alone bit for bit
    turned_kernel_bases(monkeypatch)
    model, S = make_model(name)
    rng = np.random.default_rng(31)
    p, q = (sample_base_point(model, rng) for _ in range(2))
    M = np.stack([p, q, p])
    groups = aligned_frames(model, M)
    assert [rows.tolist() for _, rows in groups] == [[0, 2], [1]]
    for frame, rows in groups:
        assert np.array_equal(frame(M[rows[0]] + 0.01),
                              aligned_frame(model, M[rows[0]])(M[rows[0]] + 0.01))
    nabla = infinitesimalize(S, "direct-formula")
    for Ms in (M, _non_contiguous(M)):
        for a, curv in enumerate(curvatures(nabla, Ms)):
            assert np.array_equal(curv.R, curvature(nabla, M[a]).R)
            assert np.array_equal(curv.R, _curvature_by_directions(nabla, M[a]))


def test_aligned_frames_share_one_frame_where_the_bases_agree(zoo):
    # every shipped model's reference bases are the same bytes at every
    # point, the -fd copies included, so a stack reads one frame
    for name in sorted(MODELS):
        model, _ = zoo(name)
        rng = np.random.default_rng(37)
        M = np.stack([sample_base_point(model, rng) for _ in range(4)])
        for m in (model, model.without_jacobians()):
            [(frame, rows)] = aligned_frames(m, M)
            assert rows.tolist() == [0, 1, 2, 3]
            assert np.array_equal(frame.many(M), [aligned_frame(m, p)(p) for p in M])


def _flatness_per_sample(S, seed, count):
    """flatness_experiment as its per-sample loop computed it before the
    stacked curvatures and torsions: each sample drawn (its base point, then
    its arrow, the point's curvature taken in between), then evaluated alone
    through the unstacked forms. The base point is drawn through the
    curvature module, so a patched draw reaches both."""
    model = S.model
    rng = np.random.default_rng(seed)
    nabla = infinitesimalize(S, "direct-formula")
    curv_norms, tors_norms = np.empty(count), np.empty(count)
    for idx in range(count):
        m = curvature_mod.sample_base_point(model, rng)
        curv_norms[idx] = float(np.max(np.abs(_curvature_by_directions(nabla, m))))
        g = model.sample_arrow(rng)
        tors_norms[idx] = float(np.max(np.abs(_torsion_through_mu_at(S, g))))
    return curv_norms, tors_norms


def _assert_same_tables(report, reference):
    curv_norms, tors_norms = reference
    assert np.array_equal(report.curvature_norms, curv_norms, equal_nan=True)
    assert np.array_equal(report.torsion_norms, tors_norms, equal_nan=True)
    assert report.finite == bool(np.all(np.isfinite(curv_norms))
                                 and np.all(np.isfinite(tors_norms)))


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_flatness_experiment_equals_the_per_sample_loop(name, jacobians):
    _, S = _with_and_without_jacobians(name, jacobians)
    _assert_same_tables(flatness_experiment(S, seed=7, count=4),
                        _flatness_per_sample(S, seed=7, count=4))


def _counted_connection(S, calls):
    """S with every stacked jet call counted in calls["mu_many"]."""

    def mu_many(G):
        calls["mu_many"] += 1
        return S.mu_many(G)

    return CartanConnection(S.model, batch_of_one(mu_many), name=S.name)


@pytest.mark.parametrize("name", ["isojet-sphere", "se2-action"])
def test_flatness_experiment_makes_a_fixed_number_of_jet_calls(zoo, name, monkeypatch):
    # one curvatures call (Gamma at the points, then at their stencil rows)
    # and one frobenius_torsions call (the jets, then their jacobian
    # probes), whatever count
    _, S = zoo(name)
    real = connection_matrices
    for count in (3, 12):
        calls = {"connection_matrices": [], "mu_many": 0}

        def counting(nabla, frame, M, W):
            calls["connection_matrices"].append(len(M))
            return real(nabla, frame, M, W)

        monkeypatch.setattr(curvature_mod, "connection_matrices", counting)
        flatness_experiment(_counted_connection(S, calls), seed=2, count=count)
        n = S.model.n
        assert calls == {"connection_matrices": [n * count, 2 * n * n * count], "mu_many": 4}


def _raising_near(S, faults):
    """S whose jets raise ValueError(label) at any stack holding an arrow
    within 1e-2 of faults[label], in the order of faults."""

    def mu_many(G):
        for label, x in faults.items():
            if np.any(np.max(np.abs(G - x), axis=1) < 1e-2):
                raise ValueError(label)
        return S.mu_many(G)

    return CartanConnection(S.model, batch_of_one(mu_many), name=S.name)


def _nan_near(S, points):
    """S whose jets are NaN at arrows within 1e-2 of any of points."""

    def mu_many(G):
        mu = S.mu_many(G).copy()
        near = np.zeros(len(G), dtype=bool)
        for x in points:
            near |= np.max(np.abs(G - x), axis=1) < 1e-2
        mu[near] = np.nan
        return mu

    return CartanConnection(S.model, batch_of_one(mu_many), name=S.name)


def _drawn_samples(model, seed, count):
    """The base points and arrows flatness_experiment draws at seed."""
    rng = np.random.default_rng(seed)
    samples = [(sample_base_point(model, rng), model.sample_arrow(rng).coords)
               for _ in range(count)]
    return [np.array(field) for field in zip(*samples)]


def test_flatness_error_aborts_as_the_per_sample_loop_does(zoo):
    # the torsion of sample 1 raises and so does the curvature of sample 2:
    # the stacked curvatures meet sample 2's error first, but the report
    # aborts with sample 1's, the one the per-sample loop meets
    model, S = zoo("pair-R2")
    M, G = _drawn_samples(model, 5, 4)
    faulty = _raising_near(S, {"curvature of sample 2": model.unit(M[2]),
                               "torsion of sample 1": G[1]})
    with raises(ValueError, match="torsion of sample 1"):
        _flatness_per_sample(faulty, seed=5, count=4)
    with raises(ValueError, match="torsion of sample 1"):
        flatness_experiment(faulty, seed=5, count=4)


def test_flatness_draw_error_aborts_as_the_per_sample_loop_does(zoo, monkeypatch):
    # the draw of the third base point raises, and the curvature of the
    # fourth sample would: both abort at that draw, and the later fault
    # never shows
    model, S = zoo("pair-R2")
    M, _ = _drawn_samples(model, 5, 4)
    real = curvature_mod.sample_base_point

    def third_point_raises(model, rng):
        m = real(model, rng)
        if np.array_equal(m, M[2]):
            raise ArithmeticError("third draw")
        return m

    monkeypatch.setattr(curvature_mod, "sample_base_point", third_point_raises)
    faulty = _raising_near(S, {"curvature of sample 3": model.unit(M[3])})
    for run in (_flatness_per_sample, flatness_experiment):
        with raises(ArithmeticError, match="third draw"):
            run(faulty, seed=5, count=4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_flatness_nan_sample_is_recorded_as_the_per_sample_loop_does(zoo):
    # NaN jets at sample 2's unit arrows and at sample 1's arrow: the tables
    # carry NaN in those rows alone, as the per-sample loop's do, and the
    # report is not finite
    model, S = zoo("isojet-sphere")
    M, G = _drawn_samples(model, 5, 4)
    nan = _nan_near(S, [model.unit(M[2]), G[1]])
    report = flatness_experiment(nan, seed=5, count=4)
    _assert_same_tables(report, _flatness_per_sample(nan, seed=5, count=4))
    assert np.isnan(report.curvature_norms[2]) and np.isnan(report.torsion_norms[1])
    assert not report.finite and not report.agreement


def test_reconstruction_flatness_precondition_is_one_curvatures_call(zoo, monkeypatch):
    # the three probes (m0, then m0 +- GRID_RADIUS) go to one curvatures
    # call, and the first probe that exceeds the tolerance is named
    model, S = zoo("isojet-perturbed")
    calls = []
    real = curvatures

    def counting(nabla, M):
        calls.append(np.array(M))
        return real(nabla, M)

    monkeypatch.setattr(curvature_mod, "curvatures", counting)
    m0 = PERTURBED_BOX.mean(axis=1)
    with raises(FlatnessError) as info:
        reconstruct_action(infinitesimalize(S, "direct-formula"), m0, sample_count=1)
    [M] = calls
    assert np.array_equal(M, [m0, m0 + GRID_RADIUS, m0 - GRID_RADIUS])
    c = curvature(infinitesimalize(S), m0).norm_inf
    assert str(info.value) == (f"curvature {c:.2e} above {curvature_mod.FLATNESS_TOL:.1e} "
                               f"at {m0}; reconstruction requires a flat connection")


def test_reconstruction_flatness_error_comes_before_a_later_probe_error(zoo, monkeypatch):
    # the stacked call raises for the last probe, but the first probe's
    # curvature exceeds the tolerance: the rerun probe by probe raises the
    # FlatnessError the loop over the probes meets first
    model, S = zoo("isojet-perturbed")
    m0 = PERTURBED_BOX.mean(axis=1)
    real = curvatures

    def last_probe_raises(nabla, M):
        if np.any(np.all(np.asarray(M) == m0 - GRID_RADIUS, axis=1)):
            raise ValueError("last probe")
        return real(nabla, M)

    monkeypatch.setattr(curvature_mod, "curvatures", last_probe_raises)
    with raises(FlatnessError, match="curvature"):
        reconstruct_action(infinitesimalize(S, "direct-formula"), m0, sample_count=1)
    # on a flat connection the same fault is the error the probes meet
    _, flat = zoo("isojet-sphere")
    m0 = np.zeros(2)
    with raises(ValueError, match="last probe"):
        reconstruct_action(infinitesimalize(flat, "direct-formula"), m0, sample_count=1)
