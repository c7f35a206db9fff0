import dataclasses
import importlib

import numpy as np
import pytest
from pytest import raises

from cartanlab.connection import CartanConnection, infinitesimalize
from cartanlab.curvature import (
    _jacobi_residual,
    _transport_matrix,
    connection_matrix,
    curvature,
    flatness_experiment,
    frobenius_torsion,
    reconstruct_action,
)
from cartanlab.errors import FlatnessError, NonFiniteError
from cartanlab.experiments import run_flatness, run_reconstruct, run_riemannian
from cartanlab.groupoid import aligned_frame, sample_base_point
from cartanlab.models import PERTURBED_BOX
from cartanlab.report import ExperimentConfig

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


def _four_evaluation_transport(nabla, frame, rank, path, steps=16):
    """Reference RK4 transport that evaluates the coefficient at every stage."""
    Y = np.eye(rank)
    h = 1.0 / steps
    dt = 1e-6

    def gdot(t):
        return (np.asarray(path(t + dt), dtype=float)
                - np.asarray(path(t - dt), dtype=float)) / (2 * dt)

    def rhs(t, Y):
        return -connection_matrix(nabla, frame, rank, np.asarray(path(t), dtype=float), gdot(t)) @ Y

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
    _, nab, m0, frame = _transport_setup(zoo, "isojet-sphere")
    calls = []

    def counting(*args):
        calls.append(args)
        return connection_matrix(*args)

    monkeypatch.setattr(curvature_mod, "connection_matrix", counting)
    m1 = m0 + 0.15
    _transport_matrix(nab, frame, frame.rank, lambda t: m0 + t * (m1 - m0), steps=16)
    assert len(calls) == 2 * 16 + 1


@pytest.mark.parametrize("name", ["isojet-sphere", "so3-sphere"])
def test_transport_matches_four_evaluation_rk4_exactly(zoo, name):
    model, nab, m0, frame = _transport_setup(zoo, name)
    r = frame.rank
    offset = np.linspace(0.2, -0.1, model.n)
    paths = [_l_path(m0, m0 + np.full(model.n, 0.2)),
             lambda t: m0 + t * offset]
    for path in paths:
        new = _transport_matrix(nab, frame, r, path)
        old = _four_evaluation_transport(nab, frame, r, path)
        assert np.array_equal(new, old)


def test_transport_raises_on_non_finite_coefficients(zoo, monkeypatch):
    _, nab, m0, frame = _transport_setup(zoo, "isojet-sphere")
    r = frame.rank
    monkeypatch.setattr(curvature_mod, "connection_matrix",
                        lambda *args: np.full((r, r), np.nan))
    with raises(NonFiniteError):
        _transport_matrix(nab, frame, r, lambda t: m0 + t * 0.1)


def test_jacobi_residual_reports_nan_as_infinite():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = np.nan
    c[1, 0, 2] = np.nan
    assert _jacobi_residual(c) == np.inf


def test_curvature_evaluates_point_geometry_once_per_point(monkeypatch):
    # fresh isojet-sphere: each connection_matrix evaluates its stencil jets
    # in one batched call, n + 2 n^2 = 10 per curvature, and the frame's
    # point memo serves the repeated stencil points (without it: 102)
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
    assert calls == {"prolongation_jets": 10, "Tsrc": 26}


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

    monkeypatch.setattr(connection, "oracle_jet_mul", unreachable)
    _, S = make_model("pair-R2")
    rep = flatness_experiment(S, seed=0, count=2)
    assert rep.flat and rep.involutive and rep.agreement


def _nan_row_batches(S):
    """S with the first jet of every batch NaN, the single jets intact."""

    def mu_batch(G):
        mu = S.mu_batch(G).copy()
        mu[0] = np.nan
        return mu

    return dataclasses.replace(S, mu_batch=mu_batch)


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
        nabla_batch=lambda m, v, sections: np.full((model.N, len(sections)), np.nan))
    with raises(FlatnessError, match="curvature nan"):
        reconstruct_action(nan_nabla, np.zeros(2), sample_count=1)


def test_reconstruction_refuses_a_nan_holonomy(zoo, monkeypatch):
    # no RK4 transport returns NaN (rk4 raises first), so the NaN transport
    # matrix is planted
    _, S = zoo("pair-R2")
    monkeypatch.setattr(curvature_mod, "_transport_matrix",
                        lambda nabla, frame, rank, path: np.full((rank, rank), np.nan))
    with raises(FlatnessError, match="holonomy"):
        reconstruct_action(infinitesimalize(S), np.zeros(2), sample_count=1)
