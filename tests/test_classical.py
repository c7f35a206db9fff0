import dataclasses

import numpy as np
import pytest
from pytest import raises

from cartanlab.connection import check_multiplicative, infinitesimalize
from cartanlab.errors import SliceError
from cartanlab.chartcalc import differentiate, directional_derivative
from cartanlab.groupoid import (
    AffineSection,
    algebroid_vec,
    identity_jet,
    jet_distance,
    random_section,
    right_translate,
    sample_base_point,
)
from cartanlab.jetalg import adjoint_vec, jet_invert
from cartanlab.models.classical import (
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
from cartanlab.models.rotations import rot2


@pytest.fixture(scope="module")
def bridge():
    cc = se2_maurer_cartan()
    model, S = classical_to_groupoid(cc)
    return cc, model, S


def test_parallelism_axioms(bridge, rng):
    cc, _, _ = bridge
    errs = classical_invariants(cc, rng, count=40)
    assert errs["generator"] <= 1e-9
    assert errs["equivariance"] <= 1e-9
    assert errs["min_abs_det"] > 1e-9


def test_gauge_connection_multiplicative_and_unital(bridge, rng):
    cc, model, S = bridge
    assert check_multiplicative(S, seed=8, count=40) <= 1e-7
    m = sample_base_point(model, rng)
    assert jet_distance(S.jet(model.unit_arrow(m)), identity_jet(model, m)) < 1e-12


def test_gauge_jets_independent_of_representative_lift(bridge, rng):
    # pushing the same parallelism bisection of the total-space pair groupoid
    # down through two different representative lifts gives the same slice jet
    cc, model, S = bridge

    def project(q, p):
        h = cc.normalizer(p)
        return np.concatenate([cc.h_act(q, cc.h_inv(h)), cc.pi(p)])

    for _ in range(5):
        g = model.sample_arrow(rng)
        q0, m0 = g.coords[:3], g.coords[3:]
        # left translation by a = q0 . sigma(m0)^-1 realizes the horizontal
        # bisection through the coset of (q0, sigma(m0))
        th, b = q0[0], q0[1:]
        a = np.array([th, b[0] - (rot2(th) @ m0)[0], b[1] - (rot2(th) @ m0)[1]])

        def left(p):
            return np.array([a[0] + p[0], *(a[1:] + rot2(a[0]) @ p[1:])])

        def lifted_bisection(hfun):
            def bis(m):
                p = cc.h_act(cc.sigma(m), hfun(m))
                return project(left(p), p)

            return bis

        from cartanlab.groupoid import oracle_jet

        j_plain = oracle_jet(model, lifted_bisection(lambda m: np.zeros(1)), m0)
        j_tilted = oracle_jet(
            model, lifted_bisection(lambda m: np.array([0.3 + 0.2 * m[0]])), m0)
        assert jet_distance(j_plain, j_tilted) < 1e-8
        assert np.max(np.abs(j_plain.mu - S.mu_at(g.coords))) < 1e-8


def test_maurer_cartan_equation(bridge, rng):
    cc, _, _ = bridge
    for _ in range(10):
        p = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        Om = classical_curvature(cc, se2_v_bracket, p)
        assert np.max(np.abs(Om)) <= 1e-6
        assert np.max(np.abs(Om + np.transpose(Om, (1, 0, 2)))) == 0.0


def test_classical_curvature_requires_bracket(bridge):
    cc, _, _ = bridge
    with raises(ValueError):
        classical_curvature(cc, None, np.zeros(3))


def test_mismatched_model_data_flat_parallelism_derivative(bridge, rng):
    # same parallelism, rotation-algebra model data: the curvature is far from
    # zero yet covariantly constant in the parallel frame
    cc, _, _ = bridge
    for _ in range(5):
        p = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        F0, dF = classical_curvature_parallel_frame(cc, so3_v_bracket, p)
        assert np.max(np.abs(F0)) > 0.5
        assert np.max(np.abs(dF)) <= 1e-4


def test_roundtrip_connection_direction(bridge, rng):
    cc, model, S = bridge
    rec = recover_omega(S, np.zeros(2))
    model2, S2 = classical_to_groupoid(rebuild_classical(rec, cc))
    for _ in range(15):
        g = model.sample_arrow(rng)
        assert np.max(np.abs(np.asarray(S.mu_at(g.coords))
                             - np.asarray(S2.mu_at(g.coords)))) <= 1e-6


def test_roundtrip_parallelism_direction(bridge, rng):
    cc, model, S = bridge
    rec = recover_omega(S, np.zeros(2))
    u0 = cc.sigma(np.zeros(2))
    lam = rec.omega_matrix(u0) @ np.linalg.inv(
        np.asarray(cc.omega_matrix(u0), dtype=float))
    for _ in range(15):
        u = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        got = rec.omega_matrix(u)
        want = lam @ np.asarray(cc.omega_matrix(u), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-6


def test_recovered_parallelism_axioms(bridge, rng):
    # the recovered one-form reproduces structure-algebra elements on their
    # generators and is equivariant under the isotropy action
    cc, model, S = bridge
    m0 = np.zeros(2)
    rec = recover_omega(S, m0)
    fiber, project = rec.fiber, rec.project
    K0 = rec.v_basis
    from cartanlab.chartcalc import deriv_at_zero

    # isotropy direction at m0: the theta-translation of the gauge slice chart
    xi_vec = np.zeros(model.N)
    xi_vec[0] = 1.0
    assert np.max(np.abs(model.Ttgt(model.unit(m0)) @ xi_vec)) < 1e-9
    want = np.linalg.lstsq(K0, xi_vec, rcond=None)[0]

    for _ in range(5):
        u = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        p = fiber(u)

        def right_action_curve(t):
            h = model.retract_tgt(model.unit(m0) + t * xi_vec, m0)
            return project(model.mul(p, h))

        gen = deriv_at_zero(right_action_curve)
        got = rec.omega(u, gen)
        assert np.max(np.abs(got - want)) <= 1e-7

        # equivariance under a finite isotropy arrow
        phi = float(rng.uniform(-0.4, 0.4))
        h_arrow = model.arrow(np.concatenate([cc.h_act(cc.sigma(m0), [phi]), m0]))
        du = rng.uniform(-1.0, 1.0, size=3)
        moved_u = project(model.mul(p, h_arrow.coords))
        dmoved = deriv_at_zero(
            lambda t: project(model.mul(fiber(u + t * du), h_arrow.coords)))
        lhs = rec.omega(moved_u, dmoved)
        hx = jet_invert(model, S.jet(h_arrow))
        rep_mat = np.linalg.lstsq(
            K0, np.stack([adjoint_vec(model, hx,
                                      algebroid_vec(model, m0, K0[:, j], check=False)).vec
                          for j in range(3)], axis=1), rcond=None)[0]
        rhs = rep_mat @ rec.omega(u, du)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7


def test_nabla_bar_examples(bridge, rng):
    # the parallelism derivative kills parallel fields and reduces to the Lie
    # bracket against vertical fields, both arguments invariant under the
    # structure group
    cc, model, S = bridge
    from cartanlab.chartcalc import directional_derivative

    W = lambda p: np.asarray(cc.omega_matrix(p), dtype=float)

    def nabla_bar(Y, p, z):
        return np.linalg.solve(W(p), directional_derivative(
            lambda q: W(q) @ Y(q), p, z))

    def invariant_field(w_of_m):
        # extension of a slice field by the right structure-group action
        def field(p):
            mm = cc.pi(p)
            Dp = cc.h_act_jac_many(cc.sigma(mm)[None], cc.normalizer(p)[None])[0][0]
            return Dp @ w_of_m(mm)

        return field

    for _ in range(5):
        p = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        v0 = rng.uniform(-1, 1, size=3)
        parallel = lambda q: np.linalg.solve(W(q), v0)
        z = rng.uniform(-1, 1, size=3)
        assert np.max(np.abs(nabla_bar(parallel, p, z))) <= 1e-9

        C = rng.uniform(-0.5, 0.5, size=(3, 2))
        c0 = rng.uniform(-0.5, 0.5, size=3)
        X = invariant_field(lambda mm: c0 + C @ mm)
        fvert = invariant_field(
            lambda mm: np.array([1.0 + 0.4 * mm[0] - 0.3 * mm[1], 0.0, 0.0]))
        lie = (directional_derivative(fvert, p, X(p))
               - directional_derivative(X, p, fvert(p)))
        got = nabla_bar(fvert, p, X(p))
        assert np.max(np.abs(got - lie)) <= 1e-7


def test_induced_connection_matches_infinitesimalization(bridge, rng):
    cc, model, S = bridge
    nw = nabla_omega(cc, model)
    nd = infinitesimalize(S, "direct-formula")
    nf = infinitesimalize(S, "flow-formula")
    for _ in range(5):
        m = sample_base_point(model, rng)
        v = rng.uniform(-1, 1, size=2)
        X = random_section(model, rng)
        a = nw(m, v, X).vec
        assert np.max(np.abs(a - nd(m, v, X).vec)) <= 1e-4
        assert np.max(np.abs(a - nf(m, v, X).vec)) <= 1e-4


def _nabla_omega_per_sample(cc, m, v, Z):
    """nabla_omega at one sample as it was computed before its stacked form:
    each invariant extension point by point, each of the three directional
    differences a directional_derivative of its own."""
    k = cc.p_dim

    def invariant_extension(vec_of_m):
        def field(p):
            mm = cc.pi(p)
            Dp = cc.h_act_jac_many(cc.sigma(mm)[None], cc.normalizer(p)[None])[0][0]
            return Dp @ vec_of_m(mm)

        return field

    p0 = cc.sigma(m)
    Zf = invariant_extension(lambda mm: np.asarray(Z(mm), dtype=float)[:k])
    Yf = invariant_extension(lambda mm: cc.sigma_jac_many(mm[None])[0] @ v)
    z0 = Zf(p0)

    def omega_of_Y(p):
        return np.asarray(cc.omega_matrix(p), dtype=float) @ Yf(p)

    dbar = np.linalg.solve(np.asarray(cc.omega_matrix(p0), dtype=float),
                           directional_derivative(omega_of_Y, p0, z0))
    bracket = (directional_derivative(Yf, p0, z0)
               - directional_derivative(Zf, p0, Yf(p0)))
    return np.concatenate([dbar - bracket, np.zeros(cc.n)])


@pytest.mark.parametrize("recovered", [False, True], ids=["maurer-cartan", "recovered"])
@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
def test_stacked_nabla_omega_rows_equal_the_per_sample_form(bridge, jacobians, recovered):
    # one nabla call over a family of drawn sections, a zero direction among
    # the samples, equals the per-sample form at each row bit for bit, on
    # non-contiguous views too; a recovered parallelism has no omega_matrix.many
    cc, model, S = bridge
    if recovered:
        cc = rebuild_classical(recover_omega(S, np.zeros(model.n)), cc)
        assert not hasattr(cc.omega_matrix, "many")
    if not jacobians:
        model = model.without_jacobians()
    nw = nabla_omega(cc, model)
    assert nw.nabla_rows is None
    rng = np.random.default_rng(97)
    M = np.stack([sample_base_point(model, rng) for _ in range(6)])
    V = rng.uniform(-1, 1, size=(6, model.n))
    V[2] = 0.0
    sections = [random_section(model, rng) for _ in range(6)]
    wide = np.concatenate([M, V], axis=1)
    views = ((M, V, sections), (wide[:, :model.n], wide[:, model.n:], sections),
             (M[::-2], V[::-2], sections[::-2]))
    for Ms, Vs, Xs in views:
        D = nw.nabla(Ms, Vs, AffineSection.stack_of(Xs))
        assert D.shape == (len(Ms), model.N)
        for a, X in enumerate(Xs):
            assert np.array_equal(D[a], _nabla_omega_per_sample(cc, Ms[a], Vs[a], X)), a
            assert np.array_equal(nw(Ms[a], Vs[a], X).vec, D[a]), a


def test_bridge_fails_on_nan_curvature_magnitude(monkeypatch):
    # min(inf, nan) == inf > 0.1 would pass the check on an all-NaN curvature
    from cartanlab import experiments
    from cartanlab.report import ExperimentConfig

    def nan_curvature(cc, bracket_v, p):
        F0, dF = classical_curvature_parallel_frame(cc, bracket_v, p)
        return np.full_like(F0, np.nan), dF

    monkeypatch.setattr(experiments, "classical_curvature_parallel_frame", nan_curvature)
    rep = experiments.run(ExperimentConfig(model="gauge-se2-so2", experiment="classical-bridge",
                                           seed=1, sample_count=5))
    check = next(c for c in rep.checks if c.name == "mismatched-model-curvature-nonzero")
    assert check.max_error == 1.0 and not check.passed


def test_slice_check_refuses_a_nan_projection():
    # a copy whose stacked pi gives NaN reaches the single-point and the
    # stacked paths alike: unit refuses it on both, tgt returns it on both
    cc = dataclasses.replace(se2_maurer_cartan(),
                             pi_many=lambda P: np.full((len(P), 2), np.nan))
    model, _ = classical_to_groupoid(cc)
    M, G = np.zeros((3, 2)), np.zeros((3, 5))
    with raises(SliceError):
        model.unit(M[0])
    with raises(SliceError):
        model.unit.many(M)
    assert np.isnan(model.tgt(G[0])).all() and np.isnan(model.tgt.many(G)).all()
    # the stacked check names the first row that fails
    cc = dataclasses.replace(
        se2_maurer_cartan(), pi_many=lambda P: np.where(P[:, 1:] > 0.5, np.nan, P[:, 1:]))
    model, _ = classical_to_groupoid(cc)
    with raises(SliceError, match=r"at \[0\.6 0\. \] \(nan\)"):
        model.unit.many(np.array([[0.1, 0.0], [0.6, 0.0], [0.7, 0.0]]))


def test_gauge_hooks_call_each_bundle_jacobian_once_per_stack(rng):
    # the hooks, the chart-map jacobians and the jets are written on stacks:
    # each reads each bundle jacobian it needs in one call, whatever k
    base = se2_maurer_cartan()
    calls = []

    def counted(name):
        def jac_many(*stacks):
            calls.append((name, len(stacks[0])))
            return getattr(base, name)(*stacks)
        return jac_many

    jacs = ("pi_jac_many", "sigma_jac_many", "normalizer_jac_many", "h_act_jac_many",
            "h_inv_jac_many")
    model, S = classical_to_groupoid(
        dataclasses.replace(base, **{name: counted(name) for name in jacs}))
    pairs = [model.sample_composable(rng) for _ in range(5)]
    G = np.array([g.coords for g, _ in pairs])
    H = np.array([h.coords for _, h in pairs])
    M = np.array([g.target for g, _ in pairs])
    reads = [(model.mul_jac_many, (G, H), ["h_act", "normalizer"]),
             (model.inv_jac_many, (G,), ["h_act", "h_inv", "normalizer", "sigma", "pi"]),
             (model.retract_tgt_jac_many, (G, M), ["h_act", "normalizer", "sigma"]),
             (model.tgt.jacobian, (G,), ["pi"]),
             (model.unit.jacobian, (M,), ["sigma"]),
             (S.mu_at.many, (G,), ["sigma"])]
    for k in (1, 2, 5):
        for func, args, names in reads:
            calls.clear()
            func(*(X[:k] for X in args))
            assert calls == [(name + "_jac_many", k) for name in names]


def _recovered_omega_column_by_column(S, rec, u):
    """recover_omega's matrix at u with each chart direction translated and
    adjoined on its own, as a loop over single-point calls."""
    model = S.model
    g = model.arrow(rec.fiber(u))
    ginv = model.arrow(model.inv(g.coords))
    mu_inv = jet_invert(model, S.jet(g))
    Demb = differentiate(rec.fiber, u)
    cols = [adjoint_vec(model, mu_inv, algebroid_vec(
        model, g.target, right_translate(model, ginv, g, Demb[:, j]), check=False)).vec
        for j in range(Demb.shape[1])]
    return np.linalg.lstsq(rec.v_basis, np.stack(cols, axis=1), rcond=None)[0]


def test_recovered_parallelism_from_a_jacobian_free_fibre_chart(bridge, rng):
    # and the r columns, taken in one stacked call each, equal the columns
    # taken one by one bit for bit, with and without jacobians
    cc, model, S = bridge

    def fiber_without_jacobian(m0):
        emb, project = model.src_fiber_chart(m0)
        return dataclasses.replace(emb, jacobian=None), project

    fd_model = dataclasses.replace(model, src_fiber_chart=fiber_without_jacobian)
    rec = recover_omega(S, np.zeros(2))
    S_fd = dataclasses.replace(S, model=fd_model)
    rec_fd = recover_omega(S_fd, np.zeros(2))
    S_nojac = dataclasses.replace(S, model=model.without_jacobians())
    for _ in range(3):
        u = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        assert np.max(np.abs(rec_fd.omega_matrix(u) - rec.omega_matrix(u))) < 1e-8
        for conn in (S, S_fd, S_nojac):
            rec_conn = recover_omega(conn, np.zeros(2))
            assert np.array_equal(rec_conn.omega_matrix(u),
                                  _recovered_omega_column_by_column(conn, rec_conn, u))
