import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import raises

from cartanlab import chartcalc, groupoid, jetalg
from cartanlab.connection import CartanConnection
from cartanlab.errors import BaseMismatchError, DomainError, SingularError
from cartanlab.groupoid import (
    Jet1,
    Jets,
    algebroid_vec,
    extend_bisection,
    extend_bisections,
    identity_jet,
    identity_jets,
    jet_distance,
    oracle_jet,
    oracle_jet_inverse,
    oracle_jet_inverses,
    oracle_jet_mul,
    oracle_jet_muls,
    oracle_jets,
    right_translate,
    sample_base_point,
)
from cartanlab.jetalg import (
    KERNEL_MIN_DET,
    KernelDraw,
    KernelHom,
    KernelHoms,
    adjoint,
    adjoint_hom,
    adjoint_hom_many,
    adjoint_tm,
    adjoint_tm_many,
    adjoint_vec,
    adjoint_vec_many,
    aut_inv,
    aut_inv_many,
    aut_mul,
    aut_mul_many,
    deferred_kernel_hom,
    jet_assemble,
    jet_assemble_many,
    jet_decompose,
    jet_decompose_many,
    jet_invert,
    jet_invert_many,
    jet_mul,
    jet_mul_many,
    mul_kernel_left,
    mul_kernel_left_many,
    mul_kernel_right,
    mul_kernel_right_many,
    random_jet,
    random_kernel_hom,
    unvee,
    vee,
    vee_many,
    zero_kernel_hom,
)
from cartanlab.models import MODELS, make_model
from cartanlab.models.pair import make_pair_groupoid

from conftest import CORE_MODELS


@pytest.fixture(scope="module")
def pair_r1():
    return make_pair_groupoid(np.array([[-4.0, 4.0]]))


def scalar_hom(model, m, value):
    """Kernel element on the pair groupoid of R: rank-one algebra with unit anchor."""
    return KernelHom(model, np.asarray(m, dtype=float),
                     np.array([[value], [0.0]]))


def test_aut_mul_unit_and_scalar_formula(pair_r1):
    model, _ = pair_r1
    m = np.array([0.5])
    psi = scalar_hom(model, m, 0.5)
    phi = scalar_hom(model, m, 0.25)
    assert np.max(np.abs(aut_mul(zero_kernel_hom(model, m), phi).phi - phi.phi)) == 0.0
    # psi phi = psi + phi - psi . anchor . phi with anchor = 1 on this model
    assert np.allclose(aut_mul(psi, phi).phi, [[0.625], [0.0]], atol=1e-15)


def test_aut_mul_tm_homomorphism(pair_r1, rng):
    model, _ = pair_r1
    m = np.array([-0.3])
    psi = random_kernel_hom(model, m, rng)
    phi = random_kernel_hom(model, m, rng)
    lhs = aut_mul(psi, phi).phi_tm
    assert np.max(np.abs(lhs - psi.phi_tm @ phi.phi_tm)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-0.8, 0.8), b=st.floats(-0.8, 0.8), c=st.floats(-0.8, 0.8))
def test_aut_mul_associativity_scalar(a, b, c):
    # rank-one kernel group with unit anchor: (a.b).c == a.(b.c) whenever the
    # intermediate elements stay invertible
    model, _ = make_pair_groupoid(np.array([[-1.0, 1.0]]))
    m = np.array([0.0])
    xs = [scalar_hom(model, m, v) for v in (a, b, c)]
    if not KernelHoms.of(xs).invertible().all():
        return
    ab, bc = aut_mul(xs[0], xs[1]), aut_mul(xs[1], xs[2])
    if not KernelHoms.of([ab, bc]).invertible().all():
        return
    lhs = aut_mul(ab, xs[2]).phi
    rhs = aut_mul(xs[0], bc).phi
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_aut_mul_base_mismatch(pair_r1, rng):
    model, _ = pair_r1
    psi = random_kernel_hom(model, np.array([0.1]), rng)
    phi = random_kernel_hom(model, np.array([0.7]), rng)
    with raises(BaseMismatchError):
        aut_mul(psi, phi)


def test_aut_inv_scalar_and_involution(pair_r1, rng):
    model, _ = pair_r1
    m = np.array([0.2])
    assert np.max(np.abs(aut_inv(zero_kernel_hom(model, m)).phi)) == 0.0
    phi = scalar_hom(model, m, 0.5)
    assert np.allclose(aut_inv(phi).phi, [[-1.0], [0.0]], atol=1e-15)
    for _ in range(10):
        phi = random_kernel_hom(model, m, rng)
        assert np.max(np.abs(aut_inv(aut_inv(phi)).phi - phi.phi)) < 1e-9
        assert np.max(np.abs(aut_mul(aut_inv(phi), phi).phi)) < 1e-9


def test_aut_inv_singular(pair_r1):
    model, _ = pair_r1
    phi = scalar_hom(model, np.array([0.0]), 1.0)  # phi_tm = 0
    with raises(SingularError):
        aut_inv(phi)


# a NaN determinant is singular: `abs(det) < tol` is False for NaN, and each
# guard below returned an all-NaN result instead of raising


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_aut_inv_refuses_a_nan_kernel_element(pair_r1):
    model, _ = pair_r1
    with raises(SingularError):
        aut_inv(scalar_hom(model, np.array([0.0]), np.nan))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_jet_invert_refuses_a_nan_jet(zoo):
    model, _ = zoo("se2-action")
    g = model.arrow(np.array([0.1, 0.2, -0.1, 0.3, 0.2]))
    with raises(SingularError):
        jet_invert(model, Jet1(g, np.full((model.N, model.n), np.nan)))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_jet_decompose_refuses_a_nan_horizontal_jet(zoo):
    model, S = zoo("se2-action")
    g = model.arrow(np.array([0.1, 0.2, -0.1, 0.3, 0.2]))
    with raises(SingularError):
        jet_decompose(model, S.jet(g), lambda a: Jet1(a, np.full((model.N, model.n), np.nan)))


@pytest.mark.parametrize("name", CORE_MODELS)
def test_vee_embedding(zoo, name, rng):
    model, _ = zoo(name)
    m = sample_base_point(model, rng)
    ident = vee(zero_kernel_hom(model, m))
    assert jet_distance(ident, identity_jet(model, m)) < 1e-12
    phi = random_kernel_hom(model, m, rng)
    j = vee(phi)
    # lands exactly in the kernel of the projection to arrows
    assert np.max(np.abs(j.g.coords - model.unit(m))) == 0.0
    # acts on TM by phi_tm and on the algebroid by phi_g
    assert np.max(np.abs(adjoint_tm(model, j) - phi.phi_tm)) < 1e-8
    X = algebroid_vec(model, m, random_kernel_hom(model, m, rng).phi[:, 0],
                      check=False)
    assert np.max(np.abs(adjoint_vec(model, j, X).vec - phi.phi_g(X).vec)) < 1e-8
    assert np.max(np.abs(unvee(model, j).phi - phi.phi)) < 1e-12


def test_adjoint_identity_and_affine_slope(pair_r1, rng):
    model, S = pair_r1
    m = np.array([1.0])
    ident = identity_jet(model, m)
    v = np.array([0.83])
    assert np.allclose(adjoint(model, ident, v), v, atol=1e-12)
    # jet of b(m) = (a m + c, m): the TM-action is multiplication by a
    a, c = 1.7, 0.4
    j = oracle_jet(model, lambda x: np.array([a * x[0] + c, x[0]]), m)
    assert np.max(np.abs(adjoint_tm(model, j) - np.array([[a]]))) < 1e-9


@pytest.mark.parametrize("name", CORE_MODELS)
def test_adjoint_anchor_equivariance(zoo, name, rng):
    model, S = zoo(name)
    for _ in range(5):
        g = model.sample_arrow(rng)
        mu = random_jet(model, S.jet, g, rng)
        X = algebroid_vec(model, g.source,
                          random_kernel_hom(model, g.source, rng).phi[:, 0],
                          check=False)
        lhs = model.Ttgt(model.unit(g.target)) @ adjoint_vec(model, mu, X).vec
        rhs = adjoint_tm(model, mu) @ (model.Ttgt(model.unit(g.source)) @ X.vec)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_jet_invert_identity_affine_and_involution(pair_r1, rng):
    model, S = pair_r1
    m = np.array([1.0])
    ident = identity_jet(model, m)
    assert jet_distance(jet_invert(model, ident), ident) < 1e-12
    j = oracle_jet(model, lambda x: np.array([2.0 * x[0], x[0]]), m)
    jinv = jet_invert(model, j)
    assert np.allclose(jinv.g.coords, [1.0, 2.0], atol=1e-12)
    assert abs(adjoint_tm(model, jinv)[0, 0] - 0.5) < 1e-9
    for _ in range(8):
        g = model.sample_arrow(rng)
        mu = random_jet(model, S.jet, g, rng)
        assert jet_distance(jet_invert(model, jet_invert(model, mu)), mu) < 1e-8


@pytest.mark.parametrize("name", CORE_MODELS)
def test_jet_invert_matches_oracle(zoo, name, rng):
    model, S = zoo(name)
    for _ in range(8):
        g = model.sample_arrow(rng)
        mu = random_jet(model, S.jet, g, rng)
        assert jet_distance(jet_invert(model, mu),
                            oracle_jet_inverse(model, mu)) < 1e-7
        check = oracle_jet_mul(model, jet_invert(model, mu), mu)
        assert jet_distance(check, identity_jet(model, g.source)) < 1e-7


@pytest.mark.parametrize("name", CORE_MODELS)
def test_mul_kernel_right_against_oracle(zoo, name, rng):
    model, S = zoo(name)
    for _ in range(8):
        g = model.sample_arrow(rng)
        mu = random_jet(model, S.jet, g, rng)
        phi = random_kernel_hom(model, g.source, rng)
        closed = mul_kernel_right(model, mu, phi)
        assert jet_distance(closed, oracle_jet_mul(model, mu, vee(phi))) < 1e-7
        # trivial kernel factor
        zero = zero_kernel_hom(model, g.source)
        assert jet_distance(mul_kernel_right(model, mu, zero), mu) < 1e-12


def test_mul_kernel_right_reduces_to_kernel_product(zoo, rng):
    model, S = zoo("se2-action")
    m = sample_base_point(model, rng)
    psi = random_kernel_hom(model, m, rng)
    phi = random_kernel_hom(model, m, rng)
    via_jets = mul_kernel_right(model, vee(psi), phi)
    via_kernel = vee(aut_mul(psi, phi))
    assert jet_distance(via_jets, via_kernel) < 1e-9


@pytest.mark.parametrize("name", CORE_MODELS)
def test_decompose_assemble_roundtrip(zoo, name, rng):
    model, S = zoo(name)
    for _ in range(8):
        g = model.sample_arrow(rng)
        nu = random_jet(model, S.jet, g, rng)
        garr, phi = jet_decompose(model, nu, S.jet)
        assert jet_distance(jet_assemble(model, garr, phi, S.jet), nu) < 1e-7
        # horizontal jets decompose with a vanishing kernel part
        _, phi0 = jet_decompose(model, S.jet(g), S.jet)
        assert np.max(np.abs(phi0.phi)) < 1e-9


def test_decompose_kernel_case(zoo, rng):
    model, S = zoo("se2-action")
    m = sample_base_point(model, rng)
    phi = random_kernel_hom(model, m, rng)
    garr, phi_back = jet_decompose(model, vee(phi), S.jet)
    assert np.max(np.abs(garr.coords - model.unit(m))) < 1e-12
    assert np.max(np.abs(phi_back.phi - phi.phi)) < 1e-9


@pytest.mark.parametrize("name", CORE_MODELS)
def test_jet_mul_identities_and_oracle(zoo, name, rng):
    model, S = zoo(name)
    for _ in range(6):
        g, h = model.sample_composable(rng)
        mu1 = random_jet(model, S.jet, g, rng)
        mu2 = random_jet(model, S.jet, h, rng)
        # unit factors
        left_unit = identity_jet(model, mu1.g.target)
        assert jet_distance(jet_mul(model, left_unit, mu1, S.jet), mu1) < 1e-8
        right_unit = identity_jet(model, mu1.g.source)
        assert jet_distance(jet_mul(model, mu1, right_unit, S.jet), mu1) < 1e-8
        # horizontal times horizontal is horizontal over the product
        prod_arrow = model.arrow(model.mul(g.coords, h.coords))
        assert jet_distance(jet_mul(model, S.jet(g), S.jet(h), S.jet),
                            S.jet(prod_arrow)) < 1e-7
        # general products match the oracle
        assert jet_distance(jet_mul(model, mu1, mu2, S.jet),
                            oracle_jet_mul(model, mu1, mu2)) < 1e-7


@pytest.mark.parametrize("name", ["pair-R2", "se2-action", "gauge-se2-so2"])
def test_conjugation_identity(zoo, name, rng):
    model, S = zoo(name)
    for _ in range(5):
        g = model.sample_arrow(rng)
        mu = random_jet(model, S.jet, g, rng)
        phi = random_kernel_hom(model, g.source, rng)
        conj = oracle_jet_mul(model, oracle_jet_mul(model, mu, vee(phi)),
                              jet_invert(model, mu))
        assert jet_distance(conj, vee(adjoint_hom(model, mu, phi))) < 1e-7


@pytest.mark.parametrize("name", ["se2-action", "isojet-sphere"])
def test_translation_difference_identity(zoo, name, rng):
    # for nu = mu . vee(phi): mu(v) - nu(v) = T R_g Ad_mu (phi v)
    model, S = zoo(name)
    for _ in range(5):
        g = model.sample_arrow(rng)
        mu = random_jet(model, S.jet, g, rng)
        phi = random_kernel_hom(model, g.source, rng)
        nu = mul_kernel_right(model, mu, phi)
        u = model.unit_arrow(g.target)
        for j in range(model.n):
            X = algebroid_vec(model, g.source, phi.phi[:, j], check=False)
            col = right_translate(model, g, u, adjoint_vec(model, mu, X).vec)
            assert np.max(np.abs(mu.mu[:, j] - nu.mu[:, j] - col)) < 1e-7


def test_assemble_bisection_trivial_factors(zoo, rng):
    from cartanlab.jetalg import assemble_bisection

    model, S = zoo("se2-action")
    g = model.sample_arrow(rng)
    b = extend_bisection(model, S.jet(g))
    m = g.source
    # zero kernel section: the assembled bisection is just the jets of b
    assembled = assemble_bisection(model, b, lambda mm: zero_kernel_hom(model, mm))
    assert jet_distance(assembled(m), oracle_jet(model, b, m)) < 1e-12
    # unit bisection: the assembled bisection is the embedded kernel section
    phi = random_kernel_hom(model, m, rng)
    assembled = assemble_bisection(model, lambda x: model.unit(x),
                                   lambda mm, phi=phi: phi)
    assert jet_distance(assembled(m), vee(phi)) < 1e-9


@pytest.mark.parametrize("name", ["se2-action", "so3-sphere"])
def test_adjoint_is_groupoid_morphism(zoo, name, rng):
    model, S = zoo(name)
    for _ in range(5):
        g, h = model.sample_composable(rng)
        mu1 = random_jet(model, S.jet, g, rng)
        mu2 = random_jet(model, S.jet, h, rng)
        prod = jet_mul(model, mu1, mu2, S.jet)
        v = rng.uniform(-1, 1, size=model.n)
        lhs = adjoint(model, prod, v)
        rhs = adjoint(model, mu1, adjoint(model, mu2, v))
        assert np.max(np.abs(lhs - rhs)) < 1e-7
        X = algebroid_vec(model, h.source,
                          random_kernel_hom(model, h.source, rng).phi[:, 0],
                          check=False)
        lhs2 = adjoint_vec(model, prod, X).vec
        rhs2 = adjoint_vec(model, mu1, adjoint_vec(model, mu2, X)).vec
        assert np.max(np.abs(lhs2 - rhs2)) < 1e-7


def test_base_check_refuses_a_nan_base(pair_r1, rng):
    model, _ = pair_r1
    psi = random_kernel_hom(model, np.array([0.1]), rng)
    with raises(BaseMismatchError):
        aut_mul(psi, KernelHom(model, np.array([np.nan]), psi.phi))


def _noncontiguous(a):
    """The values of a stack as a non-contiguous view: each matrix of a 3-d
    stack transposed in memory, each row of a 2-d one strided."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 3:
        return np.swapaxes(np.ascontiguousarray(np.swapaxes(a, 1, 2)), 1, 2)
    return np.repeat(a, 2, axis=1)[:, ::2]


def _viewed_jets(jets):
    J = Jets.of(jets)
    return Jets(*(_noncontiguous(x) for x in (J.coords, J.source, J.target, J.mu)))


def _viewed_homs(homs):
    H = KernelHoms.of(homs)
    return KernelHoms(H.model, _noncontiguous(H.m), _noncontiguous(H.phi))


def _rows_equal(stacked, singles):
    """Row a of a stacked result equals the single call a bit for bit, and
    every matrix of the stacked result is C-contiguous."""
    if isinstance(stacked, Jets):
        parts = [(stacked.coords, [j.g.coords for j in singles]),
                 (stacked.source, [j.g.source for j in singles]),
                 (stacked.target, [j.g.target for j in singles]),
                 (stacked.mu, [j.mu for j in singles])]
    elif isinstance(stacked, KernelHoms):
        parts = [(stacked.m, [h.m for h in singles]), (stacked.phi, [h.phi for h in singles])]
    else:
        parts = [(stacked, singles)]
    for rows, single in parts:
        assert rows.flags.c_contiguous
        assert len(rows) == len(single)
        for row, one in zip(rows, single):
            assert np.array_equal(row, one)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_jet_maps_match_single_calls(name, jacobians):
    model, S = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
        S = CartanConnection(model, S.mu_at, name=S.name)
    rng = np.random.default_rng(37)
    pairs = [model.sample_composable(rng) for _ in range(3)]
    j1s = [random_jet(model, S.jet, g, rng) for g, _ in pairs]
    j2s = [random_jet(model, S.jet, h, rng) for _, h in pairs]
    at_tgt = [random_kernel_hom(model, g.target, rng) for g, _ in pairs]
    at_src = [random_kernel_hom(model, g.source, rng) for g, _ in pairs]
    at_src2 = [random_kernel_hom(model, g.source, rng) for g, _ in pairs]
    xs = [random_kernel_hom(model, g.source, rng).phi[:, 0] for g, _ in pairs]
    J1, J2 = _viewed_jets(j1s), _viewed_jets(j2s)
    Ht, Hs, Hs2 = _viewed_homs(at_tgt), _viewed_homs(at_src), _viewed_homs(at_src2)
    G1 = _noncontiguous([g.coords for g, _ in pairs])
    base, X = _noncontiguous([g.source for g, _ in pairs]), _noncontiguous(xs)
    Xs = [algebroid_vec(model, g.source, x, check=False) for (g, _), x in zip(pairs, xs)]
    cases = [
        (jet_assemble_many(model, G1, Ht, S.mu_many),
         [jet_assemble(model, g, phi, S.jet) for (g, _), phi in zip(pairs, at_tgt)]),
        (jet_invert_many(model, J1), [jet_invert(model, j) for j in j1s]),
        (mul_kernel_right_many(model, J1, Hs),
         [mul_kernel_right(model, j, phi) for j, phi in zip(j1s, at_src)]),
        (mul_kernel_left_many(model, J1, Ht),
         [mul_kernel_left(model, j, phi) for j, phi in zip(j1s, at_tgt)]),
        (jet_decompose_many(model, J1, _noncontiguous(S.mu_many(J1.coords))),
         [jet_decompose(model, j, S.jet)[1] for j in j1s]),
        (jet_mul_many(model, J1, J2, S.mu_many),
         [jet_mul(model, j1, j2, S.jet) for j1, j2 in zip(j1s, j2s)]),
        (adjoint_tm_many(model, J1), [adjoint_tm(model, j) for j in j1s]),
        (adjoint_vec_many(model, J1, base, X),
         [adjoint_vec(model, j, x).vec for j, x in zip(j1s, Xs)]),
        (adjoint_hom_many(model, J1, Hs),
         [adjoint_hom(model, j, phi) for j, phi in zip(j1s, at_src)]),
        (vee_many(Hs), [vee(phi) for phi in at_src]),
        (aut_mul_many(Hs, Hs2), [aut_mul(a, b) for a, b in zip(at_src, at_src2)]),
        (aut_inv_many(Hs), [aut_inv(phi) for phi in at_src]),
        (Hs.phi_tm, [phi.phi_tm for phi in at_src]),
        (Hs.phi_g(base, X), [phi.phi_g(x).vec for phi, x in zip(at_src, Xs)]),
        (identity_jets(model, base), [identity_jet(model, g.source) for g, _ in pairs]),
        (oracle_jets(model, extend_bisections(model, J1), base),
         [oracle_jet(model, extend_bisection(model, j), j.g.source) for j in j1s]),
        (oracle_jet_muls(model, J1, J2), [oracle_jet_mul(model, a, b) for a, b in zip(j1s, j2s)]),
        (oracle_jet_inverses(model, J1), [oracle_jet_inverse(model, j) for j in j1s]),
    ]
    for stacked, singles in cases:
        _rows_equal(stacked, singles)


def test_kernel_draw_reads_the_anchor_matrix_once(zoo, monkeypatch, caplog):
    # on pair-R1, phi_tm = 1 - c for the coefficient c; at a half-range of 2
    # about one candidate in twenty falls below the conditioning floor. The
    # resampling reuses the one anchor matrix of the call, and the log names
    # each rejected candidate's determinant
    model, _ = zoo("pair-R1")
    monkeypatch.setattr(jetalg, "KERNEL_SCALE", 2.0)
    reads = []
    real = type(model).Ttgt

    def counting(self, coords):
        reads.append(coords)
        return real(self, coords)

    monkeypatch.setattr(type(model), "Ttgt", counting)
    rng = np.random.default_rng(0)
    with caplog.at_level(logging.DEBUG, logger="cartanlab.jetalg"):
        draws = [random_kernel_hom(model, np.array([0.1]), rng) for _ in range(60)]
    rejected = [r.args[2] for r in caplog.records if r.msg.startswith("resampling")]
    assert rejected and len(reads) == len(draws)
    assert all(abs(det) < KERNEL_MIN_DET for det in rejected)
    assert all(abs(np.linalg.det(phi.phi_tm)) >= KERNEL_MIN_DET for phi in draws)


# -- stacked kernel draws -------------------------------------------------------

# (n, N) of Tsrc on the shipped models, and of the 3 x 6 of a rank-3 action
KERNEL_SHAPES = [(1, 2), (2, 3), (2, 4), (2, 5), (3, 6)]


def _kernel_basis_loop(A):
    """_kernel_basis as it was written per matrix, the sign canon column by
    column."""
    _, s, vt = np.linalg.svd(A)
    basis = vt[int(np.sum(s > 1e-10)):].T
    for j in range(basis.shape[1]):
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def test_kernel_shapes_cover_every_model():
    for name in MODELS:
        model, _ = make_model(name)
        assert (model.n, model.N) in KERNEL_SHAPES


@pytest.mark.parametrize("n,N", KERNEL_SHAPES)
def test_stacked_linear_algebra_equals_the_per_matrix_calls(n, N):
    # numpy does not promise that a stacked svd, det or matmul rounds each
    # matrix as the call on that matrix alone does; the stacked kernel draws
    # rest on it, in the layouts they use: a basis is a transposed view of
    # vt, and a constant one repeats over the rows with a zero stride
    rng = np.random.default_rng(10 * N + n)
    A = rng.standard_normal((200, n, N))
    for stacked, singles in zip(np.linalg.svd(A), zip(*map(np.linalg.svd, A))):
        assert all(np.array_equal(row, one) for row, one in zip(stacked, singles))
    K = groupoid._kernel_basis_many(A)
    C = rng.uniform(-1.0, 1.0, size=(200, N - n, n))
    phi = K @ C
    assert all(np.array_equal(phi[a], K[a] @ C[a]) for a in range(200))
    K0 = chartcalc.repeated_rows(K[0])(200)
    assert all(np.array_equal(row, K[0] @ c) for row, c in zip(K0 @ C, C))
    B = rng.standard_normal((200, n, N))
    assert all(np.array_equal(row, B[a] @ phi[a]) for a, row in enumerate(B @ phi))
    D = np.eye(n) - B @ phi
    assert all(row == np.linalg.det(D[a]) for a, row in enumerate(np.linalg.det(D)))
    # the basis: row a is the batch of one and the per-matrix loop, signs included
    for a in range(200):
        assert np.array_equal(K[a], groupoid._kernel_basis(A[a]))
        assert np.array_equal(K[a], _kernel_basis_loop(A[a]))
        assert K[a].strides == _kernel_basis_loop(A[a]).strides


def test_stacked_kernel_bases_refuse_rows_of_different_rank():
    A = np.zeros((2, 2, 4))
    A[:, 0, 0] = 1.0
    A[1, 1, 1] = 1.0
    with raises(SingularError):
        groupoid._kernel_basis_many(A)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_kernel_field_resolves_in_one_read_whatever_count(name, jacobians, monkeypatch):
    # with no candidate rejected, a stack of deferred draws makes one
    # anchor_matrices call and, without a constant basis, one stacked SVD,
    # for any count, and equals the eager draws from the same rng state
    model, _ = make_model(name)
    if not jacobians:
        model = model.without_jacobians()
    model.constant_kernel_basis  # its one SVD per model, before the count
    monkeypatch.setattr(jetalg, "KERNEL_MIN_DET", 0.0)
    reads = {"anchor": 0, "svd": 0}

    def counted(key, real):
        def call(*args):
            reads[key] += 1
            return real(*args)
        return call

    monkeypatch.setattr(jetalg, "anchor_matrices", counted("anchor", jetalg.anchor_matrices))
    monkeypatch.setattr(groupoid, "_kernel_basis_many",
                        counted("svd", groupoid._kernel_basis_many))
    for count in (1, 5, 17):
        rng = np.random.default_rng(count)
        points = [sample_base_point(model, rng) for _ in range(count)]
        state = rng.bit_generator.state
        draws = [deferred_kernel_hom(model, m, rng) for m in points]
        reads.update(anchor=0, svd=0)
        homs = KernelDraw.stack_of(draws)
        assert reads == {"anchor": 1, "svd": 0 if jacobians else 1}
        rng.bit_generator.state = state
        eager = [random_kernel_hom(model, m, rng) for m in points]
        assert homs.m.tobytes() == np.array([h.m for h in eager]).tobytes()
        assert homs.phi.tobytes() == np.array([h.phi for h in eager]).tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_rejected_candidate_refuses_the_stack(name, monkeypatch):
    # a floor no candidate meets: the stack is refused (draw_then_evaluate
    # then replays it), never handed on with a candidate below the floor
    model, _ = make_model(name)
    monkeypatch.setattr(jetalg, "KERNEL_MIN_DET", np.inf)
    rng = np.random.default_rng(3)
    draws = [deferred_kernel_hom(model, sample_base_point(model, rng), rng) for _ in range(3)]
    with raises(chartcalc.Redraw):
        KernelDraw.stack_of(draws)


@pytest.mark.parametrize("jacobians", [True, False], ids=["analytic", "fd"])
def test_a_deferred_draw_refuses_a_point_of_the_wrong_dimension(jacobians):
    model, _ = make_model("se2-action")
    if not jacobians:
        model = model.without_jacobians()
    rng = np.random.default_rng(0)
    for m in (np.zeros(model.n + 1), np.zeros((1, model.n)), np.float64(0.0)):
        state = rng.bit_generator.state
        with raises(DomainError):
            deferred_kernel_hom(model, m, rng)
        with raises(DomainError):
            random_kernel_hom(model, m, rng)
        assert rng.bit_generator.state == state
