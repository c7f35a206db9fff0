"""Classical Cartan connections on principal bundles and the gauge-groupoid bridge.

A classical connection is a V-valued parallelism omega on the total space P of
a principal H-bundle, with the structure algebra included in V and omega
H-equivariant. From it we build the gauge groupoid (P x P)/H in slice
coordinates together with the induced horizontal-jet connection; conversely,
any multiplicative connection on a transitive model restricts to a parallelism
on a source fibre. The two constructions invert each other up to the canonical
identifications, which the test-suite checks numerically.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from ..chartcalc import (
    ChartMap,
    WorstErrors,
    batch_of_one,
    constant_jacobian,
    deriv_at_zero,
    differentiate,
    directional_derivative,
    jacobian_fd,
    matvecs,
    stacked,
    values_and_directional_derivatives,
    worst_case_min,
)
from ..connection import AlgebroidConnection, CartanConnection, sample_stacks
from ..errors import SliceError, TransitivityError
from ..groupoid import (
    GroupoidModel,
    Jets,
    kernel_basis,
    right_translate_many,
    source_slot,
)
from ..jetalg import adjoint_vec_many, jet_invert
from .actions import se2_group
from .rotations import J2, rot2_many

SLICE_TOL = 1e-10  # how far pi(sigma(m)) may miss m


def _batch_of_one_of(field_name: str) -> cached_property:
    """The single-point form of a stacked field, derived once per instance."""
    return cached_property(lambda self: batch_of_one(getattr(self, field_name)))


@dataclass(frozen=True)
class ClassicalCartan:
    """A V-valued parallelism on a matrix-group chart P with structure group H.

    omega_matrix(p) is the (v_dim, p_dim) matrix of the parallelism at p, with
    its stacked form as .many where it has one; h_basis columns include the
    structure algebra into V; h_rep(h) is the right representation of H on V
    extending the adjoint action. The bundle block fixes slice coordinates for
    the quotient constructions: pi_many, sigma_many, normalizer_many, h_act_many
    and h_inv_many (the H-chart group ops), with their jacobians *_jac_many
    (h_act_jac_many gives the P and H blocks), all on stacks, row a depending
    on row a alone. The single-point pi, sigma, normalizer, h_act and h_inv are
    their batches of one, derived from the stacked fields, so a copy made with
    dataclasses.replace derives them again; the jacobians have no single-point
    form.
    """

    name: str
    p_dim: int
    h_dim: int
    n: int
    omega_matrix: Callable[[np.ndarray], np.ndarray]
    h_basis: np.ndarray  # (v_dim, h_dim)
    h_rep: Callable[[np.ndarray], np.ndarray]
    h_generator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h_act_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h_act_jac_many: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    h_inv_many: Callable[[np.ndarray], np.ndarray]
    h_inv_jac_many: Callable[[np.ndarray], np.ndarray]
    pi_many: Callable[[np.ndarray], np.ndarray]
    pi_jac_many: Callable[[np.ndarray], np.ndarray]
    sigma_many: Callable[[np.ndarray], np.ndarray]
    sigma_jac_many: Callable[[np.ndarray], np.ndarray]
    normalizer_many: Callable[[np.ndarray], np.ndarray]
    normalizer_jac_many: Callable[[np.ndarray], np.ndarray]
    p_box: np.ndarray
    h_box: np.ndarray

    pi = _batch_of_one_of("pi_many")
    sigma = _batch_of_one_of("sigma_many")
    normalizer = _batch_of_one_of("normalizer_many")
    h_act = _batch_of_one_of("h_act_many")
    h_inv = _batch_of_one_of("h_inv_many")

    @property
    def v_dim(self) -> int:
        return self.p_dim

    def omega(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.asarray(self.omega_matrix(p), dtype=float) @ np.asarray(v, dtype=float)


def classical_invariants(cc: ClassicalCartan, rng: np.random.Generator,
                         count: int = 30) -> dict[str, float]:
    """Max deviations of the parallelism axioms over sampled points:
    omega applied to structure-algebra generators returns the algebra element,
    omega is H-equivariant, and omega is pointwise invertible."""
    errs = WorstErrors(("generator", "equivariance"))
    min_abs_det = np.inf
    for _ in range(count):
        p = rng.uniform(cc.p_box[:, 0], cc.p_box[:, 1])
        W = np.asarray(cc.omega_matrix(p), dtype=float)
        min_abs_det = worst_case_min(min_abs_det, float(abs(np.linalg.det(W))))
        xi = rng.uniform(-0.5, 0.5, size=cc.h_dim)
        gen = cc.h_generator(p, xi)
        errs.record("generator", W @ gen - cc.h_basis @ xi)
        h = rng.uniform(cc.h_box[:, 0], cc.h_box[:, 1])
        v = rng.uniform(-1.0, 1.0, size=cc.p_dim)
        Dp = cc.h_act_jac_many(p[None], h[None])[0][0]
        lhs = cc.omega(cc.h_act(p, h), Dp @ v)
        rhs = cc.h_rep(h) @ cc.omega(p, v)
        errs.record("equivariance", lhs - rhs)
    return {**errs, "min_abs_det": min_abs_det}


# -- gauge groupoid in slice coordinates --------------------------------------


def classical_to_groupoid(cc: ClassicalCartan) -> tuple[GroupoidModel, CartanConnection]:
    """Gauge groupoid (P x P)/H in slice coordinates, with the connection whose
    horizontal jets are the one-jets of parallelism-preserving transformations.

    An arrow (q, m) is the class of the pair (q, sigma(m)); the induced
    connection is

        mu(q, m) = [[ W(q)^-1 W(sigma(m)) Dsigma(m) ],
                    [ I ]].

    Every map is written on stacks, from the bundle's stacked maps and
    jacobians: the structure maps, the jacobian hooks (one call of each
    bundle jacobian a hook reads per stack) and the jets, whose single-point
    mu_at, like tgt and unit at one point, is the batch of one. The jets read
    W through omega_matrix.many where the parallelism has it, else point by
    point. unit raises SliceError, naming the first bad row, where
    pi(sigma(m)) misses m by more than SLICE_TOL.
    """
    k = cc.p_dim
    n = cc.n
    N = k + n
    In = np.eye(n)
    pi, sigma, normal, h_act, h_inv = (
        cc.pi_many, cc.sigma_many, cc.normalizer_many, cc.h_act_many, cc.h_inv_many)

    def tgt_many(G):
        return pi(G[:, :k])

    def unit_many(M):
        P = sigma(M)
        defect = np.abs(pi(P) - M)
        if not (defect <= SLICE_TOL).all():  # a NaN fails too
            a = np.flatnonzero(~(defect <= SLICE_TOL).all(axis=1))[0]
            raise SliceError(f"slice section fails pi . sigma = id at {M[a]} "
                             f"({np.max(defect[a]):.2e})")
        return np.concatenate([P, M], axis=1)

    def tgt_jac_many(G):
        D = np.zeros((len(G), n, N))
        D[:, :, :k] = cc.pi_jac_many(G[:, :k])
        return D

    def unit_jac_many(M):
        D = np.zeros((len(M), N, n))
        D[:, :k] = cc.sigma_jac_many(M)
        D[:, k:] = In
        return D

    tgt = ChartMap(N, n, batch_of_one(tgt_many), jacobian=tgt_jac_many, eval_many=tgt_many)
    unit = ChartMap(n, N, batch_of_one(unit_many), jacobian=unit_jac_many,
                    eval_many=unit_many)

    def mul_jac_many(G, H):
        Dg, Dh = np.zeros((2, len(G), N, N))
        Dp, Dhh = cc.h_act_jac_many(G[:, :k], normal(H[:, :k]))
        Dg[:, :k, :k] = Dp
        Dh[:, :k, :k] = Dhh @ cc.normalizer_jac_many(H[:, :k])
        Dh[:, k:, k:] = In
        return Dg, Dh

    def inv_jac_many(G):
        Q, M = G[:, :k], G[:, k:]
        hq = normal(Q)
        Dp, Dh = cc.h_act_jac_many(sigma(M), h_inv(hq))
        D = np.zeros((len(G), N, N))
        D[:, :k, :k] = Dh @ cc.h_inv_jac_many(hq) @ cc.normalizer_jac_many(Q)
        D[:, :k, k:] = Dp @ cc.sigma_jac_many(M)
        D[:, k:, :k] = cc.pi_jac_many(Q)
        return D

    def retract_tgt_many(G, M):
        return np.concatenate([h_act(sigma(M), normal(G[:, :k])), G[:, k:]], axis=1)

    def retract_tgt_jac_many(G, M):
        Dp, Dh = cc.h_act_jac_many(sigma(M), normal(G[:, :k]))
        Dg = np.zeros((len(G), N, N))
        Dm = np.zeros((len(G), N, n))
        Dg[:, :k, :k] = Dh @ cc.normalizer_jac_many(G[:, :k])
        Dg[:, k:, k:] = In
        Dm[:, :k] = Dp @ cc.sigma_jac_many(M)
        return Dg, Dm

    # pi is a coordinate projection for the shipped bundles, so the base box is
    # the corresponding block of the total-space box
    base_box = cc.p_box[-n:, :]
    domain_box = np.vstack([cc.p_box, base_box])

    model = GroupoidModel(
        name=f"gauge-{cc.name}",
        n=n,
        N=N,
        tgt=tgt,
        unit=unit,
        domain_box=domain_box,
        base_box=base_box,
        mul_jac_many=mul_jac_many,
        inv_jac_many=inv_jac_many,
        retract_tgt_jac_many=retract_tgt_jac_many,
        extras={"classical": cc},
        mul_many=lambda G, H: np.concatenate(
            [h_act(G[:, :k], normal(H[:, :k])), H[:, k:]], axis=1),
        inv_many=lambda G: np.concatenate(
            [h_act(sigma(G[:, k:]), h_inv(normal(G[:, :k]))), tgt_many(G)], axis=1),
        retract_tgt_many=retract_tgt_many,
        **source_slot(N, slice(k, N), domain_box),
    )
    omega_many = getattr(cc.omega_matrix, "many", None)

    def mu_many(G):
        M = G[:, k:]
        # W at the arrows' q, then at sigma(m), in one call
        W = stacked(cc.omega_matrix, omega_many, np.concatenate([G[:, :k], sigma(M)]))
        mu = np.empty((len(G), N, n))
        mu[:, :k] = np.linalg.solve(W[:len(G)], W[len(G):] @ cc.sigma_jac_many(M))
        mu[:, k:] = In
        return mu

    S = CartanConnection(model, batch_of_one(mu_many), name=f"S-omega[{cc.name}]")
    return model, S


# -- recovering a parallelism from a transitive connection ---------------------


@dataclass(frozen=True)
class RecoveredParallelism:
    """Parallelism on a source fibre recovered from a multiplicative connection:
    omega(v) = Ad_{S(g)}^{-1} (T R_{g^-1} v) in the coordinates of the algebroid
    fibre over the reference point."""

    model: GroupoidModel
    m0: np.ndarray
    fiber: ChartMap
    project: Callable
    v_basis: np.ndarray  # (N, r) basis of the algebroid fibre at m0
    omega_matrix: Callable[[np.ndarray], np.ndarray]

    @property
    def p_dim(self) -> int:
        return self.fiber.dim_in

    def omega(self, u: np.ndarray, du: np.ndarray) -> np.ndarray:
        return np.asarray(self.omega_matrix(u), dtype=float) @ np.asarray(du, dtype=float)


def recover_omega(S: CartanConnection, m0: np.ndarray) -> RecoveredParallelism:
    """Restrict a multiplicative connection on a transitive model to a classical
    parallelism on the source fibre over m0."""
    model = S.model
    m0 = np.asarray(m0, dtype=float)
    if model.src_fiber_chart is None:
        raise TransitivityError(f"{model.name} supplies no source-fibre chart")
    fiber, project = model.src_fiber_chart(m0)
    K0 = kernel_basis(model, m0)
    r = K0.shape[1]
    if r != fiber.dim_in:
        raise TransitivityError(
            f"fibre chart dimension {fiber.dim_in} != algebroid rank {r}")

    def omega_matrix(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        g = model.arrow(fiber(u))
        # the r chart directions, each translated back and adjoined to the
        # algebroid fibre at m0 as one row of a stack
        W = right_translate_many(model, np.tile(model.inv(g.coords), (r, 1)),
                                 np.tile(g.coords, (r, 1)), differentiate(fiber, u).T)
        cols = adjoint_vec_many(model, Jets.of([jet_invert(model, S.jet(g))]).repeat(r),
                                np.tile(g.target, (r, 1)), W)
        coeffs, *_ = np.linalg.lstsq(K0, cols.T, rcond=None)
        return coeffs

    return RecoveredParallelism(model, m0, fiber, project, K0, omega_matrix)


def rebuild_classical(rec: RecoveredParallelism, template: ClassicalCartan,
                      name: str | None = None) -> ClassicalCartan:
    """Attach a recovered parallelism to the bundle data of a template classical
    connection over the same slice (the identification step of the round trip)."""
    return replace(template, omega_matrix=rec.omega_matrix,
                   name=name or f"recovered[{template.name}]")


# -- infinitesimal parallelism and the induced algebroid connection -----------


def nabla_omega(cc: ClassicalCartan, model: GroupoidModel) -> AlgebroidConnection:
    """Algebroid connection on the gauge model extracted from the flat
    parallelism derivative: with nabla-bar the connection characterized by
    omega(nabla-bar_X Y) = d(omega(Y))(X), the induced connection satisfies

        nabla_v Z = nabla-bar_{Z~} Y~ - [Z~, Y~]   at sigma(m),

    where Z~ is the H-invariant extension of the section Z and Y~ any invariant
    field whose anchor is v at m. Written on stacks, like every route: the
    extensions read the bundle's stacked maps and W its omega_matrix.many
    where it has one, and each of the three directional differences is one
    call over all samples, each probe labelled with its sample."""
    k = cc.p_dim
    n = cc.n
    omega_many = getattr(cc.omega_matrix, "many", None)

    def omega(P):
        return stacked(cc.omega_matrix, omega_many, P)

    def invariant_extension(vectors):
        # vectors(base, owner): the field at the slice over each row's base point
        def field(P, owner):
            base = cc.pi_many(P)
            Dp = cc.h_act_jac_many(cc.sigma_many(base), cc.normalizer_many(P))[0]
            return matvecs(Dp, vectors(base, owner))

        return field

    def nabla(M, V, family):
        M, V = sample_stacks(model, M, V)
        own = np.arange(len(M))
        P0 = cc.sigma_many(M)
        Zf = invariant_extension(lambda base, owner: family(base, owner)[:, :k])
        Yf = invariant_extension(lambda base, owner: matvecs(cc.sigma_jac_many(base), V[owner]))

        def omega_of_Y(P, owner):
            return matvecs(omega(P), Yf(P, owner))

        # Y~ at sigma(m) is the direction of Z~'s difference, and Z~ there
        # the direction of the other two
        Y0 = Yf(P0, own)
        Z0, dZ = values_and_directional_derivatives(Zf, P0, Y0, owner=own)
        _, dY = values_and_directional_derivatives(Yf, P0, Z0, owner=own)
        _, dWY = values_and_directional_derivatives(omega_of_Y, P0, Z0, owner=own)
        dbar = np.linalg.solve(omega(P0), dWY[..., None])[..., 0]
        return np.concatenate([dbar - (dY - dZ), np.zeros((len(M), n))], axis=1)

    return AlgebroidConnection(model, nabla)


# -- curvature of a classical connection ---------------------------------------


def classical_curvature(cc: ClassicalCartan, bracket_v: Callable,
                        p: np.ndarray) -> np.ndarray:
    """Curvature two-form of the parallelism against prescribed model data:
    Omega_ij = d omega(e_i, e_j) - [omega e_i, omega e_j]_V on chart coordinate
    fields, with d omega by central differences. bracket_v must be supplied
    explicitly (it is part of the model data, not of omega)."""
    if bracket_v is None:
        raise ValueError("classical_curvature needs an explicit V-bracket")
    p = np.asarray(p, dtype=float)
    k = cc.p_dim
    W = np.asarray(cc.omega_matrix(p), dtype=float)
    dW = jacobian_fd(cc.omega_matrix, p)  # dW[:, j, i] = d_i W[:, j]
    omega_vals = [W[:, i] for i in range(k)]
    out = np.zeros((k, k, cc.v_dim))
    for i in range(k):
        for j in range(i + 1, k):
            domega = dW[:, j, i] - dW[:, i, j]
            val = domega - bracket_v(omega_vals[i], omega_vals[j])
            out[i, j] = val
            out[j, i] = -val
    return out


def classical_curvature_parallel_frame(cc: ClassicalCartan, bracket_v: Callable,
                                       p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Curvature evaluated on the omega-parallel frame E_a = W^-1 v_a together
    with its parallelism derivative (nabla-bar Omega)_{c,ab} = E_c . Omega(E_a, E_b).

    The parallelism derivative vanishing is the flatness criterion for the
    induced algebroid connection, a strictly weaker condition than Omega = 0."""
    p = np.asarray(p, dtype=float)
    k = cc.p_dim

    def frame(q):
        return np.linalg.inv(np.asarray(cc.omega_matrix(q), dtype=float))

    def omega_col(a):
        return lambda x: np.asarray(cc.omega_matrix(x), dtype=float) @ frame(x)[:, a]

    def frame_col(a):
        return lambda x: frame(x)[:, a]

    def F(q):
        E = frame(q)
        W = np.asarray(cc.omega_matrix(q), dtype=float)
        out = np.zeros((k, k, cc.v_dim))
        for a in range(k):
            for b in range(a + 1, k):
                ea, eb = E[:, a], E[:, b]
                domega = (directional_derivative(omega_col(b), q, ea)
                          - directional_derivative(omega_col(a), q, eb)
                          - W @ (directional_derivative(frame_col(b), q, ea)
                                 - directional_derivative(frame_col(a), q, eb)))
                val = domega - bracket_v(W @ ea, W @ eb)
                out[a, b] = val
                out[b, a] = -val
        return out

    F0 = F(p)
    E0 = frame(p)
    grads = np.stack([deriv_at_zero(lambda s: F(p + s * E0[:, c]), 5e-4)
                      for c in range(k)], axis=0)
    return F0, grads


# -- the shipped example: Maurer-Cartan form of SE(2) over SO(2) ---------------


def se2_maurer_cartan() -> ClassicalCartan:
    """Left Maurer-Cartan parallelism on the SE(2) group chart seen as an SO(2)-bundle
    over the plane. V has coordinates (rotation component, translation components)."""

    def omega_many(P):
        W = np.zeros((len(P), 3, 3))
        W[:, 0, 0] = 1.0
        W[:, 1:, 1:] = rot2_many(-P[:, 0])
        return W

    omega_matrix = batch_of_one(omega_many)
    # every bundle jacobian is constant: the rows of I3 the coordinate maps keep
    I3 = np.eye(3)
    act_jac_p, act_jac_h = constant_jacobian(I3), constant_jacobian(I3[:, :1])
    p_box = se2_group().box
    return ClassicalCartan(
        name="se2-so2",
        p_dim=3,
        h_dim=1,
        n=2,
        omega_matrix=omega_matrix,
        h_basis=np.array([[1.0], [0.0], [0.0]]),
        # W reads only the angle, which is H's chart: at h it is h's action on V
        h_rep=omega_matrix,
        h_generator=lambda p, xi: np.array([float(xi[0]), 0.0, 0.0]),
        h_act_many=lambda P, H: np.concatenate([P[:, :1] + H[:, :1], P[:, 1:]], axis=1),
        h_act_jac_many=lambda P, H: (act_jac_p(P), act_jac_h(H)),
        h_inv_many=lambda H: -H,
        h_inv_jac_many=constant_jacobian(-np.eye(1)),
        pi_many=lambda P: P[:, 1:],
        pi_jac_many=constant_jacobian(I3[1:]),
        sigma_many=lambda M: np.concatenate([np.zeros((len(M), 1)), M], axis=1),
        sigma_jac_many=constant_jacobian(I3[:, 1:]),
        normalizer_many=lambda P: P[:, :1],
        normalizer_jac_many=constant_jacobian(I3[:1]),
        p_box=p_box,
        h_box=p_box[:1],
    )


def se2_v_bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket on V = (rotation, translation) from right-invariant fields on
    SE(2): the negative of the matrix commutator."""
    a1, u1 = x[0], x[1:]
    a2, u2 = y[0], y[1:]
    return -np.concatenate([[0.0], a1 * (J2 @ u2) - a2 * (J2 @ u1)])


def so3_v_bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mismatched model data for the same bundle: V read as rotation vectors
    (u1, u2, a) of so(3), bracket from right-invariant fields (negative cross
    product). Extends the same structure algebra action."""
    xs = np.array([x[1], x[2], x[0]])
    ys = np.array([y[1], y[2], y[0]])
    c = -np.cross(xs, ys)
    return np.array([c[2], c[0], c[1]])
