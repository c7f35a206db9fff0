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
from typing import Callable

import numpy as np

from ..chartcalc import (
    ChartMap,
    WorstErrors,
    deriv_at_zero,
    differentiate,
    directional_derivative,
    exceeds,
    jacobian_fd,
    worst_case_min,
)
from ..connection import AlgebroidConnection, CartanConnection
from ..errors import SliceError, TransitivityError
from ..groupoid import (
    GroupoidModel,
    algebroid_vec,
    kernel_basis,
    right_translate,
    source_slot,
)
from ..jetalg import adjoint_vec, jet_invert
from .actions import se2_group
from .rotations import J2, rot2


@dataclass(frozen=True)
class ClassicalCartan:
    """A V-valued parallelism on a matrix-group chart P with structure group H.

    omega_matrix(p) is the (v_dim, p_dim) matrix of the parallelism at p;
    h_basis columns include the structure algebra into V; h_rep(h) is the right
    representation of H on V extending the adjoint action. The bundle block
    (pi, sigma, normalizer, h_act and the H-chart group ops) fixes slice
    coordinates for the quotient constructions. bundle_many holds the stacked
    forms of pi, sigma, normalizer, h_act and h_inv by name; the gauge
    groupoid's stacked structure maps are built from them.
    """

    name: str
    p_dim: int
    h_dim: int
    n: int
    omega_matrix: Callable[[np.ndarray], np.ndarray]
    h_basis: np.ndarray  # (v_dim, h_dim)
    h_rep: Callable[[np.ndarray], np.ndarray]
    h_generator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h_act: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h_act_jac: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    h_inv: Callable[[np.ndarray], np.ndarray]
    h_inv_jac: Callable[[np.ndarray], np.ndarray]
    pi: Callable[[np.ndarray], np.ndarray]
    pi_jac: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    sigma_jac: Callable[[np.ndarray], np.ndarray]
    normalizer: Callable[[np.ndarray], np.ndarray]
    normalizer_jac: Callable[[np.ndarray], np.ndarray]
    p_box: np.ndarray
    h_box: np.ndarray
    bundle_many: dict

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
        Dp, _ = cc.h_act_jac(p, h)
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
    """
    k = cc.p_dim
    n = cc.n
    N = k + n
    In = np.eye(n)

    def check_slice(m):
        p = cc.sigma(np.asarray(m, dtype=float))
        defect = float(np.max(np.abs(cc.pi(p) - m)))
        if exceeds(defect, 1e-10):
            raise SliceError(f"slice section fails pi . sigma = id at {m} ({defect:.2e})")
        return p

    pi, sigma, normal, h_act, h_inv = (cc.bundle_many[key] for key in (
        "pi", "sigma", "normalizer", "h_act", "h_inv"))

    def tgt_many(G):
        return pi(G[:, :k])

    def unit_many(M):
        P = sigma(M)
        if not np.all(np.abs(pi(P) - M) <= 1e-10):  # a NaN fails too
            for m in M:
                check_slice(m)  # raises at the first bad row
        return np.concatenate([P, M], axis=1)

    # the bundle's jacobians are single-point, so the stacked hooks loop here
    def tgt_jac_many(G):
        D = np.zeros((len(G), n, N))
        for a, g in enumerate(G):
            D[a, :, :k] = cc.pi_jac(g[:k])
        return D

    def unit_jac_many(M):
        D = np.zeros((len(M), N, n))
        for a, m in enumerate(M):
            D[a, :k] = cc.sigma_jac(m)
        D[:, k:] = In
        return D

    tgt = ChartMap(N, n, lambda g: cc.pi(g[:k]), jacobian=tgt_jac_many, eval_many=tgt_many)
    unit = ChartMap(n, N, lambda m: np.concatenate([check_slice(m), m]),
                    jacobian=unit_jac_many, eval_many=unit_many)

    def mul_jac_many(G, H):
        Dg, Dh = np.zeros((2, len(G), N, N))
        for a, (g, h) in enumerate(zip(G, H)):
            Dp, Dhh = cc.h_act_jac(g[:k], cc.normalizer(h[:k]))
            Dg[a, :k, :k] = Dp
            Dh[a, :k, :k] = Dhh @ cc.normalizer_jac(h[:k])
        Dh[:, k:, k:] = In
        return Dg, Dh

    def inv_jac_many(G):
        D = np.zeros((len(G), N, N))
        for a, g in enumerate(G):
            hq = cc.normalizer(g[:k])
            Dp, Dh = cc.h_act_jac(cc.sigma(g[k:]), cc.h_inv(hq))
            D[a, :k, :k] = Dh @ cc.h_inv_jac(hq) @ cc.normalizer_jac(g[:k])
            D[a, :k, k:] = Dp @ cc.sigma_jac(g[k:])
            D[a, k:, :k] = cc.pi_jac(g[:k])
        return D

    def retract_tgt_many(G, M):
        return np.concatenate([h_act(sigma(M), normal(G[:, :k])), G[:, k:]], axis=1)

    def retract_tgt_jac_many(G, M):
        Dg = np.zeros((len(G), N, N))
        Dm = np.zeros((len(G), N, n))
        for a, (g, m0) in enumerate(zip(G, M)):
            Dp, Dh = cc.h_act_jac(cc.sigma(m0), cc.normalizer(g[:k]))
            Dg[a, :k, :k] = Dh @ cc.normalizer_jac(g[:k])
            Dm[a, :k] = Dp @ cc.sigma_jac(m0)
        Dg[:, k:, k:] = In
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

    def mu_at(g):
        q, m = g[:k], g[k:]
        W = np.asarray(cc.omega_matrix(q), dtype=float)
        Wm = np.asarray(cc.omega_matrix(cc.sigma(m)), dtype=float)
        top = np.linalg.solve(W, Wm @ cc.sigma_jac(m))
        return np.vstack([top, In])

    S = CartanConnection(model, mu_at, name=f"S-omega[{cc.name}]")
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
        p = fiber(u)
        g = model.arrow(p)
        Demb = differentiate(fiber, u)
        mu_inv = jet_invert(model, S.jet(g))
        ginv = model.arrow(model.inv(g.coords))
        cols = []
        for j in range(r):
            vG = Demb[:, j]
            w = right_translate(model, ginv, g, vG)
            val = adjoint_vec(model, mu_inv,
                              algebroid_vec(model, g.target, w, check=False))
            cols.append(val.vec)
        stacked = np.stack(cols, axis=1)  # (N, r), columns in g-fibre at m0
        coeffs, *_ = np.linalg.lstsq(K0, stacked, rcond=None)
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
    field whose anchor is v at m."""
    k = cc.p_dim
    n = cc.n

    def invariant_extension(vec_of_m):
        def field(p):
            mm = cc.pi(p)
            hh = cc.normalizer(p)
            Dp, _ = cc.h_act_jac(cc.sigma(mm), hh)
            return Dp @ vec_of_m(mm)

        return field

    def nabla(m, v, Z):
        p0 = cc.sigma(m)
        Zf = invariant_extension(lambda mm: np.asarray(Z(mm), dtype=float)[:k])
        Yf = invariant_extension(lambda mm: cc.sigma_jac(mm) @ v)
        z0 = Zf(p0)

        def omega_of_Y(p):
            return np.asarray(cc.omega_matrix(p), dtype=float) @ Yf(p)

        dbar = np.linalg.solve(np.asarray(cc.omega_matrix(p0), dtype=float),
                               directional_derivative(omega_of_Y, p0, z0))
        bracket = (directional_derivative(Yf, p0, z0)
                   - directional_derivative(Zf, p0, Yf(p0)))
        val = dbar - bracket
        return algebroid_vec(model, m, np.concatenate([val, np.zeros(n)]), check=False)

    return AlgebroidConnection(model, nabla, "classical-omega")


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

    def omega_matrix(p):
        W = np.zeros((3, 3))
        W[0, 0] = 1.0
        W[1:, 1:] = rot2(-p[0])
        return W

    def h_rep(h):
        M = np.zeros((3, 3))
        M[0, 0] = 1.0
        M[1:, 1:] = rot2(-h[0])
        return M

    def h_act(p, h):
        return np.array([p[0] + h[0], p[1], p[2]])

    def h_act_jac(p, h):
        Dp = np.eye(3)
        Dh = np.zeros((3, 1))
        Dh[0, 0] = 1.0
        return Dp, Dh

    def h_act_many(P, H):
        return np.concatenate([P[:, :1] + H[:, :1], P[:, 1:]], axis=1)

    p_box = se2_group().box
    return ClassicalCartan(
        name="se2-so2",
        p_dim=3,
        h_dim=1,
        n=2,
        omega_matrix=omega_matrix,
        h_basis=np.array([[1.0], [0.0], [0.0]]),
        h_rep=h_rep,
        h_generator=lambda p, xi: np.array([float(xi[0]), 0.0, 0.0]),
        h_act=h_act,
        h_act_jac=h_act_jac,
        h_inv=lambda h: -h,
        h_inv_jac=lambda h: -np.eye(1),
        pi=lambda p: p[1:].copy(),
        pi_jac=lambda p: np.hstack([np.zeros((2, 1)), np.eye(2)]),
        sigma=lambda m: np.concatenate([[0.0], m]),
        sigma_jac=lambda m: np.vstack([np.zeros((1, 2)), np.eye(2)]),
        normalizer=lambda p: np.array([p[0]]),
        normalizer_jac=lambda p: np.array([[1.0, 0.0, 0.0]]),
        p_box=p_box,
        h_box=p_box[:1],
        bundle_many=dict(pi=lambda P: P[:, 1:],
                         sigma=lambda M: np.concatenate([np.zeros((len(M), 1)), M], axis=1),
                         normalizer=lambda P: P[:, :1], h_act=h_act_many, h_inv=lambda H: -H),
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
