"""Closed-form arithmetic in the groupoid of bisection one-jets.

The kernel of the projection (jets -> arrows) is modelled linearly: an element
is a map phi: TM -> algebroid at a base point, with derived actions
phi_TM = id - anchor . phi on TM and X -> X - phi(anchor X) on the algebroid.
Multiplication, inversion, the adjoint representations, jet inversion, the
kernel product formulas and the semidirect-product multiplication are all
implemented as explicit linear algebra over a model's tangent maps, and every
one of them is tested against the bisection-jet oracle in `groupoid`.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .chartcalc import exceeds, newton_solve
from .errors import BaseMismatchError, SingularError
from .groupoid import (
    AlgebroidVec,
    Arrow,
    DET_TOL,
    GroupoidModel,
    Jet1,
    algebroid_vec,
    anchor,
    identity_jet,
    inv_tangent,
    kernel_basis,
    left_translate,
    oracle_jet,
    right_translate,
)

log = logging.getLogger(__name__)

BASE_TOL = 1e-9
KERNEL_SCALE = 0.4  # half-range of random_kernel_hom's coefficients in the kernel basis
KERNEL_MIN_DET = 0.1  # conditioning floor |det phi_tm| of random_kernel_hom's samples


@dataclass(frozen=True)
class KernelHom:
    """An element of the linear kernel model at a base point m: the matrix phi
    maps T_m M into the algebroid fibre at m (each column a source-vertical
    vector at unit(m))."""

    model: GroupoidModel
    m: np.ndarray
    phi: np.ndarray  # (N, n)

    @property
    def anchor_matrix(self) -> np.ndarray:
        """Ttgt at unit(m), the matrix that anchors kernel columns to TM."""
        return self.model.Ttgt(self.model.unit(self.m))

    @property
    def phi_tm(self) -> np.ndarray:
        """Induced map on TM: v -> v - anchor(phi v)."""
        return np.eye(self.model.n) - self.anchor_matrix @ self.phi

    def phi_g(self, X: AlgebroidVec) -> AlgebroidVec:
        """Induced action on the algebroid: X -> X - phi(anchor X)."""
        v = anchor(self.model, X)
        return algebroid_vec(self.model, self.m, X.vec - self.phi @ v, check=False)

    def is_invertible(self) -> bool:
        return abs(np.linalg.det(self.phi_tm)) > DET_TOL


def _same_base(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if exceeds(float(np.max(np.abs(np.asarray(a) - np.asarray(b)))), BASE_TOL):
        raise BaseMismatchError(f"{what}: base points differ ({a} vs {b})")


def aut_mul(psi: KernelHom, phi: KernelHom) -> KernelHom:
    """Kernel multiplication psi.phi = psi + phi - psi(anchor(phi .)).

    The induced TM-map of the product is the composition of the factors'
    TM-maps (the kernel-to-TM map is a groupoid morphism)."""
    _same_base(psi.m, phi.m, "aut_mul")
    B = phi.anchor_matrix
    prod = psi.phi + phi.phi - psi.phi @ (B @ phi.phi)
    return KernelHom(phi.model, phi.m, prod)


def aut_inv(phi: KernelHom) -> KernelHom:
    """Kernel inversion phi -> -phi . (phi_tm)^-1."""
    ptm = phi.phi_tm
    if abs(np.linalg.det(ptm)) < DET_TOL:
        raise SingularError("phi_tm singular; element lies outside the kernel group")
    return KernelHom(phi.model, phi.m, -phi.phi @ np.linalg.inv(ptm))


def vee(phi: KernelHom) -> Jet1:
    """Embed a kernel element as a jet over the unit arrow: v -> v - phi v.

    The embedded jet acts on TM by phi_tm and on the algebroid by phi_g."""
    if not phi.is_invertible():
        raise SingularError("phi_tm singular; vee(phi) would violate jet invariants")
    model = phi.model
    mu = model.Tunit(phi.m) - phi.phi
    return Jet1(model.unit_arrow(phi.m), mu)


def unvee(model: GroupoidModel, j: Jet1) -> KernelHom:
    """Inverse of vee on jets over unit arrows."""
    m = j.g.source
    _same_base(j.g.coords, model.unit(m), "unvee: jet not over a unit arrow")
    return KernelHom(model, m, model.Tunit(m) - j.mu)


def zero_kernel_hom(model: GroupoidModel, m: np.ndarray) -> KernelHom:
    return KernelHom(model, np.asarray(m, dtype=float), np.zeros((model.N, model.n)))


def random_kernel_hom(model: GroupoidModel, m: np.ndarray,
                      rng: np.random.Generator) -> KernelHom:
    """Random kernel element at m; samples below the conditioning floor are
    rejected and resampled (logged).

    The floor is far above the 1e-9 singularity threshold the operations
    enforce: nearly degenerate elements are valid inputs but blow up the
    higher derivatives that finite-difference oracles rest on, so they are
    excluded from sampled comparisons rather than from the algebra."""
    K = kernel_basis(model, m)
    for attempt in range(64):
        C = rng.uniform(-KERNEL_SCALE, KERNEL_SCALE, size=(K.shape[1], model.n))
        cand = KernelHom(model, np.asarray(m, dtype=float), K @ C)
        if abs(np.linalg.det(cand.phi_tm)) >= KERNEL_MIN_DET:
            return cand
        log.debug("resampling kernel hom at %s (attempt %d: det %.2e below floor)",
                  m, attempt, np.linalg.det(cand.phi_tm))
    raise SingularError("could not sample a well-conditioned kernel element")


# -- adjoint representations -------------------------------------------------


def adjoint_tm(model: GroupoidModel, mu: Jet1) -> np.ndarray:
    """Matrix of the jet's action on TM: Ttgt . mu."""
    return model.Ttgt(mu.g.coords) @ mu.mu


def adjoint_vec(model: GroupoidModel, mu: Jet1, X: AlgebroidVec) -> AlgebroidVec:
    """Adjoint action of a jet on the algebroid:
    Ad_mu X = T R_{g^-1} (mu(anchor X) - T L_g T I X)."""
    g = mu.g
    _same_base(X.base, g.source, "adjoint_vec")
    u = model.unit_arrow(X.base)
    lifted = mu.mu @ anchor(model, X) - left_translate(
        model, g, u, inv_tangent(model, u, X.vec))
    ginv = model.arrow(model.inv(g.coords))
    out = right_translate(model, ginv, g, lifted)
    return algebroid_vec(model, g.target, out, check=False)


def adjoint_hom(model: GroupoidModel, mu: Jet1, phi: KernelHom) -> KernelHom:
    """Induced action on kernel elements: (Ad_mu phi) v = Ad_mu(phi Ad_mu^-1 v)."""
    _same_base(phi.m, mu.g.source, "adjoint_hom")
    A = adjoint_tm(model, mu)
    Ainv = np.linalg.inv(A)
    cols = []
    for j in range(model.n):
        w = Ainv[:, j]
        Xj = algebroid_vec(model, phi.m, phi.phi @ w, check=False)
        cols.append(adjoint_vec(model, mu, Xj).vec)
    return KernelHom(model, mu.g.target, np.stack(cols, axis=1))


def adjoint(model: GroupoidModel, mu: Jet1, x):
    """Adjoint action of a jet on a tangent vector, an algebroid element, or a
    kernel element, returning the same kind."""
    if isinstance(x, AlgebroidVec):
        return adjoint_vec(model, mu, x)
    if isinstance(x, KernelHom):
        return adjoint_hom(model, mu, x)
    return adjoint_tm(model, mu) @ np.asarray(x, dtype=float)


# -- inversion and products --------------------------------------------------


def jet_invert(model: GroupoidModel, mu: Jet1) -> Jet1:
    """Closed-form jet inversion: mu^-1(v) = T I . mu(Ad_mu^-1 v)."""
    A = adjoint_tm(model, mu)
    if abs(np.linalg.det(A)) < DET_TOL:
        raise SingularError("jet's TM-action is singular")
    Ainv = np.linalg.inv(A)
    cols = [inv_tangent(model, mu.g, mu.mu @ Ainv[:, j]) for j in range(model.n)]
    return Jet1(model.arrow(model.inv(mu.g.coords)), np.stack(cols, axis=1))


def mul_kernel_right(model: GroupoidModel, mu: Jet1, phi: KernelHom) -> Jet1:
    """Product with a kernel element on the right:
    (mu . vee(phi))(v) = mu(phi_tm v) + T L_g T I (phi v)."""
    _same_base(phi.m, mu.g.source, "mul_kernel_right")
    g = mu.g
    u = model.unit_arrow(phi.m)
    base = mu.mu @ phi.phi_tm
    corr = np.stack(
        [left_translate(model, g, u, inv_tangent(model, u, phi.phi[:, j]))
         for j in range(model.n)], axis=1)
    return Jet1(g, base + corr)


def mul_kernel_left(model: GroupoidModel, mu: Jet1, phi: KernelHom) -> Jet1:
    """Product with a kernel element on the left:
    (vee(phi) . mu)(v) = mu(v) - T R_g . phi(Ad_mu v), phi based at the target."""
    _same_base(phi.m, mu.g.target, "mul_kernel_left")
    g = mu.g
    A = adjoint_tm(model, mu)
    u = model.unit_arrow(g.target)
    corr = np.stack(
        [right_translate(model, g, u, phi.phi @ A[:, j]) for j in range(model.n)],
        axis=1)
    return Jet1(g, mu.mu - corr)


def jet_decompose(model: GroupoidModel, nu: Jet1, S) -> tuple[Arrow, KernelHom]:
    """Split a jet against a connection: nu = vee(phi) . S(g) with
    phi(v) = T R_{g^-1} (mu(Ad_mu^-1 v) - nu(Ad_mu^-1 v)), mu = S(g)."""
    g = nu.g
    mu = S(g)
    A = adjoint_tm(model, mu)
    if abs(np.linalg.det(A)) < DET_TOL:
        raise SingularError("horizontal jet's TM-action is singular")
    Ainv = np.linalg.inv(A)
    ginv = model.arrow(model.inv(g.coords))
    cols = []
    for j in range(model.n):
        w = Ainv[:, j]
        diff = mu.mu @ w - nu.mu @ w
        cols.append(right_translate(model, ginv, g, diff))
    return g, KernelHom(model, g.target, np.stack(cols, axis=1))


def jet_assemble(model: GroupoidModel, g: Arrow, phi: KernelHom, S) -> Jet1:
    """Inverse of jet_decompose: assemble the jet vee(phi) . S(g)."""
    return mul_kernel_left(model, S(g), phi)


def jet_mul(model: GroupoidModel, mu1: Jet1, mu2: Jet1, S) -> Jet1:
    """Closed-form jet multiplication through the semidirect splitting induced
    by a multiplicative connection S:

        (g1, phi1) (g2, phi2) = (g1 g2, phi1 . Ad_{S(g1)} phi2).

    Agrees with the bisection-jet oracle whenever S is multiplicative."""
    _same_base(mu1.g.source, mu2.g.target, "jet_mul: arrows not composable")
    g1, phi1 = jet_decompose(model, mu1, S)
    g2, phi2 = jet_decompose(model, mu2, S)
    phi12 = aut_mul(phi1, adjoint_hom(model, S(g1), phi2))
    g12 = model.arrow(model.mul(g1.coords, g2.coords))
    return jet_assemble(model, g12, phi12, S)


# -- bisections of the jet groupoid ------------------------------------------


def assemble_bisection(model: GroupoidModel, b, Phi):
    """Bisection of the jet groupoid from a bisection b of the model and a
    kernel section Phi: m -> KernelHom:

        a(b, Phi)(m) = vee(Phi(m')) . (jet of b at m),  m' = tgt(b(m)).

    Returns a callable m -> Jet1. The kernel factor multiplies from the left,
    so no connection is needed."""

    def at(m: np.ndarray) -> Jet1:
        jb = oracle_jet(model, b, np.asarray(m, dtype=float))
        phi = Phi(jb.g.target)
        if phi is None:
            return jb
        return mul_kernel_left(model, jb, phi)

    return at


def kernel_section_pushforward(model: GroupoidModel, b, Phi):
    """Action of a model bisection on kernel sections:
    (b . Phi)(m') = Ad_{jet of b at m} Phi(m), where m' = tgt(b(m)).

    The returned section is evaluated by inverting the base transformation of
    b with Newton iteration."""

    def base_map(x):
        return model.tgt(np.asarray(b(x), dtype=float))

    def phi_at(mprime: np.ndarray) -> KernelHom:
        mprime = np.asarray(mprime, dtype=float)
        m = newton_solve(base_map, mprime, mprime, 1e-13)  # tgt(b(m)) = m'
        jb = oracle_jet(model, b, m)
        return adjoint_hom(model, jb, Phi(m))

    return phi_at


def random_jet(model: GroupoidModel, S, g: Arrow, rng: np.random.Generator) -> Jet1:
    """Random jet over the arrow g, built as vee(phi) . S(g) with a random
    kernel element at the target."""
    phi = random_kernel_hom(model, g.target, rng)
    return jet_assemble(model, g, phi, S)


__all__ = [
    "KernelHom", "aut_mul", "aut_inv", "vee", "unvee", "zero_kernel_hom",
    "random_kernel_hom", "adjoint", "adjoint_tm", "adjoint_vec", "adjoint_hom",
    "jet_invert", "mul_kernel_right", "mul_kernel_left", "jet_decompose",
    "jet_assemble", "jet_mul", "assemble_bisection",
    "kernel_section_pushforward", "random_jet", "identity_jet",
]
