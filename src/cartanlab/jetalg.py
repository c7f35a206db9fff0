"""Closed-form arithmetic in the groupoid of bisection one-jets.

The kernel of the projection (jets -> arrows) is modelled linearly: an element
is a map phi: TM -> algebroid at a base point, with derived actions
phi_TM = id - anchor . phi on TM and X -> X - phi(anchor X) on the algebroid.
Multiplication, inversion, the adjoint representations, jet inversion, the
kernel product formulas and the semidirect-product multiplication are all
implemented as explicit linear algebra over a model's tangent maps, and every
one of them is tested against the bisection-jet oracle in `groupoid`.

Every map is written for stacks first: jets as groupoid.Jets and kernel
elements as KernelHoms, C-contiguous arrays whose row a is one element. A
stacked map reads each tangent map once per step for all rows (one
jacobians_fd call on finite-difference models, the analytic jacobian row by
row otherwise), and row a of its result equals the map on element a alone
bit for bit. The single-element forms (Jet1, KernelHom) are the stacked
forms' batches of one.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .chartcalc import Redraw, differentiate_many, exceeds, matvecs, newton_solve
from .errors import BaseMismatchError, SingularError
from .groupoid import (
    AlgebroidVec,
    Arrow,
    DET_TOL,
    GroupoidModel,
    Jet1,
    Jets,
    algebroid_vec,
    anchor_matrices,
    base_points,
    identity_jet,
    identity_jets,
    inv_tangent_many,
    kernel_basis,
    kernel_bases,
    left_translate_many,
    oracle_jet,
    right_translate_many,
)

log = logging.getLogger(__name__)

BASE_TOL = 1e-9
KERNEL_SCALE = 0.4  # half-range of random_kernel_hom's coefficients in the kernel basis
KERNEL_MIN_DET = 0.1  # conditioning floor |det phi_tm| of random_kernel_hom's samples


def _columns(P: np.ndarray, A: np.ndarray) -> np.ndarray:
    """[a, j] is P[a] @ A[a][:, j], as one matrix-vector product per column
    rounds it, flattened to rows a * n + j."""
    C = (P[:, None] @ np.swapaxes(A, -1, -2)[..., None])[..., 0]
    return C.reshape(-1, C.shape[-1])


def _from_columns(C: np.ndarray, k: int) -> np.ndarray:
    """The matrices [k, N, n] whose column j of matrix a is row a * n + j of C."""
    return np.ascontiguousarray(np.swapaxes(C.reshape(k, -1, C.shape[-1]), 1, 2))


@dataclass(frozen=True)
class KernelHom:
    """An element of the linear kernel model at a base point m: the matrix phi
    maps T_m M into the algebroid fibre at m (each column a source-vertical
    vector at unit(m)). Its maps are KernelHoms' batches of one."""

    model: GroupoidModel
    m: np.ndarray
    phi: np.ndarray  # (N, n)

    @staticmethod
    def stack_of(homs) -> "KernelHoms":
        """The stack of drawn kernel elements chartcalc.draw_then_evaluate hands on."""
        return KernelHoms.of(homs)

    @property
    def phi_tm(self) -> np.ndarray:
        """Induced map on TM: v -> v - anchor(phi v)."""
        return KernelHoms.of([self]).phi_tm[0]

    def phi_g(self, X: AlgebroidVec) -> AlgebroidVec:
        """Induced action on the algebroid: X -> X - phi(anchor X)."""
        vec = KernelHoms.of([self]).phi_g(np.asarray(X.base)[None], np.asarray(X.vec)[None])[0]
        return algebroid_vec(self.model, self.m, vec, check=False)


@dataclass(frozen=True)
class KernelHoms:
    """A stack of kernel elements: element a is KernelHom(model, m[a], phi[a]),
    held as C-contiguous arrays m[k, n] and phi[k, N, n]."""

    model: GroupoidModel
    m: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("m", "phi"):
            object.__setattr__(self, name,
                               np.ascontiguousarray(getattr(self, name), dtype=float))

    @staticmethod
    def of(homs) -> "KernelHoms":
        return KernelHoms(homs[0].model, np.array([h.m for h in homs]),
                          np.array([h.phi for h in homs]))

    def __len__(self) -> int:
        return len(self.m)

    def __getitem__(self, a: int) -> KernelHom:
        return KernelHom(self.model, self.m[a], self.phi[a])

    @property
    def anchor_matrix(self) -> np.ndarray:
        """Ttgt at unit(m[a]), the matrices that anchor kernel columns to TM."""
        return anchor_matrices(self.model, self.m)

    @property
    def phi_tm(self) -> np.ndarray:
        """The induced maps on TM: v -> v - anchor(phi v)."""
        return np.eye(self.model.n) - self.anchor_matrix @ self.phi

    def phi_g(self, base: np.ndarray, XV: np.ndarray) -> np.ndarray:
        """The induced actions on algebroid vectors XV[a] at base[a]:
        X -> X - phi(anchor X)."""
        return XV - matvecs(self.phi, matvecs(anchor_matrices(self.model, base), XV))

    def invertible(self) -> np.ndarray:
        return abs(np.linalg.det(self.phi_tm)) > DET_TOL


def _same_base(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Raise BaseMismatchError unless the points, or each row of stacks of
    them, agree to BASE_TOL, naming the first row that does not; a NaN
    fails."""
    a, b = np.asarray(a), np.asarray(b)
    if exceeds(float(np.max(np.abs(a - b))), BASE_TOL):
        a, b = np.atleast_2d(a, b)
        r = np.flatnonzero(~(np.max(np.abs(a - b), axis=1) <= BASE_TOL))[0]
        raise BaseMismatchError(f"{what}: base points differ ({a[r]} vs {b[r]})")


def aut_mul_many(psi: KernelHoms, phi: KernelHoms) -> KernelHoms:
    """Kernel multiplication psi.phi = psi + phi - psi(anchor(phi .)), row by row.

    The induced TM-map of the product is the composition of the factors'
    TM-maps (the kernel-to-TM map is a groupoid morphism)."""
    _same_base(psi.m, phi.m, "aut_mul")
    B = phi.anchor_matrix
    return KernelHoms(phi.model, phi.m, psi.phi + phi.phi - psi.phi @ (B @ phi.phi))


def aut_mul(psi: KernelHom, phi: KernelHom) -> KernelHom:
    """Kernel multiplication: aut_mul_many's batch of one."""
    return aut_mul_many(KernelHoms.of([psi]), KernelHoms.of([phi]))[0]


def aut_inv_many(phi: KernelHoms) -> KernelHoms:
    """Kernel inversion phi -> -phi . (phi_tm)^-1, row by row."""
    ptm = phi.phi_tm
    if not (abs(np.linalg.det(ptm)) >= DET_TOL).all():  # a NaN determinant is singular too
        raise SingularError("phi_tm singular; element lies outside the kernel group")
    return KernelHoms(phi.model, phi.m, -phi.phi @ np.linalg.inv(ptm))


def aut_inv(phi: KernelHom) -> KernelHom:
    """Kernel inversion: aut_inv_many's batch of one."""
    return aut_inv_many(KernelHoms.of([phi]))[0]


def vee_many(phi: KernelHoms) -> Jets:
    """Embed kernel elements as jets over the unit arrows: v -> v - phi v.

    The embedded jet acts on TM by phi_tm and on the algebroid by phi_g."""
    if not phi.invertible().all():
        raise SingularError("phi_tm singular; vee(phi) would violate jet invariants")
    model = phi.model
    return Jets.at(model, model.unit.many(phi.m),
                   differentiate_many(model.unit, phi.m) - phi.phi)


def vee(phi: KernelHom) -> Jet1:
    """Embed a kernel element as a jet over the unit arrow: vee_many's batch of one."""
    return vee_many(KernelHoms.of([phi]))[0]


def unvee(model: GroupoidModel, j: Jet1) -> KernelHom:
    """Inverse of vee on jets over unit arrows."""
    m = j.g.source
    _same_base(j.g.coords, model.unit(m), "unvee: jet not over a unit arrow")
    return KernelHom(model, m, model.Tunit(m) - j.mu)


def zero_kernel_hom(model: GroupoidModel, m: np.ndarray) -> KernelHom:
    return KernelHom(model, np.asarray(m, dtype=float), np.zeros((model.N, model.n)))


def random_kernel_hom(model: GroupoidModel, m: np.ndarray,
                      rng: np.random.Generator) -> KernelHom:
    """Random kernel element at m, phi = K @ C in the kernel basis K with
    coefficients C uniform in +-KERNEL_SCALE; a candidate below the
    conditioning floor, |det phi_tm| < KERNEL_MIN_DET, is rejected and drawn
    again (logged). This is the eager draw, decided as it goes; its stacked
    form is deferred_kernel_hom, whose stack this draw replays on rejection.

    The floor is far above the 1e-9 singularity threshold the operations
    enforce: nearly degenerate elements are valid inputs but blow up the
    higher derivatives that finite-difference oracles rest on, so they are
    excluded from sampled comparisons rather than from the algebra."""
    m = np.asarray(m, dtype=float)
    K = kernel_basis(model, m)
    B = model.Ttgt(model.unit(m))  # the anchor matrix at m, read once per call
    for attempt in range(64):
        phi, det = _candidates(K, B, _coefficients(rng, K.shape[1], model.n))
        if abs(det) >= KERNEL_MIN_DET:
            return KernelHom(model, m, phi)
        log.debug("resampling kernel hom at %s (attempt %d: det %.2e below floor)",
                  m, attempt, det)
    raise SingularError("could not sample a well-conditioned kernel element")


def _coefficients(rng: np.random.Generator, rank: int, n: int) -> np.ndarray:
    """A candidate's coefficient matrix C in a kernel basis of rank columns."""
    return rng.uniform(-KERNEL_SCALE, KERNEL_SCALE, size=(rank, n))


def _candidates(K: np.ndarray, B: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate phi = K @ C at a point with kernel basis K and anchor
    matrix B, and det phi_tm = det(1 - B @ phi); row by row on stacks."""
    phi = K @ C
    return phi, np.linalg.det(np.eye(B.shape[-2]) - B @ phi)


@dataclass(frozen=True)
class KernelDraw:
    """A deferred random_kernel_hom at m: the coefficient matrix C of its
    first candidate, drawn and taken as accepted. A list of them resolves as
    one stack (stack_of)."""

    model: GroupoidModel
    m: np.ndarray
    C: np.ndarray

    @staticmethod
    def stack_of(draws) -> KernelHoms:
        """The KernelHoms random_kernel_hom would have drawn, with one
        kernel_bases, one anchor_matrices and one determinant call for all
        rows, equal to it row by row bit for bit. Raises chartcalc.Redraw
        when a candidate falls below the floor: the eager draw would have
        rejected it and drawn again."""
        model = draws[0].model
        M = np.array([d.m for d in draws])
        C = np.array([d.C for d in draws])
        phi, det = _candidates(kernel_bases(model, M), anchor_matrices(model, M), C)
        if not (abs(det) >= KERNEL_MIN_DET).all():  # a NaN determinant is rejected too
            raise Redraw("a kernel element below the conditioning floor")
        return KernelHoms(model, M, phi)


def deferred_kernel_hom(model: GroupoidModel, m: np.ndarray,
                        rng: np.random.Generator) -> KernelDraw:
    """random_kernel_hom at m, deferred: draw the first candidate's
    coefficients now, taking as much from rng as the eager draw does when it
    accepts that candidate, and leave the basis, the anchor and the
    determinant to the stack of draws (KernelDraw.stack_of, through
    chartcalc.draw_then_evaluate, which replays the stack with
    random_kernel_hom on rejection). Raises DomainError when m is not a point
    of dimension n."""
    return KernelDraw(model, base_points(model, m, 1),
                      _coefficients(rng, model.N - model.n, model.n))


# -- adjoint representations -------------------------------------------------


def adjoint_tm_many(model: GroupoidModel, mu: Jets) -> np.ndarray:
    """Matrices of the jets' actions on TM: Ttgt . mu, row by row."""
    return differentiate_many(model.tgt, mu.coords) @ mu.mu


def adjoint_tm(model: GroupoidModel, mu: Jet1) -> np.ndarray:
    """Matrix of the jet's action on TM: adjoint_tm_many's batch of one."""
    return adjoint_tm_many(model, Jets.of([mu]))[0]


def adjoint_vec_many(model: GroupoidModel, mu: Jets, base: np.ndarray,
                     XV: np.ndarray) -> np.ndarray:
    """Adjoint action of jets on algebroid vectors XV[a] at base[a]:
    Ad_mu X = T R_{g^-1} (mu(anchor X) - T L_g T I X), the vectors at the
    jets' targets."""
    g = mu.coords
    _same_base(base, mu.source, "adjoint_vec")
    U = model.unit.many(base)
    anchored = matvecs(differentiate_many(model.tgt, U), XV)
    lifted = matvecs(mu.mu, anchored) - left_translate_many(
        model, g, U, inv_tangent_many(model, U, XV))
    return right_translate_many(model, model.inv_many(g), g, lifted)


def adjoint_vec(model: GroupoidModel, mu: Jet1, X: AlgebroidVec) -> AlgebroidVec:
    """Adjoint action of a jet on the algebroid: adjoint_vec_many's batch of one."""
    out = adjoint_vec_many(model, Jets.of([mu]), np.asarray(X.base)[None],
                           np.asarray(X.vec)[None])[0]
    return algebroid_vec(model, mu.g.target, out, check=False)


def adjoint_hom_many(model: GroupoidModel, mu: Jets, phi: KernelHoms) -> KernelHoms:
    """Induced action on kernel elements: (Ad_mu phi) v = Ad_mu(phi Ad_mu^-1 v),
    the columns of every row in one adjoint_vec_many call."""
    _same_base(phi.m, mu.source, "adjoint_hom")
    n = model.n
    Ainv = np.linalg.inv(adjoint_tm_many(model, mu))
    cols = adjoint_vec_many(model, mu.repeat(n), np.repeat(phi.m, n, axis=0),
                            _columns(phi.phi, Ainv))
    return KernelHoms(model, mu.target, _from_columns(cols, len(mu)))


def adjoint_hom(model: GroupoidModel, mu: Jet1, phi: KernelHom) -> KernelHom:
    """Induced action on kernel elements: adjoint_hom_many's batch of one."""
    return adjoint_hom_many(model, Jets.of([mu]), KernelHoms.of([phi]))[0]


def adjoint(model: GroupoidModel, mu: Jet1, x):
    """Adjoint action of a jet on a tangent vector, an algebroid element, or a
    kernel element, returning the same kind."""
    if isinstance(x, AlgebroidVec):
        return adjoint_vec(model, mu, x)
    if isinstance(x, KernelHom):
        return adjoint_hom(model, mu, x)
    return adjoint_tm(model, mu) @ np.asarray(x, dtype=float)


# -- inversion and products --------------------------------------------------


def jet_invert_many(model: GroupoidModel, mu: Jets) -> Jets:
    """Closed-form jet inversion, row by row: mu^-1(v) = T I . mu(Ad_mu^-1 v)."""
    A = adjoint_tm_many(model, mu)
    if not (abs(np.linalg.det(A)) >= DET_TOL).all():  # a NaN determinant is singular too
        raise SingularError("jet's TM-action is singular")
    cols = inv_tangent_many(model, np.repeat(mu.coords, model.n, axis=0),
                            _columns(mu.mu, np.linalg.inv(A)))
    return Jets.at(model, model.inv_many(mu.coords), _from_columns(cols, len(mu)))


def jet_invert(model: GroupoidModel, mu: Jet1) -> Jet1:
    """Closed-form jet inversion: jet_invert_many's batch of one."""
    return jet_invert_many(model, Jets.of([mu]))[0]


def mul_kernel_right_many(model: GroupoidModel, mu: Jets, phi: KernelHoms) -> Jets:
    """Products with kernel elements on the right, row by row:
    (mu . vee(phi))(v) = mu(phi_tm v) + T L_g T I (phi v)."""
    _same_base(phi.m, mu.source, "mul_kernel_right")
    n, N = model.n, model.N
    U = np.repeat(model.unit.many(phi.m), n, axis=0)
    base = mu.mu @ phi.phi_tm
    columns = np.swapaxes(phi.phi, 1, 2).reshape(-1, N)  # row a * n + j: column j of phi[a]
    corr = left_translate_many(model, np.repeat(mu.coords, n, axis=0), U,
                               inv_tangent_many(model, U, columns))
    return Jets(mu.coords, mu.source, mu.target, base + _from_columns(corr, len(mu)))


def mul_kernel_right(model: GroupoidModel, mu: Jet1, phi: KernelHom) -> Jet1:
    """Product with a kernel element on the right: mul_kernel_right_many's batch of one."""
    return mul_kernel_right_many(model, Jets.of([mu]), KernelHoms.of([phi]))[0]


def mul_kernel_left_many(model: GroupoidModel, mu: Jets, phi: KernelHoms) -> Jets:
    """Products with kernel elements on the left, row by row:
    (vee(phi) . mu)(v) = mu(v) - T R_g . phi(Ad_mu v), phi based at the target."""
    _same_base(phi.m, mu.target, "mul_kernel_left")
    n = model.n
    A = adjoint_tm_many(model, mu)
    U = np.repeat(model.unit.many(mu.target), n, axis=0)
    corr = right_translate_many(model, np.repeat(mu.coords, n, axis=0), U,
                                _columns(phi.phi, A))
    return Jets(mu.coords, mu.source, mu.target, mu.mu - _from_columns(corr, len(mu)))


def mul_kernel_left(model: GroupoidModel, mu: Jet1, phi: KernelHom) -> Jet1:
    """Product with a kernel element on the left: mul_kernel_left_many's batch of one."""
    return mul_kernel_left_many(model, Jets.of([mu]), KernelHoms.of([phi]))[0]


def jet_decompose_many(model: GroupoidModel, nu: Jets, S_mu: np.ndarray) -> KernelHoms:
    """Split jets against a connection: nu = vee(phi) . S(g) with
    phi(v) = T R_{g^-1} (mu(Ad_mu^-1 v) - nu(Ad_mu^-1 v)), mu = S(g), whose
    matrices S_mu[a] at the arrows of nu are given. Returns the phi."""
    g = nu.coords
    S_mu = np.ascontiguousarray(S_mu, dtype=float)
    A = differentiate_many(model.tgt, g) @ S_mu
    if not (abs(np.linalg.det(A)) >= DET_TOL).all():  # a NaN determinant is singular too
        raise SingularError("horizontal jet's TM-action is singular")
    Ainv = np.linalg.inv(A)
    n = model.n
    ginv = np.repeat(model.inv_many(g), n, axis=0)
    diff = _columns(S_mu, Ainv) - _columns(nu.mu, Ainv)
    cols = right_translate_many(model, ginv, np.repeat(g, n, axis=0), diff)
    return KernelHoms(model, nu.target, _from_columns(cols, len(nu)))


def jet_decompose(model: GroupoidModel, nu: Jet1, S) -> tuple[Arrow, KernelHom]:
    """Split a jet against a connection S (arrow -> horizontal Jet1):
    jet_decompose_many's batch of one, returning (g, phi)."""
    return nu.g, jet_decompose_many(model, Jets.of([nu]), S(nu.g).mu[None])[0]


def jet_assemble_many(model: GroupoidModel, G: np.ndarray, phi: KernelHoms,
                      S_many) -> Jets:
    """Inverse of jet_decompose: assemble the jets vee(phi) . S(g) at the
    arrows G[k, N], S_many(G) giving the horizontal jets' matrices there
    (CartanConnection.mu_many)."""
    G = np.asarray(G, dtype=float)
    return mul_kernel_left_many(model, Jets.at(model, G, S_many(G)), phi)


def jet_assemble(model: GroupoidModel, g: Arrow, phi: KernelHom, S) -> Jet1:
    """Inverse of jet_decompose: assemble the jet vee(phi) . S(g)."""
    return mul_kernel_left(model, S(g), phi)


def jet_mul_many(model: GroupoidModel, mu1: Jets, mu2: Jets, S_many) -> Jets:
    """Closed-form jet multiplication, row by row, through the semidirect
    splitting induced by a multiplicative connection S (S_many as in
    jet_assemble_many):

        (g1, phi1) (g2, phi2) = (g1 g2, phi1 . Ad_{S(g1)} phi2).

    Agrees with the bisection-jet oracle whenever S is multiplicative."""
    _same_base(mu1.source, mu2.target, "jet_mul: arrows not composable")
    S1 = S_many(mu1.coords)
    phi1 = jet_decompose_many(model, mu1, S1)
    phi2 = jet_decompose_many(model, mu2, S_many(mu2.coords))
    phi12 = aut_mul_many(phi1, adjoint_hom_many(
        model, Jets(mu1.coords, mu1.source, mu1.target, S1), phi2))
    return jet_assemble_many(model, model.mul_many(mu1.coords, mu2.coords), phi12, S_many)


def jet_mul(model: GroupoidModel, mu1: Jet1, mu2: Jet1, S) -> Jet1:
    """Closed-form jet multiplication through a connection S (arrow ->
    horizontal Jet1): jet_mul_many's batch of one."""

    def S_many(G):
        return np.array([S(model.arrow(g)).mu for g in G])

    return jet_mul_many(model, Jets.of([mu1]), Jets.of([mu2]), S_many)[0]


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
    "KernelHom", "KernelHoms", "aut_mul", "aut_mul_many", "aut_inv", "aut_inv_many",
    "vee", "vee_many", "unvee", "zero_kernel_hom", "random_kernel_hom", "KernelDraw",
    "deferred_kernel_hom", "adjoint",
    "adjoint_tm", "adjoint_tm_many", "adjoint_vec", "adjoint_vec_many", "adjoint_hom",
    "adjoint_hom_many", "jet_invert", "jet_invert_many", "mul_kernel_right",
    "mul_kernel_right_many", "mul_kernel_left", "mul_kernel_left_many", "jet_decompose",
    "jet_decompose_many", "jet_assemble", "jet_assemble_many", "jet_mul", "jet_mul_many",
    "assemble_bisection", "kernel_section_pushforward", "random_jet", "identity_jet",
    "identity_jets",
]
