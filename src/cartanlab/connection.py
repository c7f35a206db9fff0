"""Cartan connections on groupoid models and their infinitesimalization.

A connection is a smooth assignment of a horizontal jet to every arrow,
i.e. a section of the jet projection, written once on stacks of arrows (its
mu_at is that map's batch of one). Multiplicativity (the section being a
groupoid morphism) is never assumed: check_multiplicative samples it against
the bisection-jet oracle and returns its worst error, and the connection
itself stays as it was built.

Infinitesimalization produces a linear connection on the algebroid by three
routes, each in one form, on stacks of samples: AlgebroidConnection.nabla(M,
V, family) differentiates section a of a family (extend_bisections' form:
family(P, owner) gives row r as section owner[r] at P[r]) at M[a] along V[a],
and the connection called on one sample (m, v, X) is that form's batch of
one. On the direct-formula route, several sections at every sample
(nabla_rows) are one call too.

* "flow-formula": the coordinate-function identity
      <df, nabla_v X> = d/dt <df, T_m(Phi^t . unit) v> - d/dt <df, S(Phi^t(m)) v>
  evaluated with RK4 flows of the right-invariant extension and outer central
  t-differences (step 1e-3); the tangent is pushed through the flow by the
  matrix-free variational system (one directional difference of X^R per
  stage). The flows of every sample from both outer t-points run as one
  stacked RK4 integration of 2k members (flow_with_tangent) whose every
  stage evaluates X^R at the members' points and at the probes of their
  tangents in one right_invariant_many call, each row reading its sample's
  section. The chart coordinate functions span the test functions, so the
  identity determines nabla.
* "parallel-transport": differentiate the parallel action of the horizontal
  distribution along a path with initial velocity v, again with outer central
  t-differences. The transports of every sample from both outer t-points run
  as one stacked RK4 integration of 2k members (transport_many), each along
  its own sample's path, whose every stage takes the jets at the members'
  arrows and at the probes of their tangents in one mu_many call.
* "direct-formula": the exact t -> 0 limit of the flow formula,
      nabla_v X = D_m[X^R . unit] v - D_g[S(.) v] X(m),
  which needs only single-level spatial derivatives. It is the high-precision
  route used by curvature computations and is cross-validated against both
  literal routes. It differentiates a family, or several sections at every
  point of a stack (nabla_rows), with one mu_many call for all their
  stencil arrows.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chartcalc import (
    WorstErrors,
    deriv_at_zero,
    differentiate_many,
    directional_derivatives,
    draw_then_evaluate,
    exceeds,
    flow_with_tangent,
    matvecs,
    path_velocity,
    rk4,
    stacked,
    values_and_directional_derivatives,
)
from .errors import DomainError, EscapeError, SamplingError
from .groupoid import (
    AlgebroidVec,
    Arrow,
    GroupoidModel,
    Jet1,
    Jets,
    algebroid_vec,
    base_points,
    compose_families,
    draw_samples_then_evaluate,
    extend_bisections,
    family_rows,
    identity_jets,
    jet_distances,
    oracle_jets_and_refusals,
    outer_fd_step,
    right_invariant_many,
    sample_base_point,
    section_family,
)

T_DIFF_STEP = 1e-3  # outer central-difference step for the two literal routes
ODE_STEP_TARGET = 2.5e-3  # RK4 step bound; comfortably under the 1e-2 contract
UNITAL_SAMPLES = 20  # base points check_unital samples


@dataclass(frozen=True)
class CartanConnection:
    """A horizontal-jet assignment on a model.

    mu_at maps raw chart coordinates of an arrow to the (N, n) jet matrix; it
    must be defined on the whole sampled chart box so that curves through
    arrows can be differentiated. A model writes it once, on stacks: mu_at is
    the batch of one (chartcalc.batch_of_one) of a map from a stack of arrows
    (k, N) to their jets (k, N, n), row a equal to mu_at(G[a]) bit for bit
    whatever the stack, which mu_many reads as mu_at.many.
    """

    model: GroupoidModel
    mu_at: Callable[[np.ndarray], np.ndarray]
    name: str = "connection"

    def mu_many(self, G: np.ndarray) -> np.ndarray:
        """The jets at a stack of arrows: mu_at.many, or mu_at row by row."""
        return stacked(self.mu_at, getattr(self.mu_at, "many", None), G)

    def jet(self, g: Arrow) -> Jet1:
        return Jet1(g, np.asarray(self.mu_at(g.coords), dtype=float))

    def __call__(self, g: Arrow) -> Jet1:
        return self.jet(g)


def check_unital(S: CartanConnection, rng: np.random.Generator) -> float:
    """Max deviation of S(unit(m)) from the identity jet at UNITAL_SAMPLES sampled m.

    Every base point is drawn first, in the per-sample loop's rng order; then
    one unit.many, one mu_many and one identity_jets call evaluate them all
    (chartcalc.draw_then_evaluate)."""
    model = S.model
    worst = WorstErrors(("unital",))

    def evaluate(M):
        U = model.unit.many(M)
        worst.record("unital", jet_distances(Jets.at(model, U, S.mu_many(U)),
                                             identity_jets(model, M)))

    draw_then_evaluate(rng, UNITAL_SAMPLES, lambda: (sample_base_point(model, rng),), evaluate)
    return worst["unital"]


def check_multiplicative(S: CartanConnection, seed: int = 0, count: int = 50) -> float:
    """Max deviation of S(g1 g2) from the oracle product of S(g1) and S(g2)
    over count sampled composable pairs; a jet the oracle refuses reads +inf.

    Every pair is drawn first, in the per-sample loop's rng order, its arrows
    deferred; then one mul_many, three mu_many calls (the factors and their
    products) and one oracle_jets_and_refusals call on the products of the
    factors' bisections, oracle_jet_muls' family, evaluate them all
    (groupoid.draw_samples_then_evaluate). A pair whose product the oracle
    refuses (a NaN jet among them) records +inf."""
    model = S.model
    if count < 1:
        raise SamplingError(f"no composable pairs drawn on {model.name}")
    rng = np.random.default_rng(seed)
    worst = WorstErrors(("multiplicative",))

    def draw(sample):
        g, h = sample.composable(rng)
        return g.coords, h.coords

    def evaluate(G, H):
        GH = model.mul_many(G, H)
        lhs = Jets.at(model, GH, S.mu_many(GH))
        J1, J2 = Jets.at(model, G, S.mu_many(G)), Jets.at(model, H, S.mu_many(H))
        # the sampler placed each g at its h's target (check_sources): the pairs compose
        products = compose_families(model, extend_bisections(model, J1),
                                    extend_bisections(model, J2))
        rhs, refusals = oracle_jets_and_refusals(model, products, J2.source)
        standing = np.array([r is None for r in refusals])
        if not standing.all():
            worst.record("multiplicative", math.inf)
        worst.record("multiplicative", jet_distances(lhs, rhs)[standing])

    draw_samples_then_evaluate(model, rng, count, draw, evaluate)
    return worst["multiplicative"]


# -- parallel transport ------------------------------------------------------


def _steps_for(span: float) -> int:
    return max(1, int(np.ceil(abs(span) / ODE_STEP_TARGET)))


def _one_member(gamma: Callable[[float], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """A path of one point as the stacked path of one member."""
    return lambda T: np.asarray(gamma(T[0, 0]), dtype=float)[None]


def parallel_transport(S: CartanConnection, gamma: Callable[[float], np.ndarray],
                       t0: float, t1: float, g: Arrow,
                       steps: int | None = None) -> Arrow:
    """Transport an arrow along a base path by the horizontal-lift ODE
    dg/dt = mu(S(g)) . gamma'(t), from t0 to t1: transport_many's batch of
    one, its arrow row, with a zero tangent.

    The lift keeps src(g(t)) = gamma(t); identity arrows transport to identity
    arrows. Raises EscapeError if the trajectory leaves the chart box."""
    model = S.model
    if exceeds(float(np.max(np.abs(g.source - np.asarray(gamma(t0))))), 1e-8):
        raise EscapeError("initial arrow does not sit over gamma(t0)")
    if steps is None:
        steps = _steps_for(t1 - t0)
    X, _ = transport_many(S, _one_member(gamma), np.array([t0], dtype=float), t1,
                          g.coords[None], np.zeros((1, model.N)), steps)
    return model.arrow(X[0])


def transport_many(S: CartanConnection, gamma: Callable[[np.ndarray], np.ndarray],
                   t0: np.ndarray, t1: float, coords0: np.ndarray, W0: np.ndarray,
                   steps: int) -> tuple[np.ndarray, np.ndarray]:
    """transport_with_vector for a stack of members, each along its own path:
    member a starts at time t0[a] from the arrow coords0[a] with the vector
    W0[a], and all run to t1 in one RK4 integration of the shared step count.

    gamma is a stacked path: gamma(T), for the members' times as a column
    T[k, 1], gives row a as member a's path at T[a, 0]. A path of one point
    written in elementwise arithmetic (m + t v) is a path the members share,
    and one written over stacks of points (M + t V) a path per member.

    Each stage evaluates the jets at every member's arrow and at both probes
    of its tangent's central difference in one mu_many call. Row a equals
    transport_with_vector on member a alone bit for bit. Raises EscapeError,
    naming the first row, when an arrow leaves the chart box."""
    N, n = S.model.N, S.model.n
    box = S.model.domain_box

    def lifted_field(P):
        # a row of P is an arrow and the path velocity its jet multiplies
        return matvecs(S.mu_many(P[:, :N]), P[:, N:])

    def rhs(t, Y):
        # the velocity rides along as a coordinate the probes do not move, so
        # the field and its tangent need no member labels
        lifted = np.concatenate([Y[:, :N], path_velocity(gamma, t[:, None])], axis=1)
        fields, tangents = values_and_directional_derivatives(
            lifted_field, lifted, np.concatenate([Y[:, N:], np.zeros((len(Y), n))], 1))
        return np.concatenate([fields, tangents], axis=1)

    def stay_in_box(Y):
        X = Y[:, :N]
        outside = ~np.all((X >= box[:, 0]) & (X <= box[:, 1]), axis=1)
        if outside.any():
            x = X[np.flatnonzero(outside)[0]]
            raise EscapeError(f"horizontal lift left the chart box at {x}")

    Y = rk4(rhs, np.concatenate([coords0, W0], axis=1), t0, t1, steps, check=stay_in_box)
    return Y[:, :N], Y[:, N:]


def transport_with_vector(S: CartanConnection, gamma: Callable[[float], np.ndarray],
                          t0: float, t1: float, coords0: np.ndarray, w0: np.ndarray,
                          steps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal lift together with its linearization: integrates the
    variational system d(dg)/dt = D_g[mu(S(g)) gamma'(t)] . dg alongside the
    lift, which is how tangent vectors to source fibres are transported.
    transport_many's batch of one; raises EscapeError when the lift leaves
    the chart box."""
    if steps is None:
        steps = _steps_for(t1 - t0)
    X, W = transport_many(S, _one_member(gamma), np.array([t0], dtype=float), t1,
                          np.asarray(coords0, dtype=float)[None],
                          np.asarray(w0, dtype=float)[None], steps)
    return X[0], W[0]


def algebroid_transport(S: CartanConnection, gamma: Callable[[float], np.ndarray],
                        t0: float, t1: float, X: AlgebroidVec,
                        steps: int | None = None) -> AlgebroidVec:
    """The parallel action on the algebroid obtained by differentiating the
    arrow transport: transports a source-vertical vector at unit(gamma(t0)) to
    one at unit(gamma(t1))."""
    model = S.model
    u0 = model.unit(np.asarray(gamma(t0), dtype=float))
    _, w = transport_with_vector(S, gamma, t0, t1, u0, X.vec, steps=steps)
    return algebroid_vec(model, np.asarray(gamma(t1), dtype=float), w, check=False)


# -- infinitesimalization ----------------------------------------------------


@dataclass(frozen=True)
class AlgebroidConnection:
    """The linear connection on the algebroid induced by a groupoid connection,
    in one form, on stacks: nabla(M[k, n], V[k, n], family), for a family of
    sections in extend_bisections' form (family(P, owner) gives row r as
    section owner[r] at P[r], as AffineSection.stack_of builds it), is the
    (k, N) array whose row a differentiates section a at M[a] along V[a].
    Calling the connection on one point m, direction v and section X is that
    form's batch of one, over X's family of one (section_family).

    nabla_rows, on the direct-formula route, is the stacked form for several
    sections at every point: nabla_rows(M[k, n], V[k, n], values_many) is the
    (k, N, s) array whose [a, :, b] differentiates section b at M[a] along
    V[a], where values_many(P) gives the sections' values at a stack of
    points P[p, n] as a (p, N, s) array. The literal routes have none."""

    model: GroupoidModel
    nabla: Callable[[np.ndarray, np.ndarray, Callable], np.ndarray]
    nabla_rows: Callable[[np.ndarray, np.ndarray, Callable], np.ndarray] | None = None

    def __call__(self, m: np.ndarray, v: np.ndarray, X: Callable) -> AlgebroidVec:
        m = base_points(self.model, m, 1)
        v = base_points(self.model, v, 1)
        return algebroid_vec(self.model, m, self.nabla(m[None], v[None], section_family(X))[0],
                             check=False)


def sample_stacks(model: GroupoidModel, M: np.ndarray, V: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The points and directions of a stacked nabla call, as float stacks of
    base points (groupoid.base_points). Raises DomainError when either is not
    a stack of points of dimension n or their lengths differ."""
    M, V = base_points(model, M), base_points(model, V)
    if len(M) != len(V):
        raise DomainError(f"{len(M)} base points but {len(V)} directions")
    return M, V


def _outer_members(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The members of a literal route's stacked integration over k samples:
    the +tau members of every sample, then the -tau members, as their times
    and their samples (owner)."""
    k = len(M)
    return np.repeat([T_DIFF_STEP, -T_DIFF_STEP], k), np.tile(np.arange(k), 2)


def _outer_derivative(out: np.ndarray) -> np.ndarray:
    """deriv_at_zero over the outer t-points of _outer_members' rows."""
    k = len(out) // 2
    return deriv_at_zero(lambda s: out[:k] if s > 0 else out[k:], T_DIFF_STEP)


def infinitesimalize(S: CartanConnection, method: str = "direct-formula") -> AlgebroidConnection:
    """Build the induced algebroid connection by the named route; see the
    module docstring for the three methods."""
    if method == "direct-formula":
        return _infinitesimalize_direct(S)
    if method == "flow-formula":
        return _infinitesimalize_flow(S)
    if method == "parallel-transport":
        return _infinitesimalize_transport(S)
    raise ValueError(f"unknown infinitesimalization method {method!r}")


def _infinitesimalize_direct(S: CartanConnection) -> AlgebroidConnection:
    model = S.model
    N, n = model.N, model.n

    def lifted_field(P):
        # a row of P is an arrow and the direction its jet multiplies; the
        # stacked product runs the same BLAS routine per row as mu @ v
        return matvecs(S.mu_many(P[:, :N]), P[:, N:])

    def nabla_rows(M, V, values_many, owner=None):
        # the right-invariant extension restricted to unit arrows is the
        # section itself (right translation by a unit is the identity), so the
        # first term needs only the sections' own derivatives, whose probes
        # join the rows of M in one values_many call (with owner, a family's
        # call, each probe labelled with its row's owner); the second term
        # steps from each row's unit arrow along each section's value there,
        # all 2 k s probes in one mu_many call, each row's v riding along as
        # a coordinate the probes do not move
        M, V = sample_stacks(model, M, V)
        values, term1 = values_and_directional_derivatives(values_many, M, V, owner=owner)
        k, _, s = values.shape
        base = np.repeat(np.concatenate([model.unit.many(M), V], axis=1), s, axis=0)
        directions = np.concatenate([values.transpose(0, 2, 1).reshape(k * s, N),
                                     np.zeros((k * s, n))], axis=1)
        term2 = directional_derivatives(lifted_field, base, directions)
        return term1 - term2.reshape(k, s, N).transpose(0, 2, 1)

    def nabla(M, V, family):
        return nabla_rows(M, V, lambda P, owner: family(P, owner)[..., None],
                          np.arange(len(M)))[..., 0]

    return AlgebroidConnection(model, nabla, nabla_rows)


def _infinitesimalize_flow(S: CartanConnection) -> AlgebroidConnection:
    model = S.model
    h_field = outer_fd_step(model)

    def nabla(M, V, family):
        M, V = sample_stacks(model, M, V)
        taus, owner = _outer_members(M)
        fields = []

        def field_jvp(G, W):
            # one X^R call for the members' points and their probes, each
            # row reading its sample's section; the field reads the members'
            # rows back
            values, slopes = values_and_directional_derivatives(
                lambda H, rows: right_invariant_many(model, family_rows(family, rows), H),
                G, W, h_field, owner=owner)
            fields.append(values)
            return slopes

        # every sample's flows from both outer t-points run as one stacked
        # integration
        U = model.unit.many(M)[owner]
        V0 = matvecs(differentiate_many(model.unit, M), V)[owner]
        G, A = flow_with_tangent(lambda Y: fields.pop(), field_jvp, U, V0, taus, steps=4)
        return _outer_derivative(A - matvecs(S.mu_many(G), V[owner]))

    return AlgebroidConnection(model, nabla)


def _straight_path(m: np.ndarray, v: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    return lambda t: m + t * v


def _infinitesimalize_transport(S: CartanConnection,
                                path_factory=_straight_path) -> AlgebroidConnection:
    model = S.model

    def nabla(M, V, family):
        M, V = sample_stacks(model, M, V)
        # every sample's transports from both outer t-points run as one
        # stacked integration, member r along its sample's path
        taus, owner = _outer_members(M)
        gamma = path_factory(M[owner], V[owner])
        P = np.asarray(gamma(taus[:, None]), dtype=float)
        _, out = transport_many(S, gamma, taus, 0.0, model.unit.many(P), family(P, owner),
                                steps=4)
        return _outer_derivative(out)

    return AlgebroidConnection(model, nabla)


def infinitesimalize_along(S: CartanConnection, path_factory) -> AlgebroidConnection:
    """Parallel-transport route along caller-supplied representative paths:
    path_factory(m, v) must return gamma with gamma(0)=m, gamma'(0)=v. It is
    also called on stacks M[k, n], V[k, n], and its path then evaluated at a
    column of times T[k, 1] (transport_many's stacked path), so it must be
    written in elementwise arithmetic, as m + t v + t^2 b is. Used to confirm
    the result does not depend on the representative path."""
    return _infinitesimalize_transport(S, path_factory=path_factory)
