"""Cartan connections on groupoid models and their infinitesimalization.

A connection is a smooth assignment of a horizontal jet to every arrow,
i.e. a section of the jet projection, written once on stacks of arrows (its
mu_at is that map's batch of one). Multiplicativity (the section being a
groupoid morphism) is never assumed: check_multiplicative samples it against
the bisection-jet oracle and returns its worst error, and the connection
itself stays as it was built.

Infinitesimalization produces a linear connection on the algebroid by three
routes:

* "flow-formula": the coordinate-function identity
      <df, nabla_v X> = d/dt <df, T_m(Phi^t . unit) v> - d/dt <df, S(Phi^t(m)) v>
  evaluated with RK4 flows of the right-invariant extension and outer central
  t-differences (step 1e-3); the tangent is pushed through the flow by the
  matrix-free variational system (one directional difference of X^R per
  stage). The flows from both outer t-points run as one stacked RK4
  integration (flow_with_tangent) whose every stage evaluates X^R at both
  members' points and at the four probes of their tangents in one
  right_invariant_many call. The chart coordinate functions span the test
  functions, so the identity determines nabla.
* "parallel-transport": differentiate the parallel action of the horizontal
  distribution along a path with initial velocity v, again with outer central
  t-differences. The transports from both outer t-points run as one stacked
  RK4 integration (transport_many) whose every stage takes the jets at both
  arrows and at the four probes of their tangents in one mu_many call.
* "direct-formula": the exact t -> 0 limit of the flow formula,
      nabla_v X = D_m[X^R . unit] v - D_g[S(.) v] X(m),
  which needs only single-level spatial derivatives. It is the high-precision
  route used by curvature computations and is cross-validated against both
  literal routes. Its nabla_batch form differentiates several sections at a
  stack of points with one mu_many call for all their stencil arrows; nabla
  is its batch of one.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chartcalc import (
    WorstErrors,
    deriv_at_zero,
    directional_derivatives,
    exceeds,
    flow_with_tangent,
    in_box,
    path_velocity,
    rk4,
    stacked,
    values_and_directional_derivatives,
)
from .errors import EscapeError, NotABisectionError, SamplingError
from .groupoid import (
    AlgebroidVec,
    Arrow,
    GroupoidModel,
    Jet1,
    algebroid_vec,
    identity_jet,
    jet_distance,
    oracle_jet_mul,
    outer_fd_step,
    right_invariant_many,
    sample_base_point,
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
    """Max deviation of S(unit(m)) from the identity jet at UNITAL_SAMPLES sampled m."""
    worst = WorstErrors(("unital",))
    for _ in range(UNITAL_SAMPLES):
        m = sample_base_point(S.model, rng)
        worst.record("unital", jet_distance(S.jet(S.model.unit_arrow(m)),
                                            identity_jet(S.model, m)))
    return worst["unital"]


def check_multiplicative(S: CartanConnection, seed: int = 0, count: int = 50) -> float:
    """Max deviation of S(g1 g2) from the oracle product of S(g1) and S(g2)
    over count sampled composable pairs; a jet the oracle refuses reads +inf."""
    model = S.model
    if count < 1:
        raise SamplingError(f"no composable pairs drawn on {model.name}")
    rng = np.random.default_rng(seed)
    worst = WorstErrors(("multiplicative",))
    for _ in range(count):
        g, h = model.sample_composable(rng)
        lhs = S.jet(model.arrow(model.mul(g.coords, h.coords)))
        try:
            rhs = oracle_jet_mul(model, S.jet(g), S.jet(h))
        except NotABisectionError:
            # the oracle takes only jets of bisections, so a jet it refuses
            # (a NaN one among them) fails the sample
            worst.record("multiplicative", math.inf)
            continue
        worst.record("multiplicative", jet_distance(lhs, rhs))
    return worst["multiplicative"]


# -- parallel transport ------------------------------------------------------


def _steps_for(span: float) -> int:
    return max(1, int(np.ceil(abs(span) / ODE_STEP_TARGET)))


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
    X, _ = transport_many(S, gamma, np.array([t0], dtype=float), t1, g.coords[None],
                          np.zeros((1, model.N)), steps)
    return model.arrow(X[0])


def transport_many(S: CartanConnection, gamma: Callable[[float], np.ndarray],
                   t0: np.ndarray, t1: float, coords0: np.ndarray, W0: np.ndarray,
                   steps: int) -> tuple[np.ndarray, np.ndarray]:
    """transport_with_vector for a stack of members along one path: member a
    starts at time t0[a] from the arrow coords0[a] with the vector W0[a], and
    all run to t1 in one RK4 integration of the shared step count. Each stage
    evaluates the jets at every member's arrow and at both probes of its
    tangent's central difference in one mu_many call. Row a equals
    transport_with_vector on member a alone bit for bit. Raises EscapeError
    when an arrow leaves the chart box."""
    N = S.model.N

    def lifted_field(P):
        # a row of P is an arrow and the path velocity its jet multiplies
        return np.stack([mu @ p[N:] for mu, p in zip(S.mu_many(P[:, :N]), P)])

    def rhs(t, Y):
        # the velocity rides along as a coordinate the probes do not move, so
        # the field and its tangent need no member labels
        lifted = np.concatenate([Y[:, :N], [path_velocity(gamma, ta) for ta in t]], axis=1)
        fields, tangents = values_and_directional_derivatives(
            lifted_field, lifted, np.concatenate([Y[:, N:], np.zeros((len(Y), S.model.n))], 1))
        return np.concatenate([fields, tangents], axis=1)

    def stay_in_box(Y):
        for x in Y[:, :N]:
            if not in_box(x, S.model.domain_box):
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
    X, W = transport_many(S, gamma, np.array([t0], dtype=float), t1,
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


def section_values(sections: list) -> Callable[[np.ndarray], np.ndarray]:
    """The values_many of a list of sections: at each row of a stack P[p, n],
    the (N, len(sections)) matrix whose column a is sections[a] there."""

    def values_many(P):
        return np.array([[X(p) for X in sections] for p in P], dtype=float).transpose(0, 2, 1)

    return values_many


@dataclass(frozen=True)
class AlgebroidConnection:
    """The linear connection on the algebroid induced by a groupoid connection:
    nabla(m, v, X) differentiates the section X at m along the tangent
    direction v. nabla_batch, when supplied, is a route's stacked form:
    nabla_batch(M[k, n], V[k, n], values_many) differentiates several
    sections at each M[a] along V[a], as a (k, N, s) array, where
    values_many(P) gives the sections' values at a stack of points P[p, n]
    as a (p, N, s) array (see nabla_rows)."""

    model: GroupoidModel
    nabla: Callable[[np.ndarray, np.ndarray, Callable], AlgebroidVec]
    nabla_batch: Callable[[np.ndarray, np.ndarray, Callable], np.ndarray] | None = None

    def __call__(self, m: np.ndarray, v: np.ndarray, X: Callable) -> AlgebroidVec:
        return self.nabla(np.asarray(m, dtype=float), np.asarray(v, dtype=float), X)

    def nabla_rows(self, M: np.ndarray, V: np.ndarray, sections: list,
                   values_many: Callable | None = None) -> np.ndarray:
        """The (k, N, len(sections)) array whose [a, :, b] is
        nabla(M[a], V[a], sections[b]).vec, bit for bit: one nabla_batch call,
        with values_many the sections' stacked values (section_values by
        default), or nabla row by row on a route without a stacked form."""
        M = np.asarray(M, dtype=float)
        V = np.asarray(V, dtype=float)
        if self.nabla_batch is None:
            return np.stack([np.stack([self.nabla(m, v, X).vec for X in sections], axis=1)
                             for m, v in zip(M, V)])
        return self.nabla_batch(M, V, values_many or section_values(sections))


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
        return (S.mu_many(P[:, :N]) @ P[:, N:, None])[..., 0]

    def nabla_batch(M, V, values_many):
        # the right-invariant extension restricted to unit arrows is the
        # section itself (right translation by a unit is the identity), so the
        # first term needs only the sections' own derivatives, whose probes
        # join the rows of M in one values_many call; the second term steps
        # from each row's unit arrow along each section's value there, all
        # 2 k s probes in one mu_many call, each row's v riding along as a
        # coordinate the probes do not move
        values, term1 = values_and_directional_derivatives(values_many, M, V)
        k, _, s = values.shape
        base = np.repeat(np.concatenate([model.unit.many(M), V], axis=1), s, axis=0)
        directions = np.concatenate([values.transpose(0, 2, 1).reshape(k * s, N),
                                     np.zeros((k * s, n))], axis=1)
        term2 = directional_derivatives(lifted_field, base, directions)
        return term1 - term2.reshape(k, s, N).transpose(0, 2, 1)

    def nabla(m, v, X):
        M, V = np.atleast_2d(np.asarray(m, dtype=float), np.asarray(v, dtype=float))
        return algebroid_vec(model, m, nabla_batch(M, V, section_values([X]))[0, :, 0],
                             check=False)

    return AlgebroidConnection(model, nabla, nabla_batch=nabla_batch)


def _infinitesimalize_flow(S: CartanConnection) -> AlgebroidConnection:
    model = S.model
    h_field = outer_fd_step(model)
    taus = np.array([T_DIFF_STEP, -T_DIFF_STEP])

    def nabla(m, v, X):
        fields = []

        def field_jvp(Y, W):
            # one X^R call for the members' points and their probes; the
            # field reads the members' rows back
            values, slopes = values_and_directional_derivatives(
                lambda G: right_invariant_many(model, X, G), Y, W, h_field)
            fields.append(values)
            return slopes

        # both outer t-points' flows run as one stacked integration
        u, v0 = model.unit(m), model.Tunit(m) @ v
        G, A = flow_with_tangent(lambda Y: fields.pop(), field_jvp, np.stack([u, u]),
                                 np.stack([v0, v0]), taus, steps=4)
        diff = A - np.stack([mu @ v for mu in S.mu_many(G)])
        val = deriv_at_zero(lambda s: diff[0] if s > 0 else diff[1], T_DIFF_STEP)
        return algebroid_vec(model, m, val, check=False)

    return AlgebroidConnection(model, nabla)


def _straight_path(m: np.ndarray, v: np.ndarray) -> Callable[[float], np.ndarray]:
    return lambda t: m + t * v


def _infinitesimalize_transport(S: CartanConnection,
                                path_factory=_straight_path) -> AlgebroidConnection:
    model = S.model

    def nabla(m, v, X):
        gamma = path_factory(m, v)
        # both outer t-points' transports run as one stacked integration
        taus = np.array([T_DIFF_STEP, -T_DIFF_STEP])
        P = [np.asarray(gamma(tau), dtype=float) for tau in taus]
        _, out = transport_many(S, gamma, taus, 0.0, np.stack([model.unit(p) for p in P]),
                                np.stack([np.asarray(X(p), dtype=float) for p in P]), steps=4)
        val = deriv_at_zero(lambda s: out[0] if s > 0 else out[1], T_DIFF_STEP)
        return algebroid_vec(model, m, val, check=False)

    return AlgebroidConnection(model, nabla)


def infinitesimalize_along(S: CartanConnection, path_factory) -> AlgebroidConnection:
    """Parallel-transport route along caller-supplied representative paths
    (path_factory(m, v) must return gamma with gamma(0)=m, gamma'(0)=v); used
    to confirm the result does not depend on the representative path."""
    return _infinitesimalize_transport(S, path_factory=path_factory)
