"""Curvature of algebroid connections, involutivity of horizontal plane fields,
the flatness/integrability experiment, and reconstruction of an action algebra
from a flat connection.

All computations run against a smooth local frame of the algebroid built from
the kernel of the source projection: the frame at nearby points is the
symmetric-orthonormalization of the kernel projection of a fixed reference
basis, which is deterministic and smooth wherever no degeneracy occurs.
"""

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chartcalc import (
    WorstErrors,
    batch_of_one,
    exceeds,
    jacobians_fd,
    matvecs,
    memo_by_point,
    path_velocity,
    rk4,
)
from .connection import AlgebroidConnection, CartanConnection
from .errors import FlatnessError
from .groupoid import (
    Arrow,
    algebroid_bracket,
    aligned_frame,
    anchor_matrices,
    sample_base_point,
)

CURV_FD_STEP = 1e-3  # balances d^3-coefficient truncation against nabla noise
GRID_SPACING = 0.05
GRID_RADIUS = 0.2  # a reconstruction's grid is the box of this max-norm radius around m0
FLATNESS_TOL = 1e-4  # curvature and holonomy a reconstruction accepts as flat
TRANSPORT_CACHE_SIZE = 4096  # radial transport matrices a reconstruction keeps


# -- frames and connection coefficients ----------------------------------------


def connection_matrices(nabla: AlgebroidConnection, frame: Callable, rank: int,
                        M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Coefficients of the covariant derivative of the frame at each point of
    a stack M[k, n] along W[a]: nabla_w e_a = sum_b Gamma[b, a] e_b, row a
    at M[a], in one nabla_rows call, so one stacked jet evaluation on the
    direct-formula route. Row a equals connection_matrix(..., M[a], W[a])
    bit for bit.

    The frame K must have orthonormal columns, as aligned_frame's have: K.T
    then solves K Gamma = W for the derivatives W of the columns, and a frame
    that is not orthonormal gives wrong coefficients. The frame is read in
    stacks, through its .many."""
    M = np.asarray(M, dtype=float)
    K = frame.many(M)
    D = nabla.nabla_rows(M, W, frame.many)
    return K.transpose(0, 2, 1) @ D


def connection_matrix(nabla: AlgebroidConnection, frame: Callable, rank: int,
                      m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The coefficients nabla_w e_a = sum_b Gamma[b, a] e_b at m:
    connection_matrices' batch of one."""
    return connection_matrices(nabla, frame, rank, np.asarray(m, dtype=float)[None],
                               np.asarray(w, dtype=float)[None])[0]


# -- curvature -----------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureTensor:
    """curv(d_i, d_j) e_a = sum_b R[i, j, b, a] e_b in the local frame."""

    m: np.ndarray
    R: np.ndarray  # (n, n, r, r), antisymmetric in (i, j)
    frame_at_m: np.ndarray

    @property
    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.R)))


def curvature(nabla: AlgebroidConnection, m: np.ndarray) -> CurvatureTensor:
    """Curvature of the connection at m in the orthonormal kernel frame
    aligned_frame builds at m.

    Connection coefficients Gamma_i are computed at stencil points and
    differentiated by central differences at CURV_FD_STEP, one jacobians_fd
    of the stacked Gamma_j, whose 2n probes take one connection_matrices
    call of 2n^2 rows (Gamma at m takes another, of n); the coordinate-field
    bracket term vanishes, leaving
    R_ij = d_i Gamma_j - d_j Gamma_i + [Gamma_i, Gamma_j], which is exactly
    antisymmetric by construction.
    """
    model = nabla.model
    m = np.asarray(m, dtype=float)
    frame = aligned_frame(model, m)
    r = frame.rank
    n = model.n

    def gammas(P):
        # Gamma_j at each point of P along every coordinate direction j
        W = np.tile(np.eye(n), (len(P), 1))
        G = connection_matrices(nabla, frame, r, np.repeat(P, n, axis=0), W)
        return G.reshape(len(P), n, r, r)

    G0 = gammas(m[None])[0]
    dG = np.moveaxis(jacobians_fd(gammas, m[None], CURV_FD_STEP)[0], -1, 0)  # d_i Gamma_j
    R = np.zeros((n, n, r, r))
    for i in range(n):
        for j in range(n):
            R[i, j] = dG[i, j] - dG[j, i] + G0[i] @ G0[j] - G0[j] @ G0[i]
    return CurvatureTensor(m, R, frame(m))


# -- involutivity of the horizontal plane field ---------------------------------


def frobenius_torsion(S: CartanConnection, g: Arrow) -> np.ndarray:
    """Obstruction to involutivity at an arrow: Lie brackets of the horizontal
    lift fields V_i(g') = mu(g') e_i, projected modulo the horizontal plane by
    orthogonal least squares. Returns tau[i, j] in chart coordinates,
    antisymmetric in (i, j); any complement would do since only vanishing is
    asserted."""
    model = S.model
    n, N = model.n, model.N
    x = g.coords
    mu0 = np.asarray(S.mu_at(x), dtype=float)
    Q, _ = np.linalg.qr(mu0)
    P_perp = np.eye(N) - Q @ Q.T
    # DV[k]: jacobian of the k-th lift field, all 2N probes in one mu_many call
    DV = np.moveaxis(jacobians_fd(S.mu_many, x[None])[0], 1, 0)
    tau = np.zeros((n, n, N))
    for i in range(n):
        for j in range(i + 1, n):
            bracket = DV[j] @ mu0[:, i] - DV[i] @ mu0[:, j]
            val = P_perp @ bracket
            tau[i, j] = val
            tau[j, i] = -val
    return tau


# -- the flatness <-> integrability experiment ----------------------------------


@dataclass(frozen=True)
class FlatnessReport:
    model: str
    seed: int
    curvature_norms: np.ndarray
    torsion_norms: np.ndarray
    tolerance: float
    flat: bool
    involutive: bool
    finite: bool  # every curvature and torsion sample is finite

    @property
    def agreement(self) -> bool:
        """flat == involutive on finite samples. A NaN sample makes both flat
        and involutive read False, which would agree; it fails instead."""
        return self.finite and self.flat == self.involutive

    @property
    def max_curvature(self) -> float:
        return float(np.max(self.curvature_norms))

    @property
    def max_torsion(self) -> float:
        return float(np.max(self.torsion_norms))


def flatness_experiment(S: CartanConnection, seed: int = 0, count: int = 20,
                        tolerance: float = 1e-4) -> FlatnessReport:
    """Paired curvature/involutivity tables over seeded samples: the curvature
    of the induced algebroid connection at base points against the torsion of
    the horizontal plane field at arrows, with a joint verdict."""
    from .connection import infinitesimalize

    model = S.model
    rng = np.random.default_rng(seed)
    nabla = infinitesimalize(S, "direct-formula")
    curv_norms = np.empty(count)
    tors_norms = np.empty(count)
    for idx in range(count):
        m = sample_base_point(model, rng)
        curv_norms[idx] = curvature(nabla, m).norm_inf
        g = model.sample_arrow(rng)
        tors_norms[idx] = float(np.max(np.abs(frobenius_torsion(S, g))))
    return FlatnessReport(
        model=model.name,
        seed=seed,
        curvature_norms=curv_norms,
        torsion_norms=tors_norms,
        tolerance=tolerance,
        flat=bool(np.max(curv_norms) <= tolerance),
        involutive=bool(np.max(tors_norms) <= tolerance),
        finite=bool(np.all(np.isfinite(curv_norms)) and np.all(np.isfinite(tors_norms))),
    )


# -- reconstruction of the action algebra from a flat connection ----------------


@dataclass(frozen=True)
class ReconstructionResult:
    """A basis of covariantly constant sections with its bracket table.

    structure_constants[a, b, k] are the coefficients of [xi_a, xi_b] in the
    reconstructed basis (antisymmetric in (a, b) exactly); action_fields are
    the anchored vector fields on the base."""

    dim_g0: int
    structure_constants: np.ndarray
    action_fields: list
    parallel_sections: list
    residuals: dict


def _transport_matrices(nabla: AlgebroidConnection, frame: Callable, rank: int,
                        path_many: Callable[[float], np.ndarray], steps: int = 16) -> np.ndarray:
    """Parallel-transport matrices of the connection along a stack of paths
    in frame coordinates, in one RK4 integration of a (k, rank, rank) state:
    path_many(t) gives the k paths' points at time t as a (k, n) stack, and
    row a solves dY/dt = -Gamma(path_a(t), path_a'(t)) Y.

    The coefficient does not depend on Y, so it is kept for the latest node
    time and evaluated for every member in one connection_matrices call once
    per RK4 node (2 * steps + 1 times, whatever k is): k2 and k3 share the
    midpoint, and each step's end is the next step's start, bit for bit. Row
    a equals the transport along path_a alone bit for bit. Raises
    NonFiniteError when Y goes non-finite."""

    def coefficients(t):
        t = float(t)  # the memo hands the node time over as a 0-d array
        return -connection_matrices(nabla, frame, rank, np.asarray(path_many(t), dtype=float),
                                    path_velocity(path_many, t))

    latest = memo_by_point(coefficients, size=1)
    Y0 = np.tile(np.eye(rank), (len(path_many(0.0)), 1, 1))
    return rk4(lambda t, Y: latest(t) @ Y, Y0, 0.0, 1.0, steps)


def _transport_matrix(nabla: AlgebroidConnection, frame: Callable, rank: int,
                      path: Callable[[float], np.ndarray], steps: int = 16) -> np.ndarray:
    """Parallel-transport matrix of the connection along one path in frame
    coordinates: _transport_matrices' batch of one."""
    return _transport_matrices(nabla, frame, rank,
                               lambda t: np.asarray(path(t), dtype=float)[None], steps)[0]


def reconstruct_action(nabla: AlgebroidConnection, m0: np.ndarray,
                       sample_count: int = 5, seed: int = 0) -> ReconstructionResult:
    """Extend a basis of the algebroid fibre at m0 to covariantly constant
    sections by radial parallel transport, compute the structure constants of
    their bracket algebra, and validate the Lie-algebra axioms and the anchor
    homomorphism.

    Requires the connection to be flat on the grid: transport along two
    homotopic grid paths must agree to FLATNESS_TOL, otherwise FlatnessError
    (holonomy) is raised, and the curvature precondition is checked up front.

    The radial transports run stacked: the parallelism check and the anchor
    check each differentiate the sections at all their points at once, and
    the transports to all those points a memo has not seen run as one
    _transport_matrices integration. The bracket at m0 reads the sections
    through their stacked .many, one stacked transport per X^R call that
    meets new points.
    """
    model = nabla.model
    n = model.n
    m0 = np.asarray(m0, dtype=float)
    frame = aligned_frame(model, m0)
    r = frame.rank
    rng = np.random.default_rng(seed)

    # flatness precondition on a few grid points
    for probe in (m0, m0 + np.full(n, GRID_RADIUS), m0 - np.full(n, GRID_RADIUS)):
        c = curvature(nabla, probe).norm_inf
        if exceeds(c, FLATNESS_TOL):
            raise FlatnessError(
                f"curvature {c:.2e} above {FLATNESS_TOL:.1e} at {probe}; "
                "reconstruction requires a flat connection")

    # path independence: two homotopic L-shaped grid paths to the far corner,
    # transported as one stack
    corner = m0 + np.full(n, GRID_RADIUS)

    def l_path(first_axis):
        def path(t):
            p = m0.copy()
            if t <= 0.5:
                p[first_axis] += (corner[first_axis] - m0[first_axis]) * 2 * t
            else:
                p[first_axis] = corner[first_axis]
                for ax in range(n):
                    if ax != first_axis:
                        p[ax] += (corner[ax] - m0[ax]) * (2 * t - 1)
            return p

        return path

    l_paths = (l_path(0), l_path(n - 1))
    Y_a, Y_b = _transport_matrices(nabla, frame, r, lambda t: np.stack([p(t) for p in l_paths]))
    path_dependence = float(np.max(np.abs(Y_a - Y_b)))
    if exceeds(path_dependence, FLATNESS_TOL):
        raise FlatnessError(
            f"holonomy detected: homotopic transports differ by {path_dependence:.2e}")

    # covariantly constant sections by radial transport (smooth in the endpoint
    # because the step count is fixed); repeated evaluation points hit a memo,
    # and a stack's new endpoints are transported together
    def radial(M):
        return _transport_matrices(nabla, frame, r, lambda t: m0 + t * (M - m0))

    transport_to = memo_by_point(
        lambda m: _transport_matrix(nabla, frame, r, lambda t: m0 + t * (m - m0)),
        TRANSPORT_CACHE_SIZE, func_many=radial)

    def section_rows(P):  # (len(P), r, N): row [p, a] is section a at P[p]
        # stacked matvecs ([..., None]): the rounding of K @ T[p, :, a]
        T = transport_to.many(P)
        return (frame.many(P)[:, None] @ T.transpose(0, 2, 1)[..., None])[..., 0]

    def sections_many(P):  # (len(P), N, r)
        return section_rows(P).transpose(0, 2, 1)

    def fields_many(P):  # (len(P), r, n): row [p, a] is the anchor of section a at P[p]
        return matvecs(anchor_matrices(model, P)[:, None], section_rows(P))

    # section a and action field a read column a of the stacked forms, and
    # at one point each is its .many's batch of one
    sections = [batch_of_one(lambda P, a=a: sections_many(P)[:, :, a]) for a in range(r)]
    fields = [batch_of_one(lambda P, a=a: fields_many(P)[:, a]) for a in range(r)]

    # structure constants from the bracket at m0 (transport matrix there = id)
    K0 = frame(m0)
    c = np.zeros((r, r, r))
    for a in range(r):
        for b in range(a + 1, r):
            val = algebroid_bracket(model, sections[a], sections[b], m0).vec
            coeffs, *_ = np.linalg.lstsq(K0, val, rcond=None)
            c[a, b] = coeffs
            c[b, a] = -coeffs

    residuals = WorstErrors(("jacobi", "anchor_hom", "parallelism", "path_dependence"))
    residuals.record("jacobi", _jacobi_residual(c))
    residuals.record("path_dependence", path_dependence)
    # every section along every coordinate direction at the 3^n grid points
    # whose every coordinate is the centre or an end of its axis
    grid_axis = np.arange(-GRID_RADIUS, GRID_RADIUS + GRID_SPACING / 2, GRID_SPACING)
    probe_pts = [m0 + np.array(offs) for offs in itertools.product(grid_axis[::4], repeat=n)]
    M = np.repeat(probe_pts, n, axis=0)
    V = np.tile(np.eye(n), (len(probe_pts), 1))
    residuals.record("parallelism", nabla.nabla_rows(M, V, sections_many))

    # the samples are drawn first, then every field is differentiated at all
    # of them in one stacked call
    samples = [m0 + rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=n) for _ in range(sample_count)]
    if samples:
        J = jacobians_fd(fields_many, samples)  # J[s, a]: the jacobian of fields[a]
        for Js, Fs in zip(J, fields_many(samples)):
            for a in range(r):
                for b in range(a + 1, r):
                    lhs = Js[b] @ Fs[a] - Js[a] @ Fs[b]
                    rhs = sum(c[a, b, k] * Fs[k] for k in range(r))
                    residuals.record("anchor_hom", lhs - rhs)

    return ReconstructionResult(
        dim_g0=r,
        structure_constants=c,
        action_fields=fields,
        parallel_sections=sections,
        residuals=residuals,
    )


def _jacobi_residual(c: np.ndarray) -> float:
    r = c.shape[0]
    worst = WorstErrors(("jacobi",))
    for a in range(r):
        for b in range(r):
            for d in range(r):
                total = np.zeros(r)
                for e in range(r):
                    total += (c[a, b, e] * c[e, d]
                              + c[b, d, e] * c[e, a]
                              + c[d, a, e] * c[e, b])
                worst.record("jacobi", total)
    return worst["jacobi"]
