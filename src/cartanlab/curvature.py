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
    central_probes,
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
    algebroid_brackets,
    aligned_frame,
    aligned_frames,
    anchor_matrices,
    base_points,
    draw_samples_then_evaluate,
    sample_base_point,
)

CURV_FD_STEP = 1e-3  # balances d^3-coefficient truncation against nabla noise
GRID_SPACING = 0.05
GRID_RADIUS = 0.2  # a reconstruction's grid is the box of this max-norm radius around m0
FLATNESS_TOL = 1e-4  # curvature and holonomy a reconstruction accepts as flat
TRANSPORT_CACHE_SIZE = 4096  # radial transport matrices a reconstruction keeps


# -- frames and connection coefficients ----------------------------------------


def connection_matrices(nabla: AlgebroidConnection, frame: Callable,
                        M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Coefficients of the covariant derivative of the frame at each point of
    a stack M[k, n] along W[a]: nabla_w e_a = sum_b Gamma[b, a] e_b, row a
    at M[a], in one nabla_rows call, one stacked jet evaluation; the
    connection is the direct-formula route's, the one route with that form.
    Row a equals connection_matrix(..., M[a], W[a]) bit for bit.

    The frame K must have orthonormal columns, as aligned_frame's have: K.T
    then solves K Gamma = W for the derivatives W of the columns, and a frame
    that is not orthonormal gives wrong coefficients. The frame is read in
    stacks, through its .many."""
    M = np.asarray(M, dtype=float)
    K = frame.many(M)
    D = nabla.nabla_rows(M, W, frame.many)
    return K.transpose(0, 2, 1) @ D


def connection_matrix(nabla: AlgebroidConnection, frame: Callable,
                      m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The coefficients nabla_w e_a = sum_b Gamma[b, a] e_b at m:
    connection_matrices' batch of one."""
    return connection_matrices(nabla, frame, np.asarray(m, dtype=float)[None],
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


def curvatures(nabla: AlgebroidConnection, M: np.ndarray) -> list[CurvatureTensor]:
    """Curvature of the connection at each point of a stack M[k, n], each in
    the orthonormal kernel frame aligned_frame builds at that point. Rows
    that share a frame (groupoid.aligned_frames; on every shipped model all
    of them do) are taken together by _curvatures_in_frame, so a stack of
    one frame makes two connection_matrices calls whatever k. Row a is the
    curvature at M[a] alone bit for bit."""
    M = base_points(nabla.model, M)
    out = [None] * len(M)
    for frame, rows in aligned_frames(nabla.model, M):
        for a, curv in zip(rows, _curvatures_in_frame(nabla, frame, M[rows])):
            out[a] = curv
    return out


def _curvatures_in_frame(nabla: AlgebroidConnection, frame: Callable,
                         M: np.ndarray) -> list[CurvatureTensor]:
    """The curvatures at a stack M[k, n] of points that share one frame.

    Connection coefficients Gamma_i are computed at stencil points and
    differentiated by central differences at CURV_FD_STEP: one
    connection_matrices call of n k rows takes Gamma at M, and one
    jacobians_fd of the stacked Gamma_j, whose 2n k probes take one
    connection_matrices call of 2n^2 k rows, takes their derivatives. The
    coordinate-field bracket term vanishes, leaving
    R_ij = d_i Gamma_j - d_j Gamma_i + [Gamma_i, Gamma_j], which is exactly
    antisymmetric by construction.
    """
    n, r = nabla.model.n, frame.rank

    def gammas(P):
        # Gamma_j at each point of P along every coordinate direction j
        W = np.tile(np.eye(n), (len(P), 1))
        G = connection_matrices(nabla, frame, np.repeat(P, n, axis=0), W)
        return G.reshape(len(P), n, r, r)

    G0 = gammas(M)
    dG = np.moveaxis(jacobians_fd(gammas, M, CURV_FD_STEP), -1, 1)  # d_i Gamma_j
    Gi, Gj = G0[:, :, None], G0[:, None]
    R = dG - dG.swapaxes(1, 2) + Gi @ Gj - Gj @ Gi
    return [CurvatureTensor(m, Ra, Ka) for m, Ra, Ka in zip(M, R, frame.many(M))]


def curvature(nabla: AlgebroidConnection, m: np.ndarray) -> CurvatureTensor:
    """Curvature of the connection at m in the orthonormal kernel frame
    aligned_frame builds at m: curvatures' batch of one."""
    return curvatures(nabla, base_points(nabla.model, m, 1)[None])[0]


# -- involutivity of the horizontal plane field ---------------------------------


def frobenius_torsions(S: CartanConnection, G: np.ndarray) -> np.ndarray:
    """Obstruction to involutivity at each arrow of a stack G[k, N]: Lie
    brackets of the horizontal lift fields V_i(g') = mu(g') e_i, projected
    modulo the horizontal plane by orthogonal least squares. Returns
    tau[a, i, j] in chart coordinates, antisymmetric in (i, j); any
    complement would do since only vanishing is asserted.

    The jets at G take one mu_many call and the jacobians of the lift fields
    one jacobians_fd over mu_many, all 2N k probes in one call, whatever k;
    the QR and the projection are stacked. Row a is the torsion at G[a] alone
    bit for bit."""
    model = S.model
    n, N = model.n, model.N
    G = np.asarray(G, dtype=float)
    mu0 = S.mu_many(G)
    Q, _ = np.linalg.qr(mu0)
    P_perp = np.eye(N) - Q @ Q.transpose(0, 2, 1)
    # DV[a, i]: jacobian of the i-th lift field at G[a]
    DV = np.moveaxis(jacobians_fd(S.mu_many, G), 2, 1)
    tau = np.zeros((len(G), n, n, N))
    for i in range(n):
        for j in range(i + 1, n):
            bracket = matvecs(DV[:, j], mu0[:, :, i]) - matvecs(DV[:, i], mu0[:, :, j])
            val = matvecs(P_perp, bracket)
            tau[:, i, j] = val
            tau[:, j, i] = -val
    return tau


def frobenius_torsion(S: CartanConnection, g: Arrow) -> np.ndarray:
    """Obstruction to involutivity at an arrow, tau[i, j] in chart
    coordinates: frobenius_torsions' batch of one."""
    return frobenius_torsions(S, g.coords[None])[0]


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
    the horizontal plane field at arrows, with a joint verdict.

    Every sample (a base point, then an arrow) is drawn first, in the
    per-sample loop's rng order, its arrows deferred; then one curvatures
    and one frobenius_torsions call evaluate them all
    (groupoid.draw_samples_then_evaluate), so the jet evaluations do not
    depend on count. An error reruns the samples one by one, and the report
    aborts with the error the per-sample loop meets first."""
    from .connection import infinitesimalize

    model = S.model
    rng = np.random.default_rng(seed)
    nabla = infinitesimalize(S, "direct-formula")
    norms = []  # (curvature, torsion) per sample

    def draw(sample):
        return sample_base_point(model, rng), sample.arrow(rng).coords

    def evaluate(M, G):
        curv = [c.norm_inf for c in curvatures(nabla, M)]
        tors = np.max(np.abs(frobenius_torsions(S, G)), axis=(1, 2, 3))
        norms.extend(zip(curv, tors))

    draw_samples_then_evaluate(model, rng, count, draw, evaluate)
    curv_norms, tors_norms = np.array(norms, dtype=float).reshape(-1, 2).T
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


def _transport_matrices(nabla: AlgebroidConnection, frame: Callable,
                        path_many: Callable[[float], np.ndarray], steps: int = 16) -> np.ndarray:
    """Parallel-transport matrices of the connection along a stack of paths
    in frame coordinates, in one RK4 integration of a (k, r, r) state, r the
    frame's rank:
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
        return -connection_matrices(nabla, frame, np.asarray(path_many(t), dtype=float),
                                    path_velocity(path_many, t))

    latest = memo_by_point(coefficients, size=1)
    Y0 = np.tile(np.eye(frame.rank), (len(path_many(0.0)), 1, 1))
    return rk4(lambda t, Y: latest(t) @ Y, Y0, 0.0, 1.0, steps)


def _transport_matrix(nabla: AlgebroidConnection, frame: Callable,
                      path: Callable[[float], np.ndarray], steps: int = 16) -> np.ndarray:
    """Parallel-transport matrix of the connection along one path in frame
    coordinates: _transport_matrices' batch of one."""
    return _transport_matrices(nabla, frame,
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

    The radial transports run stacked, behind a memo. Right after the
    L-paths, the transports to m0 and to every point the parallelism and
    anchor checks read (the grid points, the anchor samples and their
    central_probes) run as one _transport_matrices integration, so both
    checks read only the memo. The brackets of all r(r-1)/2 pairs at m0 are
    one algebroid_brackets call over the column family of the sections; its
    probes, which depend on the sections at m0, take the one stacked
    transport left.
    """
    model = nabla.model
    n = model.n
    m0 = np.asarray(m0, dtype=float)
    frame = aligned_frame(model, m0)
    r = frame.rank
    rng = np.random.default_rng(seed)

    # flatness precondition on a few grid points, in one curvatures call; if
    # that raises, the probes are taken one by one, so the first probe that
    # fails, by its curvature or by an error, decides
    probes = np.stack([m0, m0 + np.full(n, GRID_RADIUS), m0 - np.full(n, GRID_RADIUS)])
    try:
        curvs = curvatures(nabla, probes)
    except Exception:
        curvs = None
    for a, probe in enumerate(probes):
        c = (curvature(nabla, probe) if curvs is None else curvs[a]).norm_inf
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
    Y_a, Y_b = _transport_matrices(nabla, frame, lambda t: np.stack([p(t) for p in l_paths]))
    path_dependence = float(np.max(np.abs(Y_a - Y_b)))
    if exceeds(path_dependence, FLATNESS_TOL):
        raise FlatnessError(
            f"holonomy detected: homotopic transports differ by {path_dependence:.2e}")

    # covariantly constant sections by radial transport (smooth in the endpoint
    # because the step count is fixed); repeated evaluation points hit a memo,
    # and a stack's new endpoints are transported together
    def radial(M):
        return _transport_matrices(nabla, frame, lambda t: m0 + t * (M - m0))

    transport_to = memo_by_point(
        lambda m: _transport_matrix(nabla, frame, lambda t: m0 + t * (m - m0)),
        TRANSPORT_CACHE_SIZE, func_many=radial)

    def section_rows(P):  # (len(P), r, N): row [p, a] is section a at P[p]
        # stacked matvecs ([..., None]): the rounding of K @ T[p, :, a]
        T = transport_to.many(P)
        return (frame.many(P)[:, None] @ T.transpose(0, 2, 1)[..., None])[..., 0]

    def sections_many(P):  # (len(P), N, r)
        return section_rows(P).transpose(0, 2, 1)

    def section_columns(P, owner):  # row p is section owner[p] at P[p]
        return section_rows(P)[np.arange(len(P)), owner]

    def fields_many(P):  # (len(P), r, n): row [p, a] is the anchor of section a at P[p]
        return matvecs(anchor_matrices(model, P)[:, None], section_rows(P))

    # section a and action field a read column a of the stacked forms, and
    # at one point each is its .many's batch of one
    sections = [batch_of_one(lambda P, a=a: sections_many(P)[:, :, a]) for a in range(r)]
    fields = [batch_of_one(lambda P, a=a: fields_many(P)[:, a]) for a in range(r)]

    # the 3^n grid points whose every coordinate is the centre or an end of
    # its axis, and the anchor samples, drawn first: the radial transports to
    # them, to their central-difference probes and to m0 run as one stack, so
    # the checks below read the memo, all but the bracket's probes
    grid_axis = np.arange(-GRID_RADIUS, GRID_RADIUS + GRID_SPACING / 2, GRID_SPACING)
    grid = np.array([m0 + np.array(offs) for offs in itertools.product(grid_axis[::4], repeat=n)])
    samples = np.array([m0 + rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=n)
                        for _ in range(sample_count)]).reshape(-1, n)
    transport_to.many(np.concatenate(
        [m0[None], grid, central_probes(grid), samples, central_probes(samples)]))

    # structure constants from the brackets of every pair at m0 (transport
    # matrix there = id), all in one call
    K0 = frame(m0)
    c = np.zeros((r, r, r))
    pairs = np.array(list(itertools.combinations(range(r), 2)), dtype=int).reshape(-1, 2)
    brackets = algebroid_brackets(model, section_columns, pairs, np.tile(m0, (len(pairs), 1)))
    for (a, b), val in zip(pairs, brackets):
        coeffs, *_ = np.linalg.lstsq(K0, val, rcond=None)
        c[a, b] = coeffs
        c[b, a] = -coeffs

    residuals = WorstErrors(("jacobi", "anchor_hom", "parallelism", "path_dependence"))
    residuals.record("jacobi", _jacobi_residual(c))
    residuals.record("path_dependence", path_dependence)
    # every section along every coordinate direction at every grid point
    M = np.repeat(grid, n, axis=0)
    V = np.tile(np.eye(n), (len(grid), 1))
    residuals.record("parallelism", nabla.nabla_rows(M, V, sections_many))

    # every field differentiated at all the samples in one stacked call
    if len(samples):
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
