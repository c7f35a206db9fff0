"""Differentiable Lie groupoid models in a single coordinate chart.

A model presents the structure maps of a Lie groupoid G over M in coordinates:
source/target/unit as ChartMaps, multiplication and inversion as callables on
chart points, plus retractions that project near-composable partners onto the
composable set (smooth, identity on composable pairs). The retractions are what
make curves through multiplication differentiable without per-model special
cases in callers.

This module also hosts the bisection-jet oracle: one-jets of explicit local
bisections obtained by numerical differentiation. Oracle multiplication extends
jets to representative bisections, composes them pointwise, and differentiates
the product; it is the ground truth against which every closed jet formula in
the library is tested.
"""

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .chartcalc import (
    ChartMap,
    FD_STEP,
    WorstErrors,
    deriv_at_zero,
    differentiate,
    directional_derivatives,
    exceeds,
    jacobians_fd,
    memo_by_point,
    newton_solve,
    newton_solve_many,
    stacked,
)
from .errors import (
    CompositionError,
    FrameError,
    NotABisectionError,
    SamplingError,
    ToleranceError,
)

SECTION_TOL = 1e-9
DET_TOL = 1e-9
FRAME_MEMO_SIZE = 64  # points remembered by an aligned_frame
PROJECTION_CACHE_SIZE = 4096  # kernel projections an aligned_frame keeps, keyed on Tsrc(unit(m))
BASE_SHRINK = 0.15  # share of the base box width sample_base_point keeps clear per side
SECTION_SCALE = 0.5  # half-range of random_section's affine coefficients


@dataclass(frozen=True)
class Arrow:
    """A groupoid element with cached source and target points."""

    coords: np.ndarray
    source: np.ndarray
    target: np.ndarray


@dataclass(frozen=True)
class AlgebroidVec:
    """An algebroid element: a vector at unit(base) tangent to the source fibre."""

    base: np.ndarray
    vec: np.ndarray


@dataclass(frozen=True)
class Jet1:
    """A one-jet of a local bisection: an arrow g together with the tangent map
    mu: T_{src(g)} M -> T_g G of a representative bisection.

    Valid jets satisfy Tsrc . mu = id and det(Ttgt . mu) != 0.
    """

    g: Arrow
    mu: np.ndarray  # (N, n)


@dataclass(frozen=True)
class GroupoidModel:
    """Coordinate-chart presentation of a Lie groupoid with oracle hooks.

    mul and inv are smooth chart expressions that agree with the groupoid
    operations on (near-)composable pairs; retract_src/retract_tgt project an
    arrow onto the set with prescribed source/target. The *_jac hooks, when
    present, supply analytic jacobians (mul_jac returns the pair of N x N
    blocks, retract jacobians return the (arrow, base-point) blocks).

    A model whose source map reads a slot of its coordinates takes its source side
    (src, retract_src(_jac), arrow_with_source, src_fiber_chart) from source_slot,
    and likewise its target side (tgt, retract_tgt(_jac)) from target_slot.

    The optional *_many hooks are stacked forms, row a of mul_many(G, H) being
    mul(G[a], H[a]) bit for bit; stacked() loops where one is missing.
    mul_jac_many(G, H) gives the stacks of mul_jac's two blocks. There is no
    stacked retract_tgt: no stacked path retracts onto a target.
    """

    name: str
    n: int
    N: int
    src: ChartMap
    tgt: ChartMap
    unit: ChartMap
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]
    retract_src: Callable[[np.ndarray, np.ndarray], np.ndarray]
    retract_tgt: Callable[[np.ndarray, np.ndarray], np.ndarray]
    domain_box: np.ndarray
    base_box: np.ndarray
    arrow_with_source: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    mul_jac: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    inv_jac: Callable[[np.ndarray], np.ndarray] | None = None
    retract_src_jac: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    retract_tgt_jac: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    src_fiber_chart: Callable[[np.ndarray], tuple[ChartMap, Callable]] | None = None
    extras: dict = field(default_factory=dict)
    mul_many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    inv_many: Callable[[np.ndarray], np.ndarray] | None = None
    retract_src_many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    mul_jac_many: Callable[[np.ndarray, np.ndarray],
                           tuple[np.ndarray, np.ndarray]] | None = None

    # -- convenience -------------------------------------------------------

    def arrow(self, coords: np.ndarray) -> Arrow:
        coords = np.asarray(coords, dtype=float)
        return Arrow(coords, self.src(coords), self.tgt(coords))

    def unit_arrow(self, m: np.ndarray) -> Arrow:
        return self.arrow(self.unit(np.asarray(m, dtype=float)))

    def Tsrc(self, coords: np.ndarray) -> np.ndarray:
        return differentiate(self.src, coords)

    def Ttgt(self, coords: np.ndarray) -> np.ndarray:
        return differentiate(self.tgt, coords)

    def Tunit(self, m: np.ndarray) -> np.ndarray:
        return differentiate(self.unit, m)

    def without_jacobians(self) -> "GroupoidModel":
        """Copy of the model with every analytic-jacobian hook removed, so the
        finite-difference paths can be exercised on identical geometry."""
        return replace(
            self,
            name=self.name + "-fd",
            src=replace(self.src, jacobian=None),
            tgt=replace(self.tgt, jacobian=None),
            unit=replace(self.unit, jacobian=None),
            mul_jac=None,
            mul_jac_many=None,
            inv_jac=None,
            retract_src_jac=None,
            retract_tgt_jac=None,
        )

    @property
    def has_jacobians(self) -> bool:
        return self.mul_jac is not None

    def sample_arrow(self, rng: np.random.Generator) -> Arrow:
        box = self.domain_box
        coords = rng.uniform(box[:, 0], box[:, 1])
        return self.arrow(coords)

    def sample_composable(self, rng: np.random.Generator) -> tuple[Arrow, Arrow]:
        """Draw (g, h) with src(g) = tgt(h), i.e. the product g h is defined.
        Raises SamplingError when arrow_with_source misses its source."""
        h = self.sample_arrow(rng)
        g = self.arrow(self.arrow_with_source(h.target, rng))
        if exceeds(float(np.max(np.abs(g.source - h.target))), 1e-12):
            raise SamplingError(f"arrow_with_source missed its source on {self.name}")
        return g, h


def algebroid_vec(model: GroupoidModel, m: np.ndarray, vec: np.ndarray,
                  check: bool = True) -> AlgebroidVec:
    """Wrap a chart vector at unit(m) as an algebroid element, verifying it is
    tangent to the source fibre."""
    m = np.asarray(m, dtype=float)
    vec = np.asarray(vec, dtype=float)
    if check:
        defect = float(np.max(np.abs(model.Tsrc(model.unit(m)) @ vec)))
        if exceeds(defect, SECTION_TOL):
            raise ToleranceError(
                f"vector not source-vertical at {m}: |Tsrc.v| = {defect:.3e}")
    return AlgebroidVec(m, vec)


def kernel_basis(model: GroupoidModel, m: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of ker Tsrc at unit(m), one column per
    algebroid direction (N x (N-n))."""
    A = model.Tsrc(model.unit(np.asarray(m, dtype=float)))
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-10))
    basis = vt[rank:].T
    # canonical signs: largest-magnitude entry of each column positive
    for j in range(basis.shape[1]):
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def _coordinate_slot(N: int, index: slice, side: str) -> tuple[dict, np.ndarray, np.ndarray]:
    """The fields side, retract_side (writes m into the arrow coordinates index)
    and its constant, read-only _jac; the other coordinates and their embedding."""
    eye = np.eye(N)
    rest = np.delete(np.arange(N), index)
    side_jac, rest_emb = eye[index], eye[:, rest]
    retract_jacs = (rest_emb @ rest_emb.T, eye[:, index])
    for a in (side_jac, rest_emb, *retract_jacs):
        a.flags.writeable = False

    def retract(g, m):
        g = np.array(g, dtype=float)
        g[index] = m
        return g

    side_map = ChartMap(N, N - len(rest), lambda g: g[index], jacobian=lambda g: side_jac,
                        eval_many=lambda G: G[:, index])
    return ({side: side_map, f"retract_{side}": retract,
             f"retract_{side}_jac": lambda g, m: retract_jacs}, rest, rest_emb)


def source_slot(N: int, src_index: slice, domain_box: np.ndarray) -> dict:
    """The source-side GroupoidModel fields of a model whose source map reads the
    arrow coordinates src_index: src, retract_src(_jac) as _coordinate_slot gives
    them, retract_src_many, arrow_with_source (the other coordinates uniform in
    their domain_box rows) and src_fiber_chart (the other coordinates, the
    source held at m0)."""
    fields, rest, rest_emb = _coordinate_slot(N, src_index, "src")
    low, high = domain_box[rest].T

    def retract_many(G, M):
        G = np.array(G, dtype=float)
        G[:, src_index] = M
        return G

    def place(others, m):
        g = np.empty(N)
        g[rest], g[src_index] = others, m
        return g

    def fiber_chart(m0):
        m0 = np.asarray(m0, dtype=float)
        return (ChartMap(len(rest), N, lambda u: place(u, m0), jacobian=lambda u: rest_emb),
                lambda coords: np.asarray(coords, dtype=float)[rest])

    return dict(fields, retract_src_many=retract_many,
                arrow_with_source=lambda m, rng: place(rng.uniform(low, high), m),
                src_fiber_chart=fiber_chart)


def target_slot(N: int, tgt_index: slice) -> dict:
    """The target-side fields tgt and retract_tgt(_jac) of a model whose target
    map reads the arrow coordinates tgt_index."""
    return _coordinate_slot(N, tgt_index, "tgt")[0]


# -- tangent maps of the structure maps -------------------------------------


def _check_composable(g_src: np.ndarray, h_tgt: np.ndarray) -> None:
    """Raise CompositionError unless g_src = h_tgt to 1e-8, for one pair of
    points or row by row for stacks of them, naming the first failing row;
    a NaN defect fails."""
    if exceeds(float(np.max(np.abs(g_src - h_tgt))), 1e-8):
        g_src, h_tgt = np.atleast_2d(g_src, h_tgt)
        a = np.flatnonzero(~(np.max(np.abs(g_src - h_tgt), axis=1) <= 1e-8))[0]
        raise CompositionError(f"arrows not composable: src {g_src[a]} vs tgt {h_tgt[a]}")


def left_translate(model: GroupoidModel, g: Arrow, at: Arrow, v: np.ndarray) -> np.ndarray:
    """T L_g . v at `at`: derivative of h -> g h along the retraction-corrected
    curve through `at` with velocity v (v should be target-vertical)."""
    _check_composable(g.source, at.target)
    v = np.asarray(v, dtype=float)
    m = g.source
    if model.mul_jac is not None and model.retract_tgt_jac is not None:
        _, Dh = model.mul_jac(g.coords, at.coords)
        Dr, _ = model.retract_tgt_jac(at.coords, m)
        return Dh @ (Dr @ v)
    return deriv_at_zero(lambda t: model.mul(g.coords, model.retract_tgt(at.coords + t * v, m)))


def right_translate(model: GroupoidModel, g: Arrow, at: Arrow, v: np.ndarray) -> np.ndarray:
    """T R_g . v at `at`: derivative of g' -> g' g (v should be source-vertical)."""
    _check_composable(at.source, g.target)
    v = np.asarray(v, dtype=float)
    m = g.target
    if model.mul_jac is not None and model.retract_src_jac is not None:
        Dg, _ = model.mul_jac(at.coords, g.coords)
        Dr, _ = model.retract_src_jac(at.coords, m)
        return Dg @ (Dr @ v)
    return deriv_at_zero(lambda t: model.mul(model.retract_src(at.coords + t * v, m), g.coords))


def inv_tangent(model: GroupoidModel, at: Arrow, v: np.ndarray) -> np.ndarray:
    """T I . v at `at`."""
    v = np.asarray(v, dtype=float)
    if model.inv_jac is not None:
        return model.inv_jac(at.coords) @ v
    return deriv_at_zero(lambda t: model.inv(at.coords + t * v))


# -- anchor, right-invariant extension, bracket ------------------------------


def anchor(model: GroupoidModel, X: AlgebroidVec) -> np.ndarray:
    """Anchor of an algebroid element: Ttgt applied to its vector."""
    return model.Ttgt(model.unit(X.base)) @ X.vec


def right_invariant_many(model: GroupoidModel, X: Callable[[np.ndarray], np.ndarray],
                         G: np.ndarray) -> np.ndarray:
    """The right-invariant extension X^R(g) = T R_g . X(tgt(g)) of a section X
    of the algebroid at each arrow of a stack G[k, N]: row a is right_translate
    of X(tgt(G[a])) by G[a] at the unit over tgt(G[a]), bit for bit, and a
    stack of one row is the field at one arrow. The section is evaluated
    row by row; the structure maps take the stack through their stacked forms
    where the model gives them. Raises CompositionError like right_translate."""
    G = np.asarray(G, dtype=float)
    T = model.tgt.many(G)
    V = np.array([np.asarray(X(m), dtype=float) for m in T])
    U = model.unit.many(T)
    _check_composable(model.src.many(U), T)
    if model.mul_jac is not None and model.retract_src_jac is not None:
        if model.mul_jac_many is not None:
            Dg = model.mul_jac_many(U, G)[0]
        else:
            Dg = np.array([model.mul_jac(u, g)[0] for u, g in zip(U, G)])
        Dr = np.array([model.retract_src_jac(u, m)[0] for u, m in zip(U, T)])
        return (Dg @ (Dr @ V[..., None]))[..., 0]
    # T R_g . v by central differences along the retracted curve, both probes
    # of every row in one stacked call
    k = len(G)
    probes = np.concatenate([U + FD_STEP * V, U + (-FD_STEP) * V])
    values = stacked(model.mul, model.mul_many,
                     stacked(model.retract_src, model.retract_src_many,
                             probes, np.concatenate([T, T])),
                     np.concatenate([G, G]))
    return deriv_at_zero(lambda t: values[:k] if t > 0 else values[k:])


def outer_fd_step(model: GroupoidModel) -> float:
    """Step for a derivative of right-invariant fields: the standard FD step
    when the model carries analytic jacobians (the fields are then noise-free),
    wider otherwise to keep the derivative-of-derivative roundoff in check."""
    return FD_STEP if model.has_jacobians else 5e-4


def algebroid_bracket(model: GroupoidModel,
                      X: Callable[[np.ndarray], np.ndarray],
                      Y: Callable[[np.ndarray], np.ndarray],
                      m: np.ndarray) -> AlgebroidVec:
    """Lie bracket of two algebroid sections at m, computed from their
    right-invariant extensions: [X, Y] = (D Y^R . X^R - D X^R . Y^R)(unit(m)),
    with the outer derivative at outer_fd_step(model).
    """
    m = np.asarray(m, dtype=float)
    u = model.unit(m)[None]

    def XR(G):
        return right_invariant_many(model, X, G)

    def YR(G):
        return right_invariant_many(model, Y, G)

    # each directional difference takes its two probes in one stacked call
    h = outer_fd_step(model)
    val = directional_derivatives(YR, u, XR(u), h) - directional_derivatives(XR, u, YR(u), h)
    return algebroid_vec(model, m, val[0], check=False)


# -- bisection-jet oracle ----------------------------------------------------


def extend_bisection(model: GroupoidModel, j: Jet1) -> ChartMap:
    """A representative local bisection with the given one-jet, as a ChartMap
    M -> G: the affine chart extension projected back onto the sections of the
    source map.

    Any representative with the correct one-jet is valid; affine is the
    cheapest and exactly differentiable, and the source retraction makes it an
    exact section of src.
    """
    g0 = j.g.coords
    m0 = j.g.source
    mu = j.mu

    def b(x: np.ndarray) -> np.ndarray:
        return model.retract_src(g0 + mu @ (x - m0), x)

    def b_many(X: np.ndarray) -> np.ndarray:
        return stacked(model.retract_src, model.retract_src_many,
                       g0 + (mu @ (X - m0)[..., None])[..., 0], X)

    return ChartMap(model.n, model.N, b, eval_many=b_many)


def _bisection(model: GroupoidModel, b: Callable) -> ChartMap:
    return b if isinstance(b, ChartMap) else ChartMap(model.n, model.N, b)  # loops


def _check_section(m: np.ndarray, probes: np.ndarray, sources: np.ndarray) -> None:
    for defect in np.max(np.abs(sources - probes), axis=1):
        if exceeds(float(defect), SECTION_TOL):
            raise NotABisectionError(
                f"src(b(x)) != x near {m}: defect {defect:.3e}")


def oracle_jet(model: GroupoidModel, b: Callable[[np.ndarray], np.ndarray],
               m: np.ndarray) -> Jet1:
    """Ground-truth one-jet of an explicit local bisection at m, by central
    differences of the bisection itself.

    b is evaluated once at each of the 2n+1 points m and m +- h e_i, h = FD_STEP,
    in one b.many call (a plain callable is looped). The section is checked at
    every row, and jacobians_fd reads its central differences from the same
    rows: its probes m + s * e, s = +h and -h, have exactly the bytes of
    m + h * e and m - h * e (IEEE a + (-b) == a - b, signed zeros included).

    Raises NotABisectionError when b fails to be a section of the source map
    near m (checked to 1e-9 at every probe) or when its target map is
    singular; a NaN defect or determinant counts as either failure. Where the
    stacked call raises, the probes rerun one by one, so the first failing
    probe's error is raised.
    """
    m = np.asarray(m, dtype=float)
    b = _bisection(model, b)
    eye = np.eye(model.n)
    probes = np.concatenate([m[None], m + FD_STEP * eye, m - FD_STEP * eye])
    try:
        B = b.many(probes)
        _check_section(m, probes, model.src.many(B))
    except Exception:
        for probe in probes:
            _check_section(m, probe[None], model.src(b(probe))[None])
        raise
    mu = jacobians_fd(lambda _: B[1:], m[None])[0]  # the stencil's probes are probes[1:]
    if not abs(np.linalg.det(model.Ttgt(B[0]) @ mu)) >= DET_TOL:
        raise NotABisectionError("target map of the bisection is singular")
    return Jet1(model.arrow(B[0]), mu)


def compose_bisections(model: GroupoidModel, b1: Callable, b2: Callable) -> ChartMap:
    """Pointwise product of local bisections: (b1 b2)(m) = b1(tgt(b2(m))) . b2(m)."""
    b1, b2 = _bisection(model, b1), _bisection(model, b2)

    def prod(m: np.ndarray) -> np.ndarray:
        h = b2(m)
        return model.mul(b1(model.tgt(h)), h)

    def prod_many(M: np.ndarray) -> np.ndarray:
        H = b2.many(M)
        return stacked(model.mul, model.mul_many, b1.many(model.tgt.many(H)), H)

    return ChartMap(model.n, model.N, prod, eval_many=prod_many)


def oracle_jet_mul(model: GroupoidModel, j1: Jet1, j2: Jet1) -> Jet1:
    """Definition-level multiplication in the jet groupoid: extend both jets to
    representative bisections, compose pointwise, and take the oracle jet of
    the product at the source of j2.

    Every closed multiplication formula in the library is tested against this.
    """
    _check_composable(j1.g.source, j2.g.target)
    b1 = extend_bisection(model, j1)
    b2 = extend_bisection(model, j2)
    return oracle_jet(model, compose_bisections(model, b1, b2), j2.g.source)


def oracle_jet_inverse(model: GroupoidModel, j: Jet1) -> Jet1:
    """Ground-truth jet inversion: invert a representative bisection.

    The representative's base transformation tgt . b is inverted by Newton
    iteration; the inverse bisection y -> inv(b((tgt . b)^-1(y))) is then
    differentiated at the target point. Its 2n+1 Newton solves run as one
    newton_solve_many from the jet's source, the start shared by all of them.
    """
    b = extend_bisection(model, j)
    x0 = j.g.source

    def b_inv(y):
        return model.inv(b(newton_solve(lambda x: model.tgt(b(x)), y, x0, 1e-14)))

    def b_inv_many(Y):
        X = newton_solve_many(lambda P: model.tgt.many(b.many(P)), Y, x0, 1e-14)
        return stacked(model.inv, model.inv_many, b.many(X))

    return oracle_jet(model, ChartMap(model.n, model.N, b_inv, eval_many=b_inv_many),
                      j.g.target)


def identity_jet(model: GroupoidModel, m: np.ndarray) -> Jet1:
    """The unit element of the jet groupoid over m: the jet of the unit bisection."""
    m = np.asarray(m, dtype=float)
    return Jet1(model.unit_arrow(m), model.Tunit(m))


def jet_distance(j1: Jet1, j2: Jet1) -> float:
    """Max-norm distance between jets: arrow coordinates and mu entries; NaN
    when either jet holds a NaN."""
    return float(np.maximum(np.max(np.abs(j1.g.coords - j2.g.coords)),
                            np.max(np.abs(j1.mu - j2.mu))))


# -- sampling ---------------------------------------------------------------


def sample_base_point(model: GroupoidModel, rng: np.random.Generator) -> np.ndarray:
    """Uniform base point, drawn a little inside the base box so that finite
    differences and short flows stay in-chart."""
    box = model.base_box
    width = box[:, 1] - box[:, 0]
    return rng.uniform(box[:, 0] + BASE_SHRINK * width, box[:, 1] - BASE_SHRINK * width)


def aligned_frame(model: GroupoidModel, ref_point: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth orthonormal frame of the source-fibre kernel near ref_point,
    with the frame's rank as its .rank attribute.

    The reference basis at ref_point is projected onto the kernel at the
    requested point and symmetrically re-orthonormalized; this is
    deterministic, smooth wherever no degeneracy occurs, and reproduces the
    reference basis at ref_point. Raises FrameError, naming the point, where
    the projected basis degenerates.

    The frame reads the point only through A = Tsrc(unit(m)), so the
    projection is memoized on A: where A does not depend on m (every shipped
    model with analytic jacobians), every point after the first is a hit. A
    memo of the frame by point sits in front of it and skips building A at
    points that repeat, as the stencil points of curvature and transport do.
    """
    E_ref = kernel_basis(model, np.asarray(ref_point, dtype=float))

    def project(A: np.ndarray) -> np.ndarray:
        P = np.eye(model.N) - np.linalg.pinv(A) @ A  # projector onto ker A
        E = P @ E_ref
        gram = E.T @ E
        det = float(np.linalg.det(gram))
        if det < 1e-9:
            raise FrameError(f"gram det {det:.2e}")
        w, U = np.linalg.eigh(gram)
        return E @ (U @ np.diag(1.0 / np.sqrt(w)) @ U.T)

    projection = memo_by_point(project, PROJECTION_CACHE_SIZE)

    def frame_at(m: np.ndarray) -> np.ndarray:
        try:
            return projection(model.Tsrc(model.unit(m)))
        except FrameError as exc:
            raise FrameError(f"kernel frame degenerated at {m} ({exc})") from None

    frame = memo_by_point(frame_at, FRAME_MEMO_SIZE)
    frame.rank = E_ref.shape[1]
    return frame


def random_section(model: GroupoidModel,
                   rng: np.random.Generator) -> Callable[[np.ndarray], np.ndarray]:
    """A smooth random algebroid section: kernel frame times affine coefficients."""
    ref = 0.5 * (model.base_box[:, 0] + model.base_box[:, 1])
    frame = aligned_frame(model, ref)
    c0 = rng.uniform(-SECTION_SCALE, SECTION_SCALE, size=frame.rank)
    c1 = rng.uniform(-SECTION_SCALE, SECTION_SCALE, size=(frame.rank, model.n))

    def X(m: np.ndarray) -> np.ndarray:
        m = np.asarray(m, dtype=float)
        return frame(m) @ (c0 + c1 @ m)

    return X


def check_axioms(model: GroupoidModel, rng: np.random.Generator,
                 count: int = 100) -> dict[str, float]:
    """Max deviation of the groupoid axioms over seeded random samples."""
    errs = WorstErrors(("unit_source_target", "left_unit", "right_unit",
                        "product_source_target", "inverse", "associativity",
                        "retract_identity"))
    bump = errs.record
    for _ in range(count):
        m = sample_base_point(model, rng)
        u = model.unit(m)
        bump("unit_source_target", model.src(u) - m)
        bump("unit_source_target", model.tgt(u) - m)

        g, h = model.sample_composable(rng)
        bump("left_unit", model.mul(g.coords, model.unit(g.source)) - g.coords)
        bump("right_unit", model.mul(model.unit(g.target), g.coords) - g.coords)
        gh = model.arrow(model.mul(g.coords, h.coords))
        bump("product_source_target", gh.source - h.source)
        bump("product_source_target", gh.target - g.target)
        bump("inverse", model.mul(model.inv(g.coords), g.coords) - model.unit(g.source))
        k = model.arrow(model.arrow_with_source(g.target, rng))
        bump("associativity",
             model.mul(model.mul(k.coords, g.coords), h.coords)
             - model.mul(k.coords, model.mul(g.coords, h.coords)))
        bump("retract_identity", model.retract_src(g.coords, g.source) - g.coords)
        bump("retract_identity", model.retract_tgt(g.coords, g.target) - g.coords)
    return errs
