"""Differentiable Lie groupoid models in a single coordinate chart.

A model presents the structure maps of a Lie groupoid G over M in coordinates:
source/target/unit as ChartMaps, multiplication and inversion as callables on
stacks of chart points, plus retractions that project near-composable partners
onto the composable set (smooth, identity on composable pairs). The
retractions are what make curves through multiplication differentiable
without per-model special cases in callers.

This module also hosts the bisection-jet oracle: one-jets of explicit local
bisections obtained by numerical differentiation. Oracle multiplication extends
jets to representative bisections, composes them pointwise, and differentiates
the product; it is the ground truth against which every closed jet formula in
the library is tested.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .chartcalc import (
    ChartMap,
    FD_STEP,
    WorstErrors,
    batch_of_one,
    box_draw,
    check_box,
    constant_jacobian,
    deriv_at_zero,
    differentiate,
    differentiate_many,
    directional_derivatives,
    evaluate_drawn,
    exceeds,
    jacobians_fd,
    matvecs,
    memo_by_point,
    newton_solve_many,
    read_only,
    repeated_rows,
    stacked,
    stacked_fields,
)
from .errors import (
    CompositionError,
    ConfigError,
    DomainError,
    FrameError,
    NotABisectionError,
    SamplingError,
    SingularError,
    ToleranceError,
)

SECTION_TOL = 1e-9
DET_TOL = 1e-9
PROJECTION_CACHE_SIZE = 4096  # kernel projections an aligned_frame keeps, keyed on Tsrc(unit(m))
BASE_SHRINK = 0.15  # share of the base box width sample_base_point keeps clear per side
SECTION_SCALE = 0.5  # half-range of random_section's affine coefficients
JACOBIAN_HOOKS = ("mul_jac_many", "inv_jac_many", "retract_src_jac_many", "retract_tgt_jac_many")
BlocksMap = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


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
class Jets:
    """A stack of one-jets held as C-contiguous arrays: the arrows coords[k, N]
    with their sources and targets [k, n], and mu[k, N, n]. Jet a is self[a];
    Jets.at(model, G, MU) computes the sources and targets, Jets.of stacks
    Jet1s. The stacked jet maps read and return jets in this form, so row a of
    every matrix they multiply has the layout of the single jet's."""

    coords: np.ndarray
    source: np.ndarray
    target: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        for name in ("coords", "source", "target", "mu"):
            object.__setattr__(self, name,
                               np.ascontiguousarray(getattr(self, name), dtype=float))

    @staticmethod
    def at(model: "GroupoidModel", G: np.ndarray, MU: np.ndarray) -> "Jets":
        G = np.asarray(G, dtype=float)
        return Jets(G, model.src.many(G), model.tgt.many(G), MU)

    @staticmethod
    def of(jets) -> "Jets":
        return Jets(*(np.array([getattr(j.g, f) for j in jets])
                      for f in ("coords", "source", "target")),
                    np.array([j.mu for j in jets]))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, a: int) -> Jet1:
        return Jet1(Arrow(self.coords[a], self.source[a], self.target[a]), self.mu[a])

    def repeat(self, r: int) -> "Jets":
        """Each jet r times in a row: jet a is row a // r."""
        return Jets(*(np.repeat(x, r, axis=0)
                      for x in (self.coords, self.source, self.target, self.mu)))


@dataclass(frozen=True)
class GroupoidModel:
    """Coordinate-chart presentation of a Lie groupoid with oracle hooks.

    mul_many and inv_many are smooth chart expressions, on stacks of arrows,
    that agree with the groupoid operations on (near-)composable pairs;
    retract_src_many/retract_tgt_many project each arrow of a stack onto the
    set with the prescribed source/target. Row a of every stacked map depends
    on row a alone, bit for bit. The stacked hooks mul_jac_many(G, H) (the two
    N x N blocks), inv_jac_many(G), retract_src_jac_many(G, M) and
    retract_tgt_jac_many(G, M) (the arrow and base-point blocks) supply
    analytic jacobians, all four or none (ConfigError otherwise).

    A model writes only the stacked maps: the single-point mul, inv,
    retract_src and retract_tgt are their batches of one (chartcalc.
    batch_of_one). A copy made with dataclasses.replace keeps a single map it
    is given, and derives it again where it gives another stacked map. The
    jacobian hooks have no single-point form.

    An arrow at a source is drawn in two steps, which every model gives:
    free_box, the box its free coordinates are drawn in (chartcalc.
    box_draw), and place_many(F, M), which places row a of the free
    coordinates F at the source M[a] (ConfigError without them).
    DeferredDraws places a whole pass of draws in one call, and
    arrow_with_source is their batch of one.

    domain_box, base_box and free_box are (low, high) rows, one per
    coordinate, and must be finite (ConfigError): rng.uniform checks a box
    on every draw, box_draw does not.

    A model whose source map reads a slot of its coordinates takes its source side
    (src, retract_src_many, retract_src_jac_many, free_box, place_many,
    src_fiber_chart) from source_slot, and likewise its target side (tgt,
    retract_tgt_many, retract_tgt_jac_many) from target_slot.

    constant_Tsrc is Tsrc where it is one matrix at every arrow, as on
    source_slot's analytic source: the .constant of src's jacobian, else None.
    It is read off src, so a copy with another src or without jacobians (whose
    central differences move at roundoff) does not keep it; nor does it keep
    constant_kernel_basis, kernel_basis there as one read-only matrix.
    """

    name: str
    n: int
    N: int
    src: ChartMap
    tgt: ChartMap
    unit: ChartMap
    domain_box: np.ndarray
    base_box: np.ndarray
    mul_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inv_many: Callable[[np.ndarray], np.ndarray]
    retract_src_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    retract_tgt_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    free_box: np.ndarray | None = None
    place_many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    mul_jac_many: BlocksMap | None = None
    inv_jac_many: Callable[[np.ndarray], np.ndarray] | None = None
    retract_src_jac_many: BlocksMap | None = None
    retract_tgt_jac_many: BlocksMap | None = None
    src_fiber_chart: Callable[[np.ndarray], tuple[ChartMap, Callable]] | None = None
    extras: dict = field(default_factory=dict)
    # the batches of one, derived in __post_init__
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    inv: Callable[[np.ndarray], np.ndarray] | None = None
    retract_src: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    retract_tgt: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        missing = [hook for hook in JACOBIAN_HOOKS if getattr(self, hook) is None]
        if 0 < len(missing) < len(JACOBIAN_HOOKS):
            raise ConfigError(f"model {self.name} gives jacobian hooks without "
                              f"{', '.join(missing)}: all of them or none")
        for name in ("mul", "inv", "retract_src", "retract_tgt"):
            single, many = getattr(self, name), getattr(self, name + "_many")
            # a derived single (or a wrapper of one) carries its stacked map
            if single is None or getattr(single, "many", many) is not many:
                object.__setattr__(self, name, batch_of_one(many))
        if self.place_many is None or self.free_box is None:
            raise ConfigError(f"model {self.name} needs free_box and place_many "
                              "to draw its arrows at a source")
        for name in ("domain_box", "base_box", "free_box"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            check_box(f"{self.name}'s {name}", getattr(self, name))

    # -- convenience -------------------------------------------------------

    def arrow(self, coords: np.ndarray) -> Arrow:
        coords = np.asarray(coords, dtype=float)
        return Arrow(coords, self.src(coords), self.tgt(coords))

    def unit_arrow(self, m: np.ndarray) -> Arrow:
        return self.arrow(self.unit(np.asarray(m, dtype=float)))

    def Tsrc(self, coords: np.ndarray) -> np.ndarray:
        return differentiate(self.src, coords)

    @property
    def constant_Tsrc(self) -> np.ndarray | None:
        return getattr(self.src.jacobian, "constant", None)

    @cached_property
    def constant_kernel_basis(self) -> np.ndarray | None:
        A = self.constant_Tsrc
        return None if A is None else read_only(_kernel_basis(A))

    @cached_property
    def section_frame(self) -> Callable[[np.ndarray], np.ndarray]:
        """aligned_frame at the centre of the base box, built once: the frame
        every random_section of the model is made on."""
        return aligned_frame(self, 0.5 * (self.base_box[:, 0] + self.base_box[:, 1]))

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
            **dict.fromkeys(JACOBIAN_HOOKS),
        )

    @property
    def has_jacobians(self) -> bool:
        return self.mul_jac_many is not None

    @cached_property
    def base_draw_box(self) -> tuple[np.ndarray, np.ndarray]:
        """The low and high corners of the box sample_base_point draws in:
        base_box with BASE_SHRINK of its width kept clear on each side."""
        box = self.base_box
        width = box[:, 1] - box[:, 0]
        return box[:, 0] + BASE_SHRINK * width, box[:, 1] - BASE_SHRINK * width

    def arrow_with_source(self, m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The coordinates of an arrow drawn with source m, its free
        coordinates drawn in free_box and placed at m: DeferredDraws.
        arrow_at's batch of one, unchecked (arrow_at checks)."""
        low, high = self.free_box[:, 0], self.free_box[:, 1]
        return self.place_many(box_draw(rng, low, high)[None],
                               np.asarray(m, dtype=float)[None])[0]

    def sample_arrow(self, rng: np.random.Generator) -> Arrow:
        """An arrow uniform in domain_box: DeferredDraws.arrow's batch of one."""
        box = self.domain_box
        return self.arrow(box_draw(rng, box[:, 0], box[:, 1]))

    def sample_composable(self, rng: np.random.Generator) -> tuple[Arrow, Arrow]:
        """Draw (g, h) with src(g) = tgt(h), i.e. the product g h is defined:
        h uniform, then g drawn at its target (arrow_at), DeferredDraws.
        composable's batch of one. Raises SamplingError when the placed
        arrow misses its source."""
        h = self.sample_arrow(rng)
        return arrow_at(self, h.target, rng), h


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


def base_points(model: GroupoidModel, P: np.ndarray, ndim: int = 2) -> np.ndarray:
    """P as float base points of dimension n: a stack P[k, n] (ndim 2) or one
    point (ndim 1). Raises DomainError for any other shape."""
    return _points_of_dimension(model.n, P, ndim)


def _points_of_dimension(n: int, P: np.ndarray, ndim: int) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != ndim or P.shape[-1:] != (n,):
        raise DomainError(f"expected base points of dimension {n}, got shape {P.shape}")
    return P


def kernel_basis(model: GroupoidModel, m: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of ker Tsrc at unit(m), one column per
    algebroid direction (N x (N-n)): kernel_bases' batch of one, the model's
    constant_kernel_basis where it has one. Raises DomainError when m is not
    a point of dimension n."""
    return kernel_bases(model, base_points(model, m, 1)[None])[0]


def kernel_bases(model: GroupoidModel, M: np.ndarray) -> np.ndarray:
    """kernel_basis at each row of a stack M[k, n], as a (k, N, N-n) stack:
    k read-only rows of the constant_kernel_basis where the model has one,
    else the bases of Tsrc(unit(M)), read in one differentiate_many call,
    from one stacked SVD. Raises DomainError for a stack of other points."""
    M = base_points(model, M)
    if model.constant_kernel_basis is not None:
        return repeated_rows(model.constant_kernel_basis)(len(M))
    return _kernel_basis_many(differentiate_many(model.src, model.unit.many(M)))


def _kernel_basis(A: np.ndarray) -> np.ndarray:
    """kernel_basis of the source jacobian A: _kernel_basis_many's batch of one."""
    return _kernel_basis_many(A[None])[0]


def _kernel_basis_many(A: np.ndarray) -> np.ndarray:
    """kernel_basis of each source jacobian A[a], from one stacked SVD. The
    rank cut and the sign canon apply row by row, and row a is a transposed
    view of its vt, the layout the product K @ C rounds by. Raises
    SingularError when the rows' ranks differ."""
    _, s, vt = np.linalg.svd(A)
    rank = np.sum(s > 1e-10, axis=-1)
    if np.any(rank != rank[0]):
        raise SingularError(f"source jacobians of ranks {sorted(set(rank.tolist()))} "
                            "in one stack")
    basis = np.swapaxes(vt[:, rank[0]:], -1, -2)
    # canonical signs: largest-magnitude entry of each column positive
    lead = np.take_along_axis(basis, np.argmax(np.abs(basis), axis=-2)[:, None], axis=-2)
    basis *= np.where(lead < 0, -1.0, 1.0)
    return basis


def _coordinate_slot(N: int, index: slice, side: str) -> tuple[dict, np.ndarray, Callable]:
    """The fields side, retract_side_many (writes each row of M into the arrow
    coordinates index) and the retraction's jac_many; the other coordinates
    and the jacobian of their embedding. Every jacobian here is a
    constant_jacobian: the side map's carries its one matrix as .constant."""
    eye = np.eye(N)
    rest = np.delete(np.arange(N), index)
    rest_emb = eye[:, rest]
    retract_jacs = [constant_jacobian(J) for J in (rest_emb @ rest_emb.T, eye[:, index])]

    def retract_many(G, M):
        G = np.array(G, dtype=float)
        G[:, index] = M
        return G

    def side_many(G):
        return G[:, index]

    side_map = ChartMap(N, N - len(rest), batch_of_one(side_many),
                        jacobian=constant_jacobian(eye[index]), eval_many=side_many)
    return ({side: side_map, f"retract_{side}_many": retract_many,
             f"retract_{side}_jac_many": lambda G, M: tuple(J(G) for J in retract_jacs)},
            rest, constant_jacobian(rest_emb))


def source_slot(N: int, src_index: slice, domain_box: np.ndarray) -> dict:
    """The source-side GroupoidModel fields of a model whose source map reads the
    arrow coordinates src_index: src, retract_src_many and retract_src_jac_many as
    _coordinate_slot gives them, the split arrows at a source are drawn by
    (free_box, the other coordinates' domain_box rows, and place_many, which
    writes them and the source into their slots) and src_fiber_chart (the
    other coordinates, the source held at m0). Its analytic Tsrc is
    constant: the model's constant_Tsrc."""
    fields, rest, emb_jacobian = _coordinate_slot(N, src_index, "src")

    def place_many(F, M):
        G = np.empty((len(M), N))
        G[:, rest], G[:, src_index] = F, M
        return G

    def fiber_chart(m0):
        m0 = np.asarray(m0, dtype=float)

        def emb_many(U):  # every row's source is m0
            return place_many(U, np.broadcast_to(m0, (len(U), len(m0))))

        return (ChartMap(len(rest), N, batch_of_one(emb_many), jacobian=emb_jacobian,
                         eval_many=emb_many),
                lambda coords: np.asarray(coords, dtype=float)[rest])

    return dict(fields, free_box=np.asarray(domain_box, dtype=float)[rest],
                place_many=place_many, src_fiber_chart=fiber_chart)


def target_slot(N: int, tgt_index: slice) -> dict:
    """The target-side fields tgt, retract_tgt_many and retract_tgt_jac_many of a
    model whose target map reads the arrow coordinates tgt_index."""
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


def _central_slopes(values: np.ndarray) -> np.ndarray:
    """deriv_at_zero of rows whose first half are the forward probes."""
    k = len(values) // 2
    return deriv_at_zero(lambda t: values[:k] if t > 0 else values[k:])


def _both_steps(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The probes X + h V, then X - h V, of a central difference at FD_STEP
    (formed as X + (-h) V, the bytes deriv_at_zero's curve(-h) gives)."""
    return np.concatenate([X + FD_STEP * V, X + (-FD_STEP) * V])


def left_translate_many(model: GroupoidModel, G: np.ndarray, AT: np.ndarray,
                        V: np.ndarray) -> np.ndarray:
    """T L_g . v at `at` for stacks G[k, N], AT[k, N] and V[k, N]: row a is
    the derivative of h -> G[a] h along the retraction-corrected curve
    through AT[a] with velocity V[a] (which should be target-vertical).
    Raises CompositionError, naming the first row, where src(G[a]) is not
    tgt(AT[a])."""
    G, AT = np.asarray(G, dtype=float), np.asarray(AT, dtype=float)
    V = np.asarray(V, dtype=float)
    M = model.src.many(G)
    _check_composable(M, model.tgt.many(AT))
    if model.has_jacobians:
        Dh = model.mul_jac_many(G, AT)[1]
        Dr = model.retract_tgt_jac_many(AT, M)[0]
        return matvecs(Dh, matvecs(Dr, V))
    retracted = model.retract_tgt_many(_both_steps(AT, V), np.concatenate([M, M]))
    return _central_slopes(model.mul_many(np.concatenate([G, G]), retracted))


def right_translate_many(model: GroupoidModel, G: np.ndarray, AT: np.ndarray,
                         V: np.ndarray, M: np.ndarray | None = None) -> np.ndarray:
    """T R_g . v at `at` for stacks G[k, N], AT[k, N] and V[k, N]: row a is
    the derivative of g' -> g' G[a] along the retraction-corrected curve
    through AT[a] with velocity V[a] (which should be source-vertical), both
    central-difference probes of every row in one stacked call. M, when the
    caller has them, are the targets of G. Raises CompositionError, naming
    the first row, where src(AT[a]) is not tgt(G[a])."""
    G, AT = np.asarray(G, dtype=float), np.asarray(AT, dtype=float)
    V = np.asarray(V, dtype=float)
    M = model.tgt.many(G) if M is None else M
    _check_composable(model.src.many(AT), M)
    if model.has_jacobians:
        Dg = model.mul_jac_many(AT, G)[0]
        Dr = model.retract_src_jac_many(AT, M)[0]
        return matvecs(Dg, matvecs(Dr, V))
    retracted = model.retract_src_many(_both_steps(AT, V), np.concatenate([M, M]))
    return _central_slopes(model.mul_many(retracted, np.concatenate([G, G])))


def right_translate(model: GroupoidModel, g: Arrow, at: Arrow, v: np.ndarray) -> np.ndarray:
    """T R_g . v at `at`: right_translate_many's batch of one."""
    return right_translate_many(model, g.coords[None], at.coords[None],
                                np.asarray(v, dtype=float)[None])[0]


def inv_tangent_many(model: GroupoidModel, AT: np.ndarray, V: np.ndarray) -> np.ndarray:
    """T I . v at `at` for stacks AT[k, N] and V[k, N], row a at AT[a]."""
    AT, V = np.asarray(AT, dtype=float), np.asarray(V, dtype=float)
    if model.has_jacobians:
        return matvecs(model.inv_jac_many(AT), V)
    return _central_slopes(model.inv_many(_both_steps(AT, V)))


# -- anchor, right-invariant extension, bracket ------------------------------


def anchor(model: GroupoidModel, X: AlgebroidVec) -> np.ndarray:
    """Anchor of an algebroid element: Ttgt applied to its vector."""
    return model.Ttgt(model.unit(X.base)) @ X.vec


def anchor_matrices(model: GroupoidModel, M: np.ndarray) -> np.ndarray:
    """Ttgt at unit(M[a]) for each base point of a stack M[k, n]: the matrices
    that anchor algebroid vectors at those points."""
    return differentiate_many(model.tgt, model.unit.many(M))


def right_invariant_many(model: GroupoidModel, X: Callable[[np.ndarray], np.ndarray],
                         G: np.ndarray) -> np.ndarray:
    """The right-invariant extension X^R(g) = T R_g . X(tgt(g)) of a section X
    of the algebroid at each arrow of a stack G[k, N]: row a is right_translate
    of X(tgt(G[a])) by G[a] at the unit over tgt(G[a]), bit for bit, and a
    stack of one row is the field at one arrow. The section is evaluated
    through its stacked form X.many where it has one, row by row otherwise;
    the structure maps take the stack through their stacked forms. Raises
    CompositionError like right_translate."""
    G = np.asarray(G, dtype=float)
    T = model.tgt.many(G)
    V = stacked(X, getattr(X, "many", None), T)
    return right_translate_many(model, G, model.unit.many(T), V, T)


def outer_fd_step(model: GroupoidModel) -> float:
    """Step for a derivative of right-invariant fields: the standard FD step
    when the model carries analytic jacobians (the fields are then noise-free),
    wider otherwise to keep the derivative-of-derivative roundoff in check."""
    return FD_STEP if model.has_jacobians else 5e-4


def algebroid_brackets(model: GroupoidModel, family: Callable, pairs: np.ndarray,
                       M: np.ndarray) -> np.ndarray:
    """Lie brackets of pairs of sections of one owner-indexed family
    (family(P, owner), as AffineSection.stack_of and section_family build
    it), computed from their right-invariant extensions: row a of the
    (k, N) result is [X, Y] = (D Y^R . X^R - D X^R . Y^R)(unit(M[a])) for
    X = family_{pairs[a, 0]} and Y = family_{pairs[a, 1]}, the outer
    derivative at outer_fd_step(model).

    Two right_invariant_many calls whatever k, each reading its rows through
    their owners' sections (family_rows): one over the 2k unit rows, X^R and
    Y^R, then one over the probes of both directional differences of every
    pair (of one row, for the shape, when no field moves; an empty stack
    calls nothing). Row a equals the bracket of pair a alone bit for bit.
    Raises DomainError when M is not a stack of points of dimension n."""
    M = base_points(model, M)
    if not len(M):
        return np.zeros((0, model.N))
    pairs = np.asarray(pairs)
    units = np.tile(model.unit.many(M), (2, 1))
    owner = pairs.T.reshape(-1)  # the X of every pair, then every Y

    def fields(G, labels):
        return right_invariant_many(model, family_rows(family, labels), G)

    # D Y^R along X^R(u) in the first k rows, D X^R along Y^R(u) in the last k
    slopes = directional_derivatives(fields, units, fields(units, owner),
                                     outer_fd_step(model), owner=pairs[:, ::-1].T.reshape(-1))
    return slopes[:len(M)] - slopes[len(M):]


def algebroid_bracket(model: GroupoidModel,
                      X: Callable[[np.ndarray], np.ndarray],
                      Y: Callable[[np.ndarray], np.ndarray],
                      m: np.ndarray) -> AlgebroidVec:
    """Lie bracket of two algebroid sections at m: algebroid_brackets' batch
    of one over the family of X and Y (section_family), so two
    right_invariant_many calls. Raises DomainError when m is not a point of
    dimension n."""
    m = base_points(model, m, 1)
    val = algebroid_brackets(model, section_family(X, Y), np.array([[0, 1]]), m[None])[0]
    return algebroid_vec(model, m, val, check=False)


# -- bisection-jet oracle ----------------------------------------------------


def extend_bisections(model: GroupoidModel, J: Jets) -> Callable:
    """extend_bisection for a stack of jets, as one family of bisections: a
    callable family(X, owner) whose row r is member owner[r]'s bisection at
    X[r], every row in one retract_src_many call."""

    def family(X: np.ndarray, owner: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return model.retract_src_many(
            J.coords[owner] + matvecs(J.mu[owner], X - J.source[owner]), X)

    return family


def extend_bisection(model: GroupoidModel, j: Jet1) -> ChartMap:
    """A representative local bisection with the given one-jet, as a ChartMap
    M -> G: the affine chart extension projected back onto the sections of the
    source map; extend_bisections' family of one.

    Any representative with the correct one-jet is valid; affine is the
    cheapest and exactly differentiable, and the source retraction makes it an
    exact section of src.
    """
    family = extend_bisections(model, Jets.of([j]))

    def b_many(X: np.ndarray) -> np.ndarray:
        return family(X, np.zeros(len(X), dtype=int))

    return ChartMap(model.n, model.N, batch_of_one(b_many), eval_many=b_many)


def bisection_family(model: GroupoidModel, b: Callable) -> Callable:
    """A bisection b: M -> G as a family of one, every row through b.many
    (a plain callable is looped)."""
    b = b if isinstance(b, ChartMap) else ChartMap(model.n, model.N, b)
    return lambda X, _: b.many(X)


def compose_families(model: GroupoidModel, family1: Callable, family2: Callable) -> Callable:
    """The pointwise products (b1 b2)(m) = b1(tgt(b2(m))) . b2(m) of two
    families of bisections, member by member."""

    def family(X: np.ndarray, owner: np.ndarray) -> np.ndarray:
        H = family2(X, owner)
        return model.mul_many(family1(model.tgt.many(H), owner), H)

    return family


def _section_refusals(M: np.ndarray, probes: np.ndarray, sources: np.ndarray) -> list:
    """Per member M[a], the refusal at its first probe whose source is not
    the probe (a NaN defect fails), or None; as many probes per member."""
    defects = np.max(np.abs(sources - probes), axis=1).reshape(len(M), -1)
    bad = ~(defects <= SECTION_TOL)
    refusals = [None] * len(M)
    for a in np.flatnonzero(bad.any(axis=1)):
        refusals[a] = f"src(b(x)) != x near {M[a]}: defect {defects[a, bad[a].argmax()]:.3e}"
    return refusals


def _raise_refusal(refusals: list) -> None:
    """Raise NotABisectionError with the first refusal, in member order."""
    for refusal in filter(None, refusals):
        raise NotABisectionError(refusal)


def _oracle_probes(M: np.ndarray) -> np.ndarray:
    """Each member's 2n+1 probes m, m + h e_i, m - h e_i, member by member."""
    eye = np.eye(M.shape[1])
    return np.concatenate([M[:, None], M[:, None] + FD_STEP * eye,
                           M[:, None] - FD_STEP * eye], axis=1).reshape(-1, M.shape[1])


def oracle_jets_and_refusals(model: GroupoidModel, family: Callable,
                             M: np.ndarray) -> tuple[Jets, list]:
    """Ground-truth one-jets of a family of explicit local bisections, member
    a at M[a], by central differences of the bisections themselves, and
    each member's refusal: None, or the NotABisectionError message that
    oracle_jets raises on the member alone.

    Each member is evaluated once at each of its 2n+1 points m and
    m +- h e_i, h = FD_STEP, all members in one family(probes, owner) call:
    row r of the probe stack belongs to member owner[r] = r // (2n+1). The
    section is checked at every row, and jacobians_fd reads its central
    differences from the same rows: its probes m + s * e, s = +h and -h, have
    exactly the bytes of m + h * e and m - h * e (IEEE a + (-b) == a - b,
    signed zeros included). Member a equals the family of member a alone bit
    for bit.

    A member is refused where, in this order, it is no section of the
    source map at a probe (to 1e-9, at its first such probe), its jet is
    not finite or its target map is singular; a NaN defect or determinant
    fails. Only the members still standing reach the target determinant.
    """
    M = np.asarray(M, dtype=float)
    k, n = M.shape
    probes = _oracle_probes(M)
    B = np.asarray(family(probes, np.repeat(np.arange(k), 2 * n + 1)), dtype=float)
    refusals = _section_refusals(M, probes, model.src.many(B))
    B = B.reshape(k, 2 * n + 1, -1)
    # jacobians_fd reads the forward probes of every member, then the backward ones
    stencil = np.concatenate([B[:, 1:n + 1], B[:, n + 1:]]).reshape(2 * k * n, -1)
    mu = jacobians_fd(lambda _: stencil, M)
    for a in np.flatnonzero(~np.isfinite(mu).all(axis=(1, 2))):
        refusals[a] = refusals[a] or f"non-finite jet of the bisection at {M[a]}"
    standing = np.flatnonzero([r is None for r in refusals])  # a NaN jet has a NaN det
    det = np.linalg.det(differentiate_many(model.tgt, B[standing, 0]) @ mu[standing])
    for a in standing[~(abs(det) >= DET_TOL)]:
        refusals[a] = f"target map of the bisection at {M[a]} is singular"
    return Jets.at(model, B[:, 0], mu), refusals


def oracle_jets(model: GroupoidModel, family: Callable, M: np.ndarray) -> Jets:
    """oracle_jets_and_refusals' jets; raises NotABisectionError with the
    first refusal, in member order. Where oracle_jets_and_refusals raises,
    the members rerun in order, each probe by probe and then as a family of
    one, so the error raised is the one the first failing member, at its
    first failing probe, raises alone."""
    M = np.asarray(M, dtype=float)
    try:
        jets, refusals = oracle_jets_and_refusals(model, family, M)
    except Exception:
        for a in range(len(M)):
            m, owner = M[a:a + 1], np.array([a])
            for probe in _oracle_probes(m):
                B = family(probe[None], owner)
                _raise_refusal(_section_refusals(m, probe[None], model.src.many(B)))
            # member a alone: a family of one, whose owner 0 reads as a
            _raise_refusal(oracle_jets_and_refusals(model, lambda X, o: family(X, o + a), m)[1])
        raise
    _raise_refusal(refusals)
    return jets


def oracle_jet(model: GroupoidModel, b: Callable[[np.ndarray], np.ndarray],
               m: np.ndarray) -> Jet1:
    """Ground-truth one-jet of an explicit local bisection at m: oracle_jets'
    batch of one, b evaluated at its 2n+1 probes in one b.many call (a plain
    callable is looped; where that raises, the probes rerun one by one)."""
    return oracle_jets(model, bisection_family(model, b), np.asarray(m, dtype=float)[None])[0]


def oracle_jet_muls(model: GroupoidModel, J1: Jets, J2: Jets) -> Jets:
    """Definition-level multiplication in the jet groupoid, for stacks of
    composable jets: extend both stacks to their families of representative
    bisections, compose them member by member, and take the oracle jets of
    the products at the sources of J2, each factor's family evaluated in one
    stacked call of k(2n+1) rows.

    Every closed multiplication formula in the library is tested against this.
    """
    _check_composable(J1.source, J2.target)
    return oracle_jets(model, compose_families(model, extend_bisections(model, J1),
                                               extend_bisections(model, J2)), J2.source)


def oracle_jet_mul(model: GroupoidModel, j1: Jet1, j2: Jet1) -> Jet1:
    """oracle_jet_muls' batch of one."""
    return oracle_jet_muls(model, Jets.of([j1]), Jets.of([j2]))[0]


def oracle_jet_inverses(model: GroupoidModel, J: Jets) -> Jets:
    """Ground-truth jet inversion for a stack of jets: invert representative
    bisections.

    Each representative's base transformation tgt . b is inverted by Newton
    iteration; the inverse bisection y -> inv(b((tgt . b)^-1(y))) is then
    differentiated at the jet's target. All members' 2n+1 Newton solves run
    as one newton_solve_many, each member's rows from its jet's source, the
    start they share: a k-member stack evaluates k starts.
    """
    family = extend_bisections(model, J)

    def inverse(Y, owner):
        X = newton_solve_many(lambda P, o: model.tgt.many(family(P, o)), Y, J.source,
                              owner, 1e-14)
        return model.inv_many(family(X, owner))

    return oracle_jets(model, inverse, J.target)


def oracle_jet_inverse(model: GroupoidModel, j: Jet1) -> Jet1:
    """oracle_jet_inverses' batch of one."""
    return oracle_jet_inverses(model, Jets.of([j]))[0]


def identity_jets(model: GroupoidModel, M: np.ndarray) -> Jets:
    """The unit elements of the jet groupoid over the points M[k, n]: the jets
    of the unit bisection."""
    M = np.asarray(M, dtype=float)
    return Jets.at(model, model.unit.many(M), differentiate_many(model.unit, M))


def identity_jet(model: GroupoidModel, m: np.ndarray) -> Jet1:
    """The unit element of the jet groupoid over m: identity_jets' batch of one."""
    return identity_jets(model, np.asarray(m, dtype=float)[None])[0]


def jet_distances(J1: Jets, J2: Jets) -> np.ndarray:
    """Max-norm distances between the jets of two stacks, row by row: arrow
    coordinates and mu entries; NaN where either jet holds a NaN."""
    return np.maximum(np.max(np.abs(J1.coords - J2.coords), axis=1),
                      np.max(np.abs(J1.mu - J2.mu), axis=(1, 2)))


def jet_distance(j1: Jet1, j2: Jet1) -> float:
    """Max-norm distance between jets: jet_distances' batch of one."""
    return float(jet_distances(Jets.of([j1]), Jets.of([j2]))[0])


# -- sampling ---------------------------------------------------------------


def sample_base_point(model: GroupoidModel, rng: np.random.Generator) -> np.ndarray:
    """Uniform base point, drawn a little inside the base box (base_draw_box)
    so that finite differences and short flows stay in-chart."""
    return box_draw(rng, *model.base_draw_box)


def check_sources(model: GroupoidModel, sources: np.ndarray, wanted: np.ndarray,
                  samples=None) -> None:
    """Raise SamplingError unless row a of the stack sources equals wanted[a]
    to 1e-12 (a NaN defect fails), naming the first bad row's points and,
    where samples gives each row's sample, that sample."""
    defects = np.max(np.abs(sources - wanted), axis=1)
    bad = np.flatnonzero(~(defects <= 1e-12))
    if bad.size:
        a = bad[0]
        where = "" if samples is None else f" at sample {samples[a]}"
        raise SamplingError(f"arrow_with_source missed its source on {model.name}{where}: "
                            f"src {sources[a]} for {wanted[a]}")


def arrow_at(model: GroupoidModel, m: np.ndarray, rng: np.random.Generator) -> Arrow:
    """An arrow drawn with source m by arrow_with_source; SamplingError where
    its source misses m (check_sources)."""
    g = model.arrow(model.arrow_with_source(m, rng))
    check_sources(model, g.source[None], np.asarray(m, dtype=float)[None])
    return g


class Redraw(Exception):
    """Raised by a stack_of that cannot keep the deferred draws it was handed
    (jetalg.KernelDraw, when a candidate falls below its rejection floor),
    naming the first refused row, which is that sample's: row a of a
    stacked field is sample a's. draw_samples_then_evaluate draws the pass
    again, settling that sample's draws as they are drawn."""

    def __init__(self, sample: int):
        super().__init__(f"a draw of sample {sample} refused")
        self.sample = sample


class ArrowField:
    """Field name (coords, source or target) of arrow index of a pass's
    DeferredDraws. A list of them stacks itself (stack_of) from the pass's
    one resolution, row a equal to the batch-of-one draw's field bit for
    bit."""

    __slots__ = ("draws", "index", "name")

    def __init__(self, draws: "DeferredDraws", index: int, name: str):
        self.draws, self.index, self.name = draws, index, name

    @staticmethod
    def stack_of(fields) -> np.ndarray:
        return fields[0].draws.resolve()[fields[0].name][[f.index for f in fields]]


class ArrowDraw:
    """Arrow index of a pass's DeferredDraws: an Arrow whose coords, source
    and target are ArrowFields, made as they are read."""

    __slots__ = ("draws", "index")

    def __init__(self, draws: "DeferredDraws", index: int):
        self.draws, self.index = draws, index

    coords = property(lambda self: ArrowField(self.draws, self.index, "coords"))
    source = property(lambda self: ArrowField(self.draws, self.index, "source"))
    target = property(lambda self: ArrowField(self.draws, self.index, "target"))


class DeferredDraws:
    """The sampler a draw closure draws through, for one stacked pass:
    arrow(rng), composable(rng), arrow_at(m, rng) and kernel_hom(m, rng).

    An arrow takes from rng what its batch of one takes (box_draw in the
    domain box, or in free_box for an arrow at a source) and is an
    ArrowDraw, so the draw closures make no structure-map call; the first
    stack_of of a field resolves the pass (resolve). A kernel element is a
    jetalg.deferred_kernel_hom, its first candidate taken as accepted,
    except in the samples of settle: there it is settled as it is drawn
    (KernelDraw.settled), at its point resolved from the arrows drawn so
    far, and takes from rng what random_kernel_hom takes."""

    def __init__(self, model: GroupoidModel, settle=frozenset()):
        from .jetalg import deferred_kernel_hom  # jetalg builds on this module

        self.model, self.settle, self.kernel_draw = model, settle, deferred_kernel_hom
        # per arrow: raw coordinates; where it is drawn: None (the domain
        # box), a point, or the (index, name) of an earlier arrow's end, not
        # its ArrowField, which would make a reference cycle; its sample
        self.raw, self.at, self.samples = [], [], []
        self.sample = -1  # the sample being drawn (begin_sample)
        self._resolved = None

    def begin_sample(self) -> None:
        self.sample += 1

    def _add(self, box: np.ndarray, at, rng: np.random.Generator) -> ArrowDraw:
        self.raw.append(box_draw(rng, box[:, 0], box[:, 1]))
        self.at.append(at)
        self.samples.append(self.sample)
        return ArrowDraw(self, len(self.raw) - 1)

    def arrow(self, rng: np.random.Generator) -> ArrowDraw:
        return self._add(self.model.domain_box, None, rng)

    def arrow_at(self, m, rng: np.random.Generator) -> ArrowDraw:
        at = (m.index, m.name) if isinstance(m, ArrowField) else np.asarray(m, dtype=float)
        return self._add(self.model.free_box, at, rng)

    def composable(self, rng: np.random.Generator) -> tuple[ArrowDraw, ArrowDraw]:
        h = self.arrow(rng)
        return self.arrow_at(h.target, rng), h

    def kernel_hom(self, m, rng: np.random.Generator):
        draw = self.kernel_draw(self.model, m, rng)
        if self.sample not in self.settle:
            return draw
        # resolved now, but not kept: the pass may draw more arrows
        point = self._resolve()[m.name][m.index] if isinstance(m, ArrowField) else draw.m
        return draw.settled(point, rng)

    def resolve(self) -> dict[str, np.ndarray]:
        """The coords, source and target of every arrow of the pass, computed
        once, level by level (the arrows in the domain box or at a drawn
        point, then the arrows at their ends, ...), each level in one
        place_many, one src.many and one tgt.many call and one check_sources
        of its arrows drawn at a source."""
        if self._resolved is None:
            self._resolved = self._resolve()
        return self._resolved

    def _resolve(self) -> dict[str, np.ndarray]:
        model, k = self.model, len(self.raw)
        out = {"coords": np.empty((k, model.N)), "source": np.empty((k, model.n)),
               "target": np.empty((k, model.n))}
        level = []
        for at in self.at:
            level.append(level[at[0]] + 1 if isinstance(at, tuple) else 0)
        level = np.array(level)
        # a one-sample pass is the per-sample loop's, whose error names no sample
        samples = self.samples if self.sample > 0 else None
        for depth in range(level.max() + 1):
            rows = np.flatnonzero(level == depth)
            placed = [a for a in rows if self.at[a] is not None]
            boxed = [a for a in rows if self.at[a] is None]
            if boxed:
                out["coords"][boxed] = [self.raw[a] for a in boxed]
            if placed:
                M = np.array([out[at[1]][at[0]] if isinstance(at, tuple) else at
                              for at in (self.at[a] for a in placed)])
                out["coords"][placed] = model.place_many(
                    np.array([self.raw[a] for a in placed]), M)
            G = out["coords"][rows]
            out["source"][rows] = model.src.many(G)
            out["target"][rows] = model.tgt.many(G)
            if placed:
                check_sources(model, out["source"][placed], M,
                              samples and [samples[a] for a in placed])
        return out


def draw_samples_then_evaluate(model: GroupoidModel, rng: np.random.Generator, count: int,
                               draw: Callable, evaluate: Callable) -> None:
    """chartcalc.draw_then_evaluate for a draw(sample) that draws its arrows
    and kernel elements through the sampler sample, a DeferredDraws: each
    arrow and kernel field resolves as one stack. A kernel stack that
    refuses a sample's candidate (Redraw) has the pass drawn again from the
    rng state before it, still deferred, with that sample's kernel elements
    settled as they are drawn, until no stack refuses: at most one retry
    per refused sample. The rng stream and every stacked field are then the
    per-sample loop's. The error rerun runs the pass on one sample at a
    time (chartcalc.evaluate_drawn)."""

    def draw_stacked(k: int) -> list:
        state, settle = rng.bit_generator.state, set()
        while True:
            sampler = DeferredDraws(model, settle)
            drawn = []
            for _ in range(k):
                sampler.begin_sample()
                drawn.append(draw(sampler))
            try:
                return stacked_fields(drawn)
            except Redraw as refused:
                # numpy does not promise that a stack rounds each matrix as
                # the lone call does; a settled draw refused would loop
                if refused.sample in settle:
                    raise
                rng.bit_generator.state = state
                settle.add(refused.sample)

    evaluate_drawn(rng, count, draw_stacked, evaluate)


def aligned_frame(model: GroupoidModel, ref_point: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth orthonormal frame of the source-fibre kernel near ref_point,
    with the frame's rank as its .rank attribute and its stacked form as
    .many: frame.many(P) gives the frames at the rows of P[k, n] as a
    (k, N, rank) array, row a equal to frame(P[a]) bit for bit.

    The reference basis at ref_point is projected onto the kernel at the
    requested point and symmetrically re-orthonormalized; this is
    deterministic, smooth wherever no degeneracy occurs, and reproduces the
    reference basis at ref_point. Raises FrameError, naming the point, where
    the projected basis degenerates, and DomainError for a point that is not
    of dimension n.

    The frame reads the point only through A = Tsrc(unit(m)). On a model with
    a constant_Tsrc, A is one matrix at every point, so the frame is
    projected once, here: frame(m) is that read-only matrix and frame.many
    broadcasts it. Otherwise the projection is memoized on A, which central
    differences leave at a few roundoff-level values, and frame.many reads
    the A of all its rows in one differentiate_many call.
    """
    return _frame_on(model, kernel_basis(model, ref_point))


def _frame_on(model: GroupoidModel, E_ref: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """aligned_frame on the reference basis E_ref, the kernel basis at its
    reference point: the frame reads that point through E_ref alone."""
    # the frame keeps the maps it reads, not the model: a model holding its
    # section_frame makes no reference cycle, so it is freed with its last reference
    n, N, src, unit = model.n, model.N, model.src, model.unit

    def project(A: np.ndarray) -> np.ndarray:
        P = np.eye(N) - np.linalg.pinv(A) @ A  # projector onto ker A
        E = P @ E_ref
        gram = E.T @ E
        det = float(np.linalg.det(gram))
        if det < 1e-9:
            raise FrameError(f"gram det {det:.2e}")
        w, U = np.linalg.eigh(gram)
        return E @ (U @ np.diag(1.0 / np.sqrt(w)) @ U.T)

    if model.constant_Tsrc is not None:
        K = read_only(project(model.constant_Tsrc))
        rows = repeated_rows(K)

        def frame(m: np.ndarray) -> np.ndarray:
            _points_of_dimension(n, m, 1)
            return K

        def frame_many(P: np.ndarray) -> np.ndarray:
            return rows(len(_points_of_dimension(n, P, 2)))
    else:
        projection = memo_by_point(project, PROJECTION_CACHE_SIZE)

        def frame(m: np.ndarray) -> np.ndarray:
            m = _points_of_dimension(n, m, 1)
            try:
                return projection(differentiate(src, unit(m)))
            except FrameError as exc:
                raise FrameError(f"kernel frame degenerated at {m} ({exc})") from None

        def frame_many(P: np.ndarray) -> np.ndarray:
            # Tsrc(unit(m)) of every row in one stacked call; a degenerate
            # row reruns the rows one by one, so the error names its point
            P = _points_of_dimension(n, P, 2)
            try:
                return projection.many(differentiate_many(src, unit.many(P)))
            except FrameError:
                return np.stack([frame(m) for m in P])

    frame.rank = E_ref.shape[1]
    frame.many = frame_many
    return frame


def aligned_frames(model: GroupoidModel, ref_points: np.ndarray
                   ) -> list[tuple[Callable, np.ndarray]]:
    """The aligned_frame at each row of a stack ref_points[k, n], grouped:
    (frame, rows) pairs, rows the indices of the reference points whose
    frame it is, in order of first use. A frame reads its reference point
    only through the kernel basis there, so rows whose bases (one
    kernel_bases call) are the same bytes share a frame; on every shipped
    model, the -fd copies included, all rows of a stack do."""
    bases = kernel_bases(model, ref_points)
    groups = {}  # basis bytes -> the rows it serves
    for a, E in enumerate(bases):
        groups.setdefault(E.tobytes(), []).append(a)
    return [(_frame_on(model, bases[rows[0]]), np.array(rows)) for rows in groups.values()]


@dataclass(frozen=True)
class AffineSection:
    """random_section's section, frame(m) @ (c0 + c1 @ m), with its stacked
    form as .many, its family of one, row a of X.many(P) equal to X(P[a])
    bit for bit. A list of them stacks itself (stack_of) into one family,
    for chartcalc.draw_then_evaluate."""

    frame: Callable[[np.ndarray], np.ndarray]
    c0: np.ndarray  # (rank,)
    c1: np.ndarray  # (rank, n)

    def __call__(self, m: np.ndarray) -> np.ndarray:
        return self.many(np.asarray(m, dtype=float)[None])[0]

    def many(self, P: np.ndarray) -> np.ndarray:
        return self._family(P, np.zeros(len(P), dtype=int))

    @cached_property
    def _family(self) -> Callable:
        return AffineSection.stack_of([self])

    @staticmethod
    def stack_of(sections) -> Callable:
        """The family of the sections: family(P, owner), for a stack of
        points P[p, n] and owner[p], gives row r as sections[owner[r]] at
        P[r], in the form of extend_bisections' families, with one
        frame.many call and two stacked matrix-vector products for all rows;
        row r equals that section at P[r] alone bit for bit. Every
        random_section of a model is built on the one frame at the box
        centre, so the family reads the first one's, and only the
        coefficients stack. The family carries the sections as .sections,
        so families join: stack_of(F.sections + G.sections)."""
        frame = sections[0].frame
        C0 = np.array([X.c0 for X in sections])
        C1 = np.array([X.c1 for X in sections])

        def family(P: np.ndarray, owner: np.ndarray) -> np.ndarray:
            P = np.asarray(P, dtype=float)
            return matvecs(frame.many(P), C0[owner] + matvecs(C1[owner], P))

        family.sections = tuple(sections)
        return family


def random_section(model: GroupoidModel, rng: np.random.Generator) -> AffineSection:
    """A smooth random algebroid section: the model's section_frame, the
    kernel frame at the box centre, times affine coefficients, with its
    stacked form as .many, row a of X.many(P) equal to X(P[a]) bit for bit."""
    frame = model.section_frame
    c0 = rng.uniform(-SECTION_SCALE, SECTION_SCALE, size=frame.rank)
    c1 = rng.uniform(-SECTION_SCALE, SECTION_SCALE, size=(frame.rank, model.n))
    return AffineSection(frame, c0, c1)


def section_family(*sections: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """The family of the sections: row r is sections[owner[r]] at P[r], each
    section read at its rows in one call, through its .many where it has one,
    row by row otherwise. The family of one section reads every row through
    it, whatever owner[r]."""

    def read(X, P):
        return stacked(X, getattr(X, "many", None), P)

    def family(P: np.ndarray, owner: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        if len(sections) == 1:
            return read(sections[0], P)
        out = None
        for a, X in enumerate(sections):
            rows = np.flatnonzero(owner == a)
            if rows.size:
                values = read(X, P[rows])
                if out is None:
                    out = np.empty((len(P),) + values.shape[1:])
                out[rows] = values
        return out

    return family


def family_rows(family: Callable, owner: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The sections of the rows of one stack, as one section-like callable:
    its .many(P), on a stack P of len(owner) points, is family(P, owner), so
    right_invariant_many reads a family's rows in one call."""
    return batch_of_one(lambda P: family(P, owner))


def check_axioms(model: GroupoidModel, rng: np.random.Generator,
                 count: int = 100) -> dict[str, float]:
    """Max deviation of the groupoid axioms over seeded random samples.

    Every sample (a base point, a composable pair, an arrow composable with
    the pair) is drawn first, in the per-sample loop's rng order, its arrows
    deferred; then each axiom is a few stacked src/tgt/unit.many, mul_many,
    inv_many and retract_*_many calls over all samples
    (draw_samples_then_evaluate)."""
    errs = WorstErrors(("unit_source_target", "left_unit", "right_unit",
                        "product_source_target", "inverse", "associativity",
                        "retract_identity"))
    bump = errs.record

    def draw(sample):
        m = sample_base_point(model, rng)
        g, h = sample.composable(rng)
        k = sample.arrow_at(g.target, rng)
        return m, g.coords, g.source, g.target, h.coords, h.source, k.coords

    def evaluate(M, G, G_src, G_tgt, H, H_src, K):
        U = model.unit.many(M)
        bump("unit_source_target", model.src.many(U) - M)
        bump("unit_source_target", model.tgt.many(U) - M)
        bump("left_unit", model.mul_many(G, model.unit.many(G_src)) - G)
        bump("right_unit", model.mul_many(model.unit.many(G_tgt), G) - G)
        GH = model.mul_many(G, H)
        bump("product_source_target", model.src.many(GH) - H_src)
        bump("product_source_target", model.tgt.many(GH) - G_tgt)
        bump("inverse", model.mul_many(model.inv_many(G), G) - model.unit.many(G_src))
        bump("associativity", model.mul_many(model.mul_many(K, G), H)
             - model.mul_many(K, model.mul_many(G, H)))
        bump("retract_identity", model.retract_src_many(G, G_src) - G)
        bump("retract_identity", model.retract_tgt_many(G, G_tgt) - G)

    draw_samples_then_evaluate(model, rng, count, draw, evaluate)
    return errs
