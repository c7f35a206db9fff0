"""Action groupoids G0 x M for matrix-group chart actions.

An arrow is (a, m): the group element a applied at the base point m. The
canonical connection assigns to every arrow the jet of the constant bisection
m' -> (a, m'); its horizontal leaves are the constant-parameter foliation, the
prototype of an involutive connection.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..chartcalc import ChartMap, batch_of_one, read_only
from ..connection import CartanConnection
from ..groupoid import GroupoidModel, source_slot
from .rotations import (
    J2,
    compose_so3_jac_many,
    compose_so3_many,
    exp_so3_many,
    hat,
    jl_many,
    rot2,
    rot2_many,
)

TRANSLATION_HALF_WIDTH = 0.8  # half-width of the translation group box
SE2_THETA_MAX, SE2_B_MAX = 0.6, 0.7  # half-widths of the SE(2) chart box in theta and b
SO3_W_MAX = 0.5  # half-width of the rotation-vector box of SO(3)


@dataclass(frozen=True)
class GroupChart:
    """A matrix-group chart: composition compose_many(A2, A1) and inverse
    inverse_many(A) on stacks of coordinates, row a of each depending on row
    a alone bit for bit; their jacobians at one point, and the stacked
    composition jacobian, row a equal to compose_jac bit for bit."""

    dim: int
    compose_jac: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    inverse_jac: Callable[[np.ndarray], np.ndarray]
    box: np.ndarray
    compose_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse_many: Callable[[np.ndarray], np.ndarray]
    compose_jac_many: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ActionChart:
    """A smooth left action on stacks, act_many(A, M) applying A[a] at M[a] in
    row a, which depends on row a alone bit for bit, with its jacobians in
    both slots at one point."""

    act_jac: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    act_many: Callable[[np.ndarray, np.ndarray], np.ndarray]


def make_action_groupoid(group: GroupChart, action: ActionChart, base_box: np.ndarray,
                         name: str) -> tuple[GroupoidModel, CartanConnection]:
    base_box = np.asarray(base_box, dtype=float)
    n = base_box.shape[0]
    k = group.dim
    N = k + n
    Ik, In = np.eye(k), np.eye(n)
    Zkn = np.zeros((k, n))

    def tgt_jac(g):
        Da, Dm = action.act_jac(g[:k], g[k:])
        return np.hstack([Da, Dm])

    def tgt_many(G):
        return action.act_many(G[:, :k], G[:, k:])

    unit = ChartMap(n, N, lambda m: np.concatenate([np.zeros(k), m]),
                    jacobian=lambda m: np.vstack([Zkn, In]),
                    eval_many=lambda M: np.concatenate([np.zeros((len(M), k)), M], axis=1))
    tgt = ChartMap(N, n, batch_of_one(tgt_many), jacobian=tgt_jac, eval_many=tgt_many)

    def mul_jac(g, h):
        return _mul_jac_blocks(*group.compose_jac(g[:k], h[:k]), N)

    def inv_jac(g):
        Da, Dm = action.act_jac(g[:k], g[k:])
        D = np.zeros((N, N))
        D[:k, :k] = group.inverse_jac(g[:k])
        D[k:, :k] = Da
        D[k:, k:] = Dm
        return D

    def retract_tgt_many(G, M):
        return np.concatenate([G[:, :k], action.act_many(group.inverse_many(G[:, :k]), M)], 1)

    def retract_tgt_jac(g, m):
        b = group.inverse_many(g[None, :k])[0]
        Dinv = group.inverse_jac(g[:k])
        Da, Dm = action.act_jac(b, m)
        Dg = np.zeros((N, N))
        Dg[:k, :k] = Ik
        Dg[k:, :k] = Da @ Dinv
        Dpoint = np.zeros((N, n))
        Dpoint[k:] = Dm
        return Dg, Dpoint

    domain_box = np.vstack([group.box, base_box])
    model = GroupoidModel(
        name=name,
        n=n,
        N=N,
        tgt=tgt,
        unit=unit,
        domain_box=domain_box,
        base_box=base_box,
        mul_jac=mul_jac,
        inv_jac=inv_jac,
        retract_tgt_jac=retract_tgt_jac,
        mul_many=lambda G, H: np.concatenate(
            [group.compose_many(G[:, :k], H[:, :k]), H[:, k:]], axis=1),
        inv_many=lambda G: np.concatenate([group.inverse_many(G[:, :k]), tgt_many(G)], 1),
        retract_tgt_many=retract_tgt_many,
        mul_jac_many=lambda G, H: _mul_jac_blocks(
            *group.compose_jac_many(G[:, :k], H[:, :k]), N, (len(G),)),
        **source_slot(N, slice(k, N), domain_box),
    )

    mu_const = read_only(np.vstack([Zkn, In]))
    S = CartanConnection(model, lambda g: mu_const, name="constant-bisection")
    return model, S


def _mul_jac_blocks(D2: np.ndarray, D1: np.ndarray, N: int,
                    stack: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """mul_jac's blocks (Dg, Dh) from the group's compose_jac blocks, for one
    pair or, with stack = (k,), for a stack of pairs."""
    k = D2.shape[-1]
    Dg = np.zeros(stack + (N, N))
    Dg[..., :k, :k] = D2
    Dh = np.zeros(stack + (N, N))
    Dh[..., :k, :k] = D1
    Dh[..., k:, k:] = np.eye(N - k)
    return Dg, Dh


# -- shipped groups/actions ---------------------------------------------------


def _negate(A: np.ndarray) -> np.ndarray:
    """-A, row by row: the inverse of the translation group and of SO(3) in
    the rotation-vector chart."""
    return -A


def _add(A2: np.ndarray, A1: np.ndarray) -> np.ndarray:
    """A1 + A2, row by row: the translation group's compose_many(A2, A1), and
    its action act_many(A, M) = M + A."""
    return A1 + A2


def translation_group(n: int) -> GroupChart:
    box = np.array([[-TRANSLATION_HALF_WIDTH, TRANSLATION_HALF_WIDTH]] * n)
    return GroupChart(
        dim=n,
        compose_jac=lambda a2, a1: (np.eye(n), np.eye(n)),
        inverse_jac=lambda a: -np.eye(n),
        box=box,
        compose_many=_add,
        inverse_many=_negate,
        compose_jac_many=lambda A2, A1: (np.broadcast_to(np.eye(n), (len(A2), n, n)),) * 2,
    )


def make_translation_groupoid(n: int = 2) -> tuple[GroupoidModel, CartanConnection]:
    group = translation_group(n)
    action = ActionChart(act_jac=lambda a, m: (np.eye(n), np.eye(n)), act_many=_add)
    base_box = np.array([[-1.0, 1.0]] * n)
    return make_action_groupoid(group, action, base_box, name=f"translation-R{n}")


def se2_group() -> GroupChart:
    """SE(2) in the (theta, b) chart; theta lives on the universal cover."""
    box = np.array([[-SE2_THETA_MAX, SE2_THETA_MAX]] + [[-SE2_B_MAX, SE2_B_MAX]] * 2)

    def compose_many(A2, A1):
        Rb1 = (rot2_many(A2[:, 0]) @ A1[:, 1:, None])[..., 0]
        return np.concatenate([A1[:, :1] + A2[:, :1], A2[:, 1:] + Rb1], axis=1)

    def compose_jac_blocks(R2, b1, stack=()):
        D2 = np.zeros(stack + (3, 3))
        D2[..., 0, 0] = 1.0
        D2[..., 1:, 0] = ((J2 @ R2) @ b1[..., None])[..., 0]
        D2[..., 1:, 1:] = np.eye(2)
        D1 = np.zeros(stack + (3, 3))
        D1[..., 0, 0] = 1.0
        D1[..., 1:, 1:] = R2
        return D2, D1

    def compose_jac(a2, a1):
        return compose_jac_blocks(rot2(a2[0]), a1[1:])

    def compose_jac_many(A2, A1):
        return compose_jac_blocks(rot2_many(A2[:, 0]), A1[:, 1:], (len(A2),))

    def inverse_many(A):
        return np.concatenate([-A[:, :1], (-rot2_many(-A[:, 0]) @ A[:, 1:, None])[..., 0]], 1)

    def inverse_jac(a):
        th, b = a[0], a[1:]
        D = np.zeros((3, 3))
        D[0, 0] = -1.0
        D[1:, 0] = J2 @ rot2(-th) @ b
        D[1:, 1:] = -rot2(-th)
        return D

    return GroupChart(3, compose_jac, inverse_jac, box, compose_many, inverse_many,
                      compose_jac_many)


def make_se2_groupoid() -> tuple[GroupoidModel, CartanConnection]:
    group = se2_group()

    def act_many(A, M):
        return (rot2_many(A[:, 0]) @ M[..., None])[..., 0] + A[:, 1:]

    def act_jac(a, m):
        R = rot2(a[0])
        Da = np.zeros((2, 3))
        Da[:, 0] = J2 @ R @ m
        Da[:, 1:] = np.eye(2)
        return Da, R

    base_box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    return make_action_groupoid(group, ActionChart(act_jac, act_many), base_box,
                                name="se2-action")


def so3_group() -> GroupChart:
    """SO(3) in the rotation-vector chart; the single-point composition
    jacobian is the stacked one's batch of one."""
    box = np.array([[-SO3_W_MAX, SO3_W_MAX]] * 3)

    def compose_jac(w2, w1):
        D2, D1 = compose_so3_jac_many(w2[None], w1[None])
        return D2[0], D1[0]

    return GroupChart(
        dim=3,
        compose_jac=compose_jac,
        inverse_jac=lambda w: -np.eye(3),
        box=box,
        compose_many=compose_so3_many,
        inverse_many=_negate,
        compose_jac_many=compose_so3_jac_many,
    )


def unstereo(x: np.ndarray) -> np.ndarray:
    s = float(x @ x)
    return np.array([2.0 * x[0], 2.0 * x[1], s - 1.0]) / (1.0 + s)


def unstereo_jac(x: np.ndarray) -> np.ndarray:
    s = float(x @ x)
    d = 1.0 + s
    num = np.array([2.0 * x[0], 2.0 * x[1], s - 1.0])
    dnum = np.array([[2.0, 0.0], [0.0, 2.0], [2.0 * x[0], 2.0 * x[1]]])
    dd = 2.0 * np.asarray(x, dtype=float)
    return dnum / d - np.outer(num, dd) / d**2


def unstereo_many(X: np.ndarray) -> np.ndarray:
    """unstereo of each row of X[k, 2], bit for bit: s is the row's dot
    product with itself, as x @ x takes it."""
    X = np.ascontiguousarray(X, dtype=float)
    s = (X[:, None, :] @ X[:, :, None])[:, 0, 0]
    return np.stack([2.0 * X[:, 0], 2.0 * X[:, 1], s - 1.0], axis=1) / (1.0 + s)[:, None]


def stereo_jac(u: np.ndarray) -> np.ndarray:
    w = 1.0 - u[2]
    return np.array([[1.0 / w, 0.0, u[0] / w**2],
                     [0.0, 1.0 / w, u[1] / w**2]])


def make_so3_sphere_groupoid() -> tuple[GroupoidModel, CartanConnection]:
    """Rotations of the sphere acting on a stereographic chart."""
    group = so3_group()

    def act_many(W, X):
        U = (exp_so3_many(W) @ unstereo_many(X)[..., None])[..., 0]
        return U[:, :2] / (1.0 - U[:, 2])[:, None]

    def act_jac(w, x):
        R = exp_so3_many(w[None])[0]
        u = unstereo(x)
        Ru = R @ u
        Ds = stereo_jac(Ru)
        JL = jl_many(w[None])[0]
        Dw = np.stack([Ds @ (hat(JL[:, kk]) @ Ru) for kk in range(3)], axis=1)
        Dx = Ds @ R @ unstereo_jac(x)
        return Dw, Dx

    base_box = np.array([[-0.7, 0.7], [-0.7, 0.7]])
    action = ActionChart(act_jac, act_many)
    return make_action_groupoid(group, action, base_box, name="so3-sphere")
