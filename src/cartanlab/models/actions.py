"""Action groupoids G0 x M for matrix-group chart actions.

An arrow is (a, m): the group element a applied at the base point m. The
canonical connection assigns to every arrow the jet of the constant bisection
m' -> (a, m'); its horizontal leaves are the constant-parameter foliation, the
prototype of an involutive connection.

Groups and actions are written on stacks only: every map and jacobian takes
stacks of coordinates, row a depending on row a alone bit for bit, and a
batch of one is the single-point form.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..chartcalc import ChartMap, batch_of_one, constant_jacobian, matvecs
from ..connection import CartanConnection
from ..groupoid import GroupoidModel, source_slot
from .rotations import (
    J2,
    compose_so3_jac_many,
    compose_so3_many,
    exp_so3_many,
    hat_many,
    jl_many,
    rot2_many,
)

TRANSLATION_HALF_WIDTH = 0.8  # half-width of the translation group box
SE2_THETA_MAX, SE2_B_MAX = 0.6, 0.7  # half-widths of the SE(2) chart box in theta and b
SO3_W_MAX = 0.5  # half-width of the rotation-vector box of SO(3)


@dataclass(frozen=True)
class GroupChart:
    """A matrix-group chart on stacks of coordinates: composition
    compose_many(A2, A1) and inverse inverse_many(A), with their jacobians
    compose_jac_many (the stacks of the blocks in A2 and in A1) and
    inverse_jac_many, row a of each depending on row a alone bit for bit."""

    dim: int
    box: np.ndarray
    compose_many: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse_many: Callable[[np.ndarray], np.ndarray]
    compose_jac_many: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    inverse_jac_many: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ActionChart:
    """A smooth left action on stacks, act_many(A, M) applying A[a] at M[a] in
    row a, with act_jac_many(A, M) the stacks of its jacobians in both slots;
    row a of each depends on row a alone bit for bit."""

    act_jac_many: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    act_many: Callable[[np.ndarray, np.ndarray], np.ndarray]


def make_action_groupoid(group: GroupChart, action: ActionChart, base_box: np.ndarray,
                         name: str) -> tuple[GroupoidModel, CartanConnection]:
    base_box = np.asarray(base_box, dtype=float)
    n = base_box.shape[0]
    k = group.dim
    N = k + n
    Ik, In = np.eye(k), np.eye(n)

    def tgt_jac_many(G):
        return np.concatenate(action.act_jac_many(G[:, :k], G[:, k:]), axis=2)

    def tgt_many(G):
        return action.act_many(G[:, :k], G[:, k:])

    # T unit, also the jet of every constant bisection m -> (a, m)
    vertical = constant_jacobian(np.vstack([np.zeros((k, n)), In]))
    unit = ChartMap(n, N, lambda m: np.concatenate([np.zeros(k), m]), jacobian=vertical,
                    eval_many=lambda M: np.concatenate([np.zeros((len(M), k)), M], axis=1))
    tgt = ChartMap(N, n, batch_of_one(tgt_many), jacobian=tgt_jac_many, eval_many=tgt_many)

    def mul_jac_many(G, H):
        Dg, Dh = np.zeros((2, len(G), N, N))
        Dg[:, :k, :k], Dh[:, :k, :k] = group.compose_jac_many(G[:, :k], H[:, :k])
        Dh[:, k:, k:] = In
        return Dg, Dh

    def inv_jac_many(G):
        D = np.zeros((len(G), N, N))
        D[:, :k, :k] = group.inverse_jac_many(G[:, :k])
        D[:, k:, :k], D[:, k:, k:] = action.act_jac_many(G[:, :k], G[:, k:])
        return D

    def retract_tgt_many(G, M):
        return np.concatenate([G[:, :k], action.act_many(group.inverse_many(G[:, :k]), M)], 1)

    def retract_tgt_jac_many(G, M):
        Da, Dm = action.act_jac_many(group.inverse_many(G[:, :k]), M)
        Dg = np.zeros((len(G), N, N))
        Dg[:, :k, :k] = Ik
        Dg[:, k:, :k] = Da @ group.inverse_jac_many(G[:, :k])
        Dpoint = np.zeros((len(G), N, n))
        Dpoint[:, k:] = Dm
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
        mul_jac_many=mul_jac_many,
        inv_jac_many=inv_jac_many,
        retract_tgt_jac_many=retract_tgt_jac_many,
        mul_many=lambda G, H: np.concatenate(
            [group.compose_many(G[:, :k], H[:, :k]), H[:, k:]], axis=1),
        inv_many=lambda G: np.concatenate([group.inverse_many(G[:, :k]), tgt_many(G)], 1),
        retract_tgt_many=retract_tgt_many,
        **source_slot(N, slice(k, N), domain_box),
    )

    S = CartanConnection(model, batch_of_one(vertical), name="constant-bisection")
    return model, S


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
    identity = constant_jacobian(np.eye(n))
    return GroupChart(
        dim=n,
        box=box,
        compose_many=_add,
        inverse_many=_negate,
        compose_jac_many=lambda A2, A1: (identity(A2),) * 2,
        inverse_jac_many=constant_jacobian(-np.eye(n)),
    )


def make_translation_groupoid(n: int = 2) -> tuple[GroupoidModel, CartanConnection]:
    group = translation_group(n)
    action = ActionChart(act_jac_many=group.compose_jac_many, act_many=_add)
    base_box = np.array([[-1.0, 1.0]] * n)
    return make_action_groupoid(group, action, base_box, name=f"translation-R{n}")


def se2_group() -> GroupChart:
    """SE(2) in the (theta, b) chart; theta lives on the universal cover."""
    box = np.array([[-SE2_THETA_MAX, SE2_THETA_MAX]] + [[-SE2_B_MAX, SE2_B_MAX]] * 2)

    def compose_many(A2, A1):
        Rb1 = (rot2_many(A2[:, 0]) @ A1[:, 1:, None])[..., 0]
        return np.concatenate([A1[:, :1] + A2[:, :1], A2[:, 1:] + Rb1], axis=1)

    def compose_jac_many(A2, A1):
        R2 = rot2_many(A2[:, 0])
        D2 = np.zeros((len(A2), 3, 3))
        D2[:, 0, 0] = 1.0
        D2[:, 1:, 0] = matvecs(J2 @ R2, A1[:, 1:])
        D2[:, 1:, 1:] = np.eye(2)
        D1 = np.zeros((len(A2), 3, 3))
        D1[:, 0, 0] = 1.0
        D1[:, 1:, 1:] = R2
        return D2, D1

    def inverse_many(A):
        return np.concatenate([-A[:, :1], (-rot2_many(-A[:, 0]) @ A[:, 1:, None])[..., 0]], 1)

    def inverse_jac_many(A):
        R = rot2_many(-A[:, 0])
        D = np.zeros((len(A), 3, 3))
        D[:, 0, 0] = -1.0
        D[:, 1:, 0] = matvecs(J2 @ R, A[:, 1:])
        D[:, 1:, 1:] = -R
        return D

    return GroupChart(3, box, compose_many, inverse_many, compose_jac_many, inverse_jac_many)


def make_se2_groupoid() -> tuple[GroupoidModel, CartanConnection]:
    group = se2_group()

    def act_many(A, M):
        return (rot2_many(A[:, 0]) @ M[..., None])[..., 0] + A[:, 1:]

    def act_jac_many(A, M):
        R = rot2_many(A[:, 0])
        Da = np.zeros((len(A), 2, 3))
        Da[:, :, 0] = matvecs(J2 @ R, M)
        Da[:, :, 1:] = np.eye(2)
        return Da, R

    base_box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    return make_action_groupoid(group, ActionChart(act_jac_many, act_many), base_box,
                                name="se2-action")


def so3_group() -> GroupChart:
    """SO(3) in the rotation-vector chart."""
    box = np.array([[-SO3_W_MAX, SO3_W_MAX]] * 3)
    return GroupChart(
        dim=3,
        box=box,
        compose_many=compose_so3_many,
        inverse_many=_negate,
        compose_jac_many=compose_so3_jac_many,
        inverse_jac_many=constant_jacobian(-np.eye(3)),
    )


def unstereo_many(X: np.ndarray) -> np.ndarray:
    """The point of the unit sphere over each row of X[k, 2] in the
    stereographic chart from the north pole; s is the row's dot product with
    itself, as x @ x takes it."""
    X = np.ascontiguousarray(X, dtype=float)
    s = (X[:, None, :] @ X[:, :, None])[:, 0, 0]
    return np.stack([2.0 * X[:, 0], 2.0 * X[:, 1], s - 1.0], axis=1) / (1.0 + s)[:, None]


def unstereo_jac_many(X: np.ndarray) -> np.ndarray:
    """The jacobian of unstereo_many at each row of X[k, 2], as J[k, 3, 2]."""
    X = np.ascontiguousarray(X, dtype=float)
    s = (X[:, None, :] @ X[:, :, None])[:, 0, 0]
    d = (1.0 + s)[:, None, None]
    num = np.stack([2.0 * X[:, 0], 2.0 * X[:, 1], s - 1.0], axis=1)
    dnum = np.zeros((len(X), 3, 2))
    dnum[:, 0, 0] = dnum[:, 1, 1] = 2.0
    dnum[:, 2] = 2.0 * X
    return dnum / d - (num[:, :, None] * (2.0 * X)[:, None, :]) / d**2


def stereo_jac_many(U: np.ndarray) -> np.ndarray:
    """The jacobian of the stereographic chart at each point U[k, 3] of the
    sphere, as J[k, 2, 3]."""
    w = 1.0 - U[:, 2]
    J = np.zeros((len(U), 2, 3))
    J[:, 0, 0] = J[:, 1, 1] = 1.0 / w
    J[:, :, 2] = U[:, :2] / (w**2)[:, None]
    return J


def make_so3_sphere_groupoid() -> tuple[GroupoidModel, CartanConnection]:
    """Rotations of the sphere acting on a stereographic chart."""
    group = so3_group()

    def act_many(W, X):
        U = (exp_so3_many(W) @ unstereo_many(X)[..., None])[..., 0]
        return U[:, :2] / (1.0 - U[:, 2])[:, None]

    def act_jac_many(W, X):
        R = exp_so3_many(W)
        RU = matvecs(R, unstereo_many(X))
        Ds = stereo_jac_many(RU)
        JL = jl_many(W)
        Dw = np.stack([matvecs(Ds, matvecs(hat_many(JL[:, :, kk]), RU)) for kk in range(3)],
                      axis=2)
        Dx = (Ds @ R) @ unstereo_jac_many(X)
        return Dw, Dx

    base_box = np.array([[-0.7, 0.7], [-0.7, 0.7]])
    action = ActionChart(act_jac_many, act_many)
    return make_action_groupoid(group, action, base_box, name="so3-sphere")
