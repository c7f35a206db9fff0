"""Pair groupoid of a chart box, with the chart-parallelism connection.

Arrows are pairs (q, p) read as "p goes to q"; the source is the second slot.
The shipped connection assigns to (q, p) the jet of the translation bisection
m -> (q + (m - p), m), whose horizontal leaves are the chart translations.
"""

import numpy as np

from ..chartcalc import ChartMap
from ..connection import CartanConnection
from ..groupoid import GroupoidModel


def make_pair_groupoid(box: np.ndarray) -> tuple[GroupoidModel, CartanConnection]:
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    N = 2 * n
    I = np.eye(n)
    Z = np.zeros((n, n))

    src = ChartMap(N, n, lambda g: g[n:], jacobian=lambda g: np.hstack([Z, I]))
    tgt = ChartMap(N, n, lambda g: g[:n], jacobian=lambda g: np.hstack([I, Z]))
    unit = ChartMap(n, N, lambda m: np.concatenate([m, m]),
                    jacobian=lambda m: np.vstack([I, I]))

    def mul(g, h):
        return np.concatenate([g[:n], h[n:]])

    # every jacobian is constant: build each block matrix once
    keep_tgt = np.block([[I, Z], [Z, Z]])
    keep_src = np.block([[Z, Z], [Z, I]])
    swap = np.block([[Z, I], [I, Z]])
    retract_src_jacs = (keep_tgt, np.vstack([Z, I]))
    retract_tgt_jacs = (keep_src, np.vstack([I, Z]))

    def inv(g):
        return np.concatenate([g[n:], g[:n]])

    def retract_src(g, m):
        return np.concatenate([g[:n], m])

    def retract_tgt(g, m):
        return np.concatenate([m, g[n:]])

    model = GroupoidModel(
        name=f"pair-R{n}",
        n=n,
        N=N,
        src=src,
        tgt=tgt,
        unit=unit,
        mul=mul,
        inv=inv,
        retract_src=retract_src,
        retract_tgt=retract_tgt,
        domain_box=np.vstack([box, box]),
        base_box=box,
        arrow_with_source=lambda m, rng: np.concatenate(
            [rng.uniform(box[:, 0], box[:, 1]), m]),
        mul_jac=lambda g, h: (keep_tgt, keep_src),
        inv_jac=lambda g: swap,
        retract_src_jac=lambda g, m: retract_src_jacs,
        retract_tgt_jac=lambda g, m: retract_tgt_jacs,
        src_fiber_chart=lambda m0: _pair_fiber(box, n, m0),
    )

    mu_const = np.vstack([I, I])
    S = CartanConnection(model, lambda g: mu_const, name="chart-parallelism")
    return model, S


def _pair_fiber(box, n, m0):
    m0 = np.asarray(m0, dtype=float)
    emb = ChartMap(n, 2 * n, lambda q: np.concatenate([q, m0]),
                   jacobian=lambda q: np.vstack([np.eye(n), np.zeros((n, n))]))

    def project(coords):
        return np.asarray(coords, dtype=float)[:n]

    return emb, project
