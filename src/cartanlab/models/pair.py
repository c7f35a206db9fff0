"""Pair groupoid of a chart box, with the chart-parallelism connection.

Arrows are pairs (q, p) read as "p goes to q"; the source is the second slot.
The shipped connection assigns to (q, p) the jet of the translation bisection
m -> (q + (m - p), m), whose horizontal leaves are the chart translations.
"""

import numpy as np

from ..chartcalc import ChartMap, read_only
from ..connection import CartanConnection
from ..groupoid import GroupoidModel, source_slot, target_slot


def make_pair_groupoid(box: np.ndarray) -> tuple[GroupoidModel, CartanConnection]:
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    N = 2 * n
    I = np.eye(n)
    Z = np.zeros((n, n))

    # every jacobian and the jet are constant: build each block matrix once,
    # read-only since every caller shares it
    unit_jac, keep_tgt, keep_src, swap, mu_const = map(read_only, (
        np.vstack([I, I]), np.block([[I, Z], [Z, Z]]), np.block([[Z, Z], [Z, I]]),
        np.block([[Z, I], [I, Z]]), np.vstack([I, I])))
    unit = ChartMap(n, N, lambda m: np.concatenate([m, m]), jacobian=lambda m: unit_jac,
                    eval_many=lambda M: np.concatenate([M, M], axis=1))

    def mul(g, h):
        return np.concatenate([g[:n], h[n:]])

    def inv(g):
        return np.concatenate([g[n:], g[:n]])

    domain_box = np.vstack([box, box])
    model = GroupoidModel(
        name=f"pair-R{n}",
        n=n,
        N=N,
        unit=unit,
        mul=mul,
        inv=inv,
        domain_box=domain_box,
        base_box=box,
        mul_jac=lambda g, h: (keep_tgt, keep_src),
        inv_jac=lambda g: swap,
        mul_many=lambda G, H: np.concatenate([G[:, :n], H[:, n:]], axis=1),
        inv_many=lambda G: np.concatenate([G[:, n:], G[:, :n]], axis=1),
        **source_slot(N, slice(n, N), domain_box),
        **target_slot(N, slice(0, n)),
    )

    S = CartanConnection(model, lambda g: mu_const, name="chart-parallelism")
    return model, S
