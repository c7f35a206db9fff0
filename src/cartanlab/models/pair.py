"""Pair groupoid of a chart box, with the chart-parallelism connection.

Arrows are pairs (q, p) read as "p goes to q"; the source is the second slot.
The shipped connection assigns to (q, p) the jet of the translation bisection
m -> (q + (m - p), m), whose horizontal leaves are the chart translations.
"""

import numpy as np

from ..chartcalc import ChartMap, batch_of_one, constant_jacobian
from ..connection import CartanConnection
from ..groupoid import GroupoidModel, source_slot, target_slot


def make_pair_groupoid(box: np.ndarray) -> tuple[GroupoidModel, CartanConnection]:
    box = np.asarray(box, dtype=float)
    n = box.shape[0]
    N = 2 * n
    I = np.eye(n)
    Z = np.zeros((n, n))

    # every jacobian is constant: each block matrix is built once, read-only
    # since every caller shares it, and stacked as a view. T unit is also the
    # jet of every translation bisection
    unit_jac, keep_tgt, keep_src, swap = map(constant_jacobian, (
        np.vstack([I, I]), np.block([[I, Z], [Z, Z]]), np.block([[Z, Z], [Z, I]]),
        np.block([[Z, I], [I, Z]])))
    def unit_many(M):
        return np.concatenate([M, M], axis=1)

    unit = ChartMap(n, N, batch_of_one(unit_many), jacobian=unit_jac, eval_many=unit_many)

    domain_box = np.vstack([box, box])
    model = GroupoidModel(
        name=f"pair-R{n}",
        n=n,
        N=N,
        unit=unit,
        domain_box=domain_box,
        base_box=box,
        mul_jac_many=lambda G, H: (keep_tgt(G), keep_src(G)),
        inv_jac_many=swap,
        mul_many=lambda G, H: np.concatenate([G[:, :n], H[:, n:]], axis=1),
        inv_many=lambda G: np.concatenate([G[:, n:], G[:, :n]], axis=1),
        **source_slot(N, slice(n, N), domain_box),
        **target_slot(N, slice(0, n)),
    )

    S = CartanConnection(model, batch_of_one(unit_jac), name="chart-parallelism")
    return model, S
