"""Horizontal-jet connections and multiplicativity verification.

A connection assigns a jet to every arrow; it deserves the name only when the
assignment is a groupoid morphism, which we never assume: it is measured
against the oracle. A deliberately faulted connection shows the check has
teeth.
"""

import numpy as np

from cartanlab.connection import CartanConnection, check_multiplicative, check_unital
from cartanlab.groupoid import aligned_frame
from cartanlab.models import MODELS, make_model

rng = np.random.default_rng(3)
TOLERANCE = 1e-7  # the multiplicativity bar of the lab's experiments

print("=" * 72)
print("Multiplicativity of every shipped connection (50 oracle samples each)")
print("=" * 72)
for name in sorted(MODELS):
    model, S = make_model(name)
    error = check_multiplicative(S, seed=4, count=50)
    unital = check_unital(S, rng)
    print(f"  {name:18s} max error {error:.2e}   unital {unital:.2e}   "
          f"verified={error <= TOLERANCE}")

print()
print("=" * 72)
print("Fault injection: perturb the horizontal jets by a kernel section")
print("=" * 72)
model, S = make_model("translation-R2")
frame = aligned_frame(model, np.zeros(2))


def faulted(g):
    K = frame(model.src(g))
    C = 0.05 * np.array([[1.0 + g[2], 0.5 * g[3]], [0.2, 1.0 - g[2]]])
    return S.mu_at(g) + K @ C


bad = CartanConnection(model, faulted, name="faulted")
error = check_multiplicative(bad, seed=4, count=50)
print(f"  faulted connection: max error {error:.2e} "
      f"(fails the 1e-7 bar by ~{error / TOLERANCE:.0e}x)")
