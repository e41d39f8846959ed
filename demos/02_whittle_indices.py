"""The whittle index of a single source, and what it means.

Isolate one source and charge a price C every time it transmits. For small C
you transmit often; for huge C you let the age run. The index W(h) is the
price at which transmitting and waiting become equally attractive at age h.
Because W is non-decreasing in the age, charging more shrinks the set of ages
worth transmitting from, one threshold at a time: that is indexability, and
it is what makes the index a meaningful priority.
"""

import numpy as np

from aoisched import cost
from aoisched.decoupled import (
    DecoupledProblem,
    indexability_sweep,
    optimal_threshold,
    whittle_index,
)

f = cost.power(1, 2)

print("Index of the x^2 source, reliable vs lossy channel")
print(f"{'age':>4} {'W (p=1)':>10} {'W (p=0.7)':>10} {'W (p=0.4)':>10}")
for h in range(1, 9):
    print(
        f"{h:>4} {whittle_index(f, 1.0, h):>10.3f} "
        f"{whittle_index(f, 0.7, h):>10.3f} {whittle_index(f, 0.4, h):>10.3f}"
    )
print("  (losses discount the index: a transmission only sometimes pays off)")

print()
print("Inverting the index gives optimal thresholds")
for C in (0.0, 2.0, 13.0, 50.0, 500.0):
    pol = optimal_threshold(DecoupledProblem(f, 1.0, C))
    print(f"  charge {C:>6}: activate from age {pol.threshold}")

print()
print("Indexability: thresholds never move down as the charge grows")
charges = np.round(np.geomspace(0.5, 2000, 12), 3)
pols = indexability_sweep(f, 0.7, charges)
print("  charges:   ", " ".join(f"{c:>8}" for c in charges))
print("  thresholds:", " ".join(f"{str(p.threshold):>8}" for p in pols))

print()
print("For weighted linear costs the index has a closed form: w p h (h + (2-p)/p) / 2")
w, p = 2.0, 0.5
for h in (1, 2, 3):
    print(
        f"  h={h}: computed {whittle_index(cost.linear(w), p, h):.6f}"
        f"  closed form {w * p * h * (h + (2 - p) / p) / 2:.6f}"
    )
