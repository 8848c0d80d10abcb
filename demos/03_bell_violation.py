#!/usr/bin/env python3
"""Bell-CHSH violation from a classical vortex beam.

Builds the four-term Bell sum from the Wigner transform, scans it, and
maximizes it. |B| > 2 rules out any local model of the correlations between
the (X, P_X) and (Y, P_Y) degrees of freedom; a plain Gaussian never gets
there, a vortex beam does, and higher orbital angular momentum gets further.
"""

import numpy as np

from vortexbell import (
    GENERAL,
    RESTRICTED,
    bell_closed_form_10,
    bell_scan,
    bell_sum,
    lg_transform_evaluator,
    maximize_bell,
)

print("=== Restricted settings: A varies X, B varies P_Y ===")
print("Diagonal scan x = py for the lowest vortex mode:")
rows = bell_scan((1, 0), (0.0, 1.2), 13)
for x, py, abs_b in rows:
    marker = "  <-- violation" if abs_b > 2.0 else ""
    print(f"  x = py = {x:.2f}:  |B| = {abs_b:.4f}{marker}")

result = maximize_bell(lg_transform_evaluator((1, 0)), RESTRICTED)
print(
    f"\nmaximum: |B| = {result.best_value:.4f} at "
    f"(x, py) = ({result.argmax[0]:+.4f}, {result.argmax[1]:+.4f}) "
    f"[{result.evaluations} evaluations]"
)
print(f"closed-form check at (0.45, 0.45): B = {bell_closed_form_10(0.45, 0.45):+.4f}")

print("\n=== The ground Gaussian never violates ===")
ground = maximize_bell(lg_transform_evaluator((0, 0)), RESTRICTED)
print(f"  mode (0,0): max |B| = {ground.best_value:.6f}  (local model exists)")

print("\n=== General eight-parameter settings buy a little more ===")
general = maximize_bell(lg_transform_evaluator((1, 0)), GENERAL)
print(f"  mode (1,0): max |B| = {general.best_value:.4f}")
print("  at settings (X1, PX1, X2, PX2, Y1, PY1, Y2, PY2) =")
print("   ", np.round(general.argmax, 3))
known_good = (-0.07, 0.05, 0.4, -0.26, -0.05, -0.07, 0.26, 0.4)
value = bell_sum(lg_transform_evaluator((1, 0)), GENERAL, known_good)
print(f"  the sum at a reference argmax {known_good}: B = {value:+.4f}")

print("\n=== Violation grows with orbital angular momentum ===")
print("   n   |B|max    at x = py")
for n in (1, 2, 5, 10, 30):
    res = maximize_bell(lg_transform_evaluator((n, 0)), RESTRICTED)
    print(f"  {n:2d}   {res.best_value:.4f}   {abs(res.argmax[0]):.4f}")
print("the peaks rise and migrate toward smaller settings, like the")
print("narrowing rings of the mode itself.")
