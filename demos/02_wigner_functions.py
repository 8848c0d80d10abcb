#!/usr/bin/env python3
"""Wigner functions of vortex modes: closed form vs the Fourier integral.

The closed form depends on phase space only through Q0 and Q2; the numeric
engine knows nothing about that and integrates the field directly, which
makes it a genuine cross-check.
"""

import numpy as np

from vortexbell import (
    lg_numeric_plan,
    wigner_lg,
    wigner_transform,
)

print("=== Parity at the origin ===")
print("Pi(0) = (-1)^{n+m}, the displaced-parity fingerprint of each mode:")
for nm in [(0, 0), (1, 0), (1, 1), (2, 1), (5, 0)]:
    print(f"  mode {nm}: Pi(0) = {wigner_transform(nm, (0, 0, 0, 0)):+.1f}")

print("\n=== The rotation-invariant arguments ===")
print("Q0 = (X^2 + Y^2 + P_X^2 + P_Y^2)/4 and Q2 = (X P_Y - Y P_X)/2:")
for x, px, y, py in [(1.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0), (0.3, -0.2, 0.5, 0.1)]:
    pt = (x, px, y, py)
    q0 = 0.25 * (x * x + y * y + px * px + py * py)
    q2 = 0.5 * (x * py - y * px)
    print(f"  point {pt}: Q0 = {q0:.4f}, Q2 = {q2:+.4f}")

print("\n=== A slice of W_10 along the Bell-relevant plane ===")
print("W_10(x, 0; 0, py) on the diagonal py = x:")
for x in np.linspace(0.0, 1.5, 7):
    w = wigner_lg((1, 0), (x, 0.0, 0.0, x))
    print(f"  x = py = {x:.2f}:  W = {w:+.6f}")
print("negative at the core (odd parity), positive in the ring.")

print("\n=== Closed form vs Fourier-integral engine ===")
rng = np.random.default_rng(0)
for nm in [(1, 0), (2, 1), (5, 0)]:
    plan = lg_numeric_plan(nm)
    pts = tuple(rng.uniform(-2, 2, (20, 4)).T)
    worst = np.max(np.abs(plan(pts) - wigner_lg(nm, pts)))
    print(f"  mode {nm}: max |numeric - closed| over 20 random points = {worst:.2e}")
    print(f"            field-norm residual on the plan's grid = {plan.norm_residual:.2e}")

print("\n=== The bound |Pi| <= 1 ===")
pts = tuple(rng.uniform(-3, 3, (5000, 4)).T)
for nm in [(1, 0), (4, 2), (6, 3)]:
    peak = float(np.max(np.abs(wigner_transform(nm, pts))))
    print(f"  mode {nm}: max |Pi| over 5000 random points = {peak:.6f}")
