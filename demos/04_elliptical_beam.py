#!/usr/bin/env python3
"""The squeezed elliptical Gaussian beam as a Bell-violation booster.

The beam (1/sqrt(pi)) exp[-(X^2+Y^2) cosh(2t)/2 + XY sinh(2t)] is a plain
Gaussian at t = 0 and an ever-thinner correlated ridge as t grows. Its
Wigner function is positive everywhere, yet the general-settings Bell sum
climbs with t, saturating near 2.3245. That passes the lowest vortex mode (1,0),
2.176 restricted and 2.239 general, but not the higher ones: general (2,0)
reaches 2.3487 and general (30,0) 2.5446, and restricted (30,0) 2.3323.
"""

import math

import numpy as np

from vortexbell import (
    EllipticalParams,
    elliptical_field,
    elliptical_profile,
    wigner_elliptical,
)

print("=== The field stays unit-normalized for every squeeze ===")
nodes, w = np.polynomial.legendre.leggauss(200)
for t in (0.0, 0.5, 1.0):
    un, vn = nodes * 7 * math.exp(t), nodes * 7 * math.exp(-t)
    U, V = np.meshgrid(un, vn, indexing="ij")
    W = np.outer(w * 7 * math.exp(t), w * 7 * math.exp(-t))
    f = elliptical_field((t, +1), (U + V) / math.sqrt(2), (U - V) / math.sqrt(2))
    print(f"  t = {t:.1f}:  integral |field|^2 = {np.sum(W * f * f):.10f}")

print("\n=== Positive Wigner function, growing cross-correlations ===")
params = EllipticalParams(0.8, +1)
for pt in [(0, 0, 0, 0), (0.5, 0.0, 0.5, 0.0), (0.5, 0.3, -0.5, 0.3)]:
    print(f"  W({pt}) = {wigner_elliptical(params, pt):.6f}")

print("\n=== Bell profile over the squeeze parameter ===")
print("general settings; |B| = 2 exactly at t = 0:")
profile = elliptical_profile(np.linspace(0.0, 2.0, 11))
for t, value in profile.rows:
    bar = "#" * int((value - 2.0) * 120)
    print(f"  t = {t:.1f}:  |B|max = {value:.4f}  {bar}")
print(
    f"\nsupremum over the scan: {profile.sup_value:.4f} at t = {profile.sup_t:.1f}"
)
limit = 3 * 3 ** (-1 / 8) - 3 ** (-9 / 8)
print(f"analytic t -> infinity limit 3*3^(-1/8) - 3^(-9/8) = {limit:.4f}")
