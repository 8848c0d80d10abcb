"""Quadrature correlation coefficients between the two transverse modes.

The rotated quadratures are X_theta = cos(theta) X + sin(theta) P_X on one
mode and Y_phi = cos(phi) Y + sin(phi) P_Y on the other; the normalized
cross-correlation

    C(theta, phi) = <X_theta Y_phi> / sqrt(<X_theta^2> <Y_phi^2>)

is what grows with orbital angular momentum. All brackets come from the
exact LG moment table, which gives C = (n - m) sin(phi - theta)/(n + m + 1).
The angles may be numpy arrays that broadcast against each other, so a scan
is one array expression. C_max is reported signed, on the
phi - theta = +pi/2 branch, so exchanging the mode indices flips its sign.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import moments

__all__ = [
    "QuadratureAngles",
    "correlation_from_moments",
    "quadrature_correlation",
    "max_correlation",
    "correlation_scan",
]


@dataclass(frozen=True)
class QuadratureAngles:
    """Quadrature phases (radians): theta for the X side, phi for the Y side.

    Either may be an array; every entry must be finite.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (np.isfinite(self.theta).all() and np.isfinite(self.phi).all()):
            raise ValueError("quadrature angles must be finite")


def correlation_from_moments(table, angles):
    """C(theta, phi) assembled from a second-moment table, broadcast over the angles."""
    if not isinstance(angles, QuadratureAngles):
        angles = QuadratureAngles(*angles)
    ct, st = np.cos(angles.theta), np.sin(angles.theta)
    cp, sp = np.cos(angles.phi), np.sin(angles.phi)
    cross = ct * cp * table.xy + ct * sp * table.xpy + st * cp * table.ypx + st * sp * table.pxpy
    var_a = ct * ct * table.xx + st * st * table.pxpx + 2.0 * ct * st * table.xpx_sym
    var_b = cp * cp * table.yy + sp * sp * table.pypy + 2.0 * cp * sp * table.ypy_sym
    return cross / np.sqrt(var_a * var_b)


def quadrature_correlation(mode, angles):
    """C(theta, phi) for an LG mode; |C| <= 1 and depends only on phi - theta."""
    return correlation_from_moments(moments(mode), angles)


def max_correlation(mode):
    """Signed maximum correlation <X P_Y> / sqrt(<X^2><P_Y^2>).

    Equals (n - m)/(n + m + 1) for LG modes: 1/2 for the lowest vortex mode,
    zero when n = m, approaching +/-1 with growing |n - m|.
    """
    table = moments(mode)
    return table.xpy / math.sqrt(table.xx * table.pypy)


def correlation_scan(mode, theta_grid, phi_grid):
    """Rows (theta, phi, C) in row-major order over the two angle grids."""
    theta_grid = np.asarray(theta_grid, dtype=float).ravel()
    phi_grid = np.asarray(phi_grid, dtype=float).ravel()
    if theta_grid.size == 0 or phi_grid.size == 0:
        raise ValueError("angle grids must be nonempty")
    # theta as a column and phi as a row: no meshgrid copies, and cos and sin run on the grids
    c = correlation_from_moments(moments(mode), (theta_grid[:, None], phi_grid[None, :]))
    return np.column_stack((np.repeat(theta_grid, phi_grid.size),
                            np.tile(phi_grid, theta_grid.size), c.ravel()))
