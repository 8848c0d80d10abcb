"""Quadrature correlation coefficients between the two transverse modes.

The rotated quadratures are X_theta = cos(theta) X + sin(theta) P_X on one
mode and Y_phi = cos(phi) Y + sin(phi) P_Y on the other; the normalized
cross-correlation

    C(theta, phi) = <X_theta Y_phi> / sqrt(<X_theta^2> <Y_phi^2>)

is what grows with orbital angular momentum. The exact LG moment table
(``quadrature.moments``) gives <X_theta Y_phi> = (n - m) sin(phi - theta)/2
and <X_theta^2> = <Y_phi^2> = (n + m + 1)/2 at every angle, so

    C = c sin(phi - theta),    c = (n - m)/(n + m + 1),

which is evaluated as c (cos theta sin phi - sin theta cos phi): the sines
and cosines then run on the angles themselves, and a scan over a theta
column and a phi row costs two products and a difference per cell, each
row written once, in place. The angles may be numpy arrays that broadcast
against each other. C_max = c is reported signed, on the phi - theta = +pi/2
branch, so exchanging the mode indices flips its sign.
"""

import numpy as np

from .modes import as_mode

__all__ = [
    "quadrature_correlation",
    "max_correlation",
    "correlation_scan",
]


def max_correlation(mode):
    """Signed maximum correlation <X P_Y> / sqrt(<X^2><P_Y^2>) = (n - m)/(n + m + 1).

    1/2 for the lowest vortex mode, zero when n = m, approaching +/-1 with
    growing |n - m|.
    """
    mode = as_mode(mode)
    return (mode.n - mode.m) / (mode.n + mode.m + 1)


def quadrature_correlation(mode, angles):
    """C(theta, phi) for an LG mode and angles (theta, phi), which may be arrays.

    |C| <= 1 and C depends only on phi - theta; a non-finite angle raises
    ValueError.
    """
    theta, phi = angles
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise ValueError("quadrature angles must be finite")
    return max_correlation(mode) * (np.cos(theta) * np.sin(phi) - np.sin(theta) * np.cos(phi))


def correlation_scan(mode, theta_grid, phi_grid):
    """Rows (theta, phi, C) in row-major order over the two angle grids."""
    theta_grid = np.asarray(theta_grid, dtype=float).ravel()
    phi_grid = np.asarray(phi_grid, dtype=float).ravel()
    if theta_grid.size == 0 or phi_grid.size == 0:
        raise ValueError("angle grids must be nonempty")
    # theta as a column and phi as a row: cos and sin run on the grids, no meshgrid copies
    rows = np.empty((theta_grid.size, phi_grid.size, 3))
    rows[..., 0], rows[..., 1] = theta_grid[:, None], phi_grid
    rows[..., 2] = quadrature_correlation(mode, (theta_grid[:, None], phi_grid[None, :]))
    return rows.reshape(-1, 3)
