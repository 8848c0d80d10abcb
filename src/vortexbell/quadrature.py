"""Second-moment tables of vortex beams and the Gauss-Legendre node sets of
the numeric Wigner engine.

The second moments of an LG mode are exact closed forms,

    <X^2> = <Y^2> = <P_X^2> = <P_Y^2> = (n + m + 1)/2,
    <X P_Y> = -<Y P_X> = (n - m)/2,

with every other entry zero, so <X P_Y - Y P_X> = l = n - m is the orbital
angular momentum per photon (Allen et al. 1992, PRA 45, 8185). The
independent route integrates the 4D Wigner function (``wigner_moments``).
A third route, Gauss-Hermite integrals of the field and its analytic
gradient, is a test oracle and lives with the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .modes import as_mode
from .specfun import _check_integer

__all__ = [
    "QuadratureConfig",
    "MomentTable",
    "gauss_nodes",
    "moments",
    "wigner_moments",
]

MAX_ORDER = 256


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre nodes per axis and the half-width they span; by default the numeric plan's."""

    order: int = 96
    half_width: float = 8.0

    def __post_init__(self):
        _check_integer(self.order, "order", 1, MAX_ORDER, f"in [1, {MAX_ORDER}]")
        if not 0.0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")


@dataclass(frozen=True)
class MomentTable:
    """Second moments of a beam over both transverse modes (scaled units)."""

    xx: float
    yy: float
    pxpx: float
    pypy: float
    xy: float
    pxpy: float
    xpy: float
    ypx: float
    xpx_sym: float
    ypy_sym: float


def gauss_nodes(config):
    """Gauss-Legendre nodes and weights for a bare integrand on [-half_width, half_width]."""
    if not isinstance(config, QuadratureConfig):
        raise TypeError("config must be a QuadratureConfig")
    nodes, weights = np.polynomial.legendre.leggauss(config.order)
    return nodes * config.half_width, weights * config.half_width


def moments(mode):
    """Exact second-moment table of an LG mode."""
    mode = as_mode(mode)
    diagonal = (mode.total + 1) / 2.0
    return MomentTable(
        xx=diagonal,
        yy=diagonal,
        pxpx=diagonal,
        pypy=diagonal,
        xy=0.0,
        pxpy=0.0,
        xpy=(mode.n - mode.m) / 2.0,
        ypx=(mode.m - mode.n) / 2.0,
        xpx_sym=0.0,
        ypy_sym=0.0,
    )


def wigner_moments(mode):
    """Second moments from the 4D Wigner function; the cross-check route.

    The exp(-4 Q0) factor matches the Hermite weight axis by axis, so a
    Gauss-Hermite rule per axis is exact from n + m + 2 points on; this one
    takes max(12, n + m + 3), at most 67 for n + m <= 64.
    """
    from .wigner import wigner_transform

    mode = as_mode(mode)
    nodes, weights = np.polynomial.hermite.hermgauss(max(12, mode.total + 3))
    weights = weights * np.exp(nodes * nodes)
    # u[i] is the rule's weight times the node to the power i, for each axis
    u = np.stack([weights, weights * nodes, weights * nodes * nodes])
    t = wigner_transform(mode, (nodes[:, None, None, None], nodes[:, None, None], nodes[:, None], nodes))
    for _ in range(4):  # contract the last node axis and put its power index first
        t = np.moveaxis(t @ u.T, -1, 0)
    t = t / math.pi**2  # t[i, j, k, l] is the integral of W X^i P_X^j Y^k P_Y^l
    return MomentTable(
        xx=t[2, 0, 0, 0],
        yy=t[0, 0, 2, 0],
        pxpx=t[0, 2, 0, 0],
        pypy=t[0, 0, 0, 2],
        xy=t[1, 0, 1, 0],
        pxpy=t[0, 1, 0, 1],
        xpy=t[1, 0, 0, 1],
        ypx=t[0, 1, 1, 0],
        xpx_sym=t[1, 1, 0, 0],
        ypy_sym=t[0, 0, 1, 1],
    )
