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
    """Gauss-Legendre nodes per axis and the box half-width they span."""

    order: int = 64
    half_width: float = 8.0

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)) or isinstance(self.order, bool):
            raise TypeError(f"order must be an integer, got {self.order!r}")
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in [1, {MAX_ORDER}], got {self.order}")
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


def wigner_moments(mode, order=None):
    """Second moments from the 4D Wigner function; the cross-check route.

    The exp(-4 Q0) factor matches the Hermite weight axis by axis, so the
    rule is exact once the order clears the polynomial degree.
    """
    from .wigner import wigner_lg

    mode = as_mode(mode)
    if order is None:
        order = max(12, mode.total + 3)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    weights = weights * np.exp(nodes * nodes)
    x, px, y, py = np.meshgrid(nodes, nodes, nodes, nodes, indexing="ij")
    w4 = (
        weights[:, None, None, None]
        * weights[None, :, None, None]
        * weights[None, None, :, None]
        * weights[None, None, None, :]
    )
    dens = w4 * wigner_lg(mode, (x, px, y, py))
    return MomentTable(
        xx=np.sum(dens * x * x),
        yy=np.sum(dens * y * y),
        pxpx=np.sum(dens * px * px),
        pypy=np.sum(dens * py * py),
        xy=np.sum(dens * x * y),
        pxpy=np.sum(dens * px * py),
        xpy=np.sum(dens * x * py),
        ypx=np.sum(dens * y * px),
        xpx_sym=np.sum(dens * x * px),
        ypy_sym=np.sum(dens * y * py),
    )
