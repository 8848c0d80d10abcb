"""Wigner functions of vortex beams: closed form, Fourier-integral oracle,
and the squeezed elliptical Gaussian beam.

The closed form for an LG mode is

    W_nm = (-1)^{n+m} pi^{-2} L_n[4(Q0+Q2)] L_m[4(Q0-Q2)] exp(-4 Q0),

with Q0 = (X^2+Y^2+P_X^2+P_Y^2)/4 and Q2 = (X P_Y - Y P_X)/2, normalized to
unit integral over the four phase-space variables. The transform
Pi = pi^2 W is the parity-expectation analog and satisfies |Pi| <= 1.

Both closed forms are Pi = G(q) of quadratic forms q_k = z^T A_k z in
z = (X, P_X, Y, P_Y), and share one evaluator core with one array path, one
error policy and one underflow mask. A point of four floats is evaluated as
0-d arrays and gives a float with the same bits as the same point inside an
array; it costs about as much as a small batch, so loops over points should
batch them. Pi on more than ``_BLOCK`` points is filled in C-order blocks of
the broadcast coordinates (``specfun._blocked``), so its temporaries stay in
cache, with the bits of smaller calls. A non-finite coordinate is rejected;
a positional order 2 adds the forms A_k and the exact partials of G in q,
for a caller's chain rule. The LG Pi is the plain product at every point,
and 0 where exp(-4 Q0) underflows (|Pi| < 1e-200 there).

The numeric engine evaluates the symmetric-point Fourier integral

    W(R, P) = pi^{-2} Int d^2 xi  e^{2 i P.xi} E*(R + xi) E(R - xi)

on a fixed Gauss-Legendre tensor grid: the phase splits into one weighted
phase vector per axis, and E(R - xi) is E(R + xi) on reversed node axes
(the nodes are exactly antisymmetric), one field call per distinct (X, Y). It
is an independent cross-check of the closed forms and of user-supplied fields.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .modes import as_mode, lg_amplitude
from .quadrature import QuadratureConfig, gauss_nodes
from .specfun import _as_finite, _blocked, _laguerre, _shown

__all__ = [
    "EllipticalParams",
    "wigner_lg",
    "wigner_transform",
    "lg_transform_evaluator",
    "NumericWignerPlan",
    "lg_numeric_plan",
    "elliptical_field",
    "wigner_elliptical",
    "elliptical_transform",
    "elliptical_transform_evaluator",
]

_PI_SQ = math.pi**2

MAX_SQUEEZE = 5.0

_NORM_TOL = 1e-3


@dataclass(frozen=True)
class EllipticalParams:
    """Squeeze parameter t and the +/- branch of the elliptical Gaussian beam."""

    t: float
    sign: int = +1

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"squeeze parameter must be finite, got {self.t}")
        if abs(self.t) > MAX_SQUEEZE:
            raise ValueError(f"|t|={abs(self.t)} exceeds the supported range {MAX_SQUEEZE}")
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


def _coords(point):
    """The 4 coordinates as broadcast float arrays, 0-d for a point of floats; else ValueError."""
    if type(point) is np.ndarray and point.dtype == np.float64 and point.ndim > 1:
        coords = tuple(point)  # rows of one array, already of one shape
    else:
        coords = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in point))
    if len(coords) != 4:
        raise ValueError(f"a phase-space point has 4 coordinates, got {len(coords)}")
    return coords


def _masked(beam, coords, order):
    """``beam`` at the coordinates, Pi masked to 0 where the envelope is 0.

    Returns (Pi, live, G_k, G_kl), live being the envelope > 0 mask or None
    where no entry underflowed; a non-finite coordinate raises ValueError.
    """
    value, envelope, first, second = beam(*coords, order)
    live = envelope > 0.0
    # masking only on underflow leaves the result the product itself, no copy
    if live.all():
        return value, None, first, second
    if not all(np.isfinite(c).all() for c in coords):
        raise ValueError("phase-space point must be finite")
    return np.where(live, value, 0.0), live, first, second


def _evaluate(forms, beam, point, order=0):
    """Pi = G(q) at a point or coordinate arrays, with q_k = z^T A_k z for the forms A_k.

    ``beam(x, px, y, py, order)`` gives Pi, an envelope that is 0 where Pi
    underflowed and not positive at a non-finite point, and at order 2 the
    partials G_k and the rows of G_kl, each a sequence over the forms. Order 2
    returns (Pi, forms, G_q, G_qq), the partials on trailing axes of shape
    (K,) and (K, K) and 0 where the envelope is 0. Order 0 runs through
    ``_blocked``, so beyond ``_BLOCK`` points in blocks with the same bits.
    """
    if order not in (0, 2) or isinstance(order, bool):
        raise ValueError(f"derivative order must be 0 or 2, got {_shown(order)}")
    coords = _coords(point)
    # a huge point overflows to inf quietly, and inf * 0 is masked where the envelope is 0
    with np.errstate(over="ignore", invalid="ignore"):
        if not order:
            return _blocked(lambda *block: _masked(beam, block, 0)[0], coords)[()]
        value, live, first, second = _masked(beam, coords, order)
        g_q, g_qq = np.array(first), np.array(second)
        g_q = g_q.transpose((*range(1, g_q.ndim), 0))
        g_qq = g_qq.transpose((*range(2, g_qq.ndim), 0, 1))
        if live is not None:
            g_q = np.where(live[..., None], g_q, 0.0)
            g_qq = np.where(live[..., None, None], g_qq, 0.0)
        return value[()], forms, g_q, g_qq


def _damped_derivatives(p, u):
    """(L_p(u), D L_p(u), D^2 L_p(u)), D = d/du - 1/2.

    D L_p and D^2 L_p are the derivatives of L_p(u) e^{-u/2} over e^{-u/2},
    from L_p' = -L_{p-1}^(1) and L_p'' = L_{p-2}^(2), three ``_laguerre``
    factors; one of degree 0 is the float 1, and one of negative degree 0.
    """
    lp = _laguerre(p, 0, u)
    d1 = -_laguerre(p - 1, 1, u) if p > 1 else -float(p)
    d2 = _laguerre(p - 2, 2, u) if p > 2 else float(p == 2)
    return lp, d1 - 0.5 * lp, d2 - d1 + 0.25 * lp


# the forms of the LG beam: u+- = 4Q0 +- 4Q2 = z^T (I +- J) z, with 4 Q2 = z^T J z
_J = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0],
               [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
_LG_FORMS = np.stack([np.eye(4) + _J, np.eye(4) - _J])


def lg_transform_evaluator(mode):
    """Bind a mode, validated once, into a Pi evaluator for a point or coordinate arrays.

    ``pi(point)`` is Pi and ``pi(point, 2)`` is (Pi, forms, G_q, G_qq): the
    forms of u+- = 4Q0 +- 4Q2 as a (2, 4, 4) array, and the partials of
    Pi = G(u+, u-) on trailing axes of shape (2,) and (2, 2); Pi itself is
    bit-identical to ``pi(point)``.
    """
    mode = as_mode(mode)
    n, m = mode.n, mode.m
    sign = -1.0 if (n + m) % 2 else 1.0

    def beam(x, px, y, py, order):
        fourq0 = x * x + y * y + px * px + py * py
        fourq2 = 2.0 * (x * py - y * px)
        up = fourq0 + fourq2
        um = fourq0 - fourq2
        # damp is NaN for a NaN point, and 0 for an infinite one or on underflow
        damp = np.exp(-fourq0)
        if not order:  # keeps no polynomial array alive past the product, as large grids need
            out = sign * _laguerre(n, 0, up) if n else sign  # L_0 = 1, so no factor
            if m:
                out = out * _laguerre(m, 0, um)
            return out * damp, damp, None, None
        # Pi = weight L_n(u+) L_m(u-) with weight = sign e^{-(u+ + u-)/2}
        ln, a1, a2 = _damped_derivatives(n, up)
        lm, b1, b2 = _damped_derivatives(m, um)
        weight = sign * damp
        wa1, wln = weight * a1, weight * ln
        cross = wa1 * b1
        return (sign * ln * lm * damp, damp, (wa1 * lm, wln * b1),
                ((weight * a2 * lm, cross), (cross, wln * b2)))

    return partial(_evaluate, _LG_FORMS, beam)


def wigner_transform(mode, point):
    """Pi_nm(point) = pi^2 W_nm(point); bounded by 1 in magnitude."""
    return lg_transform_evaluator(mode)(point)


def wigner_lg(mode, point):
    """Closed-form Wigner function of the LG mode at a phase-space point."""
    return wigner_transform(mode, point) / _PI_SQ


class NumericWignerPlan:
    """Fourier-integral Wigner evaluator over a precomputed Gauss-Legendre grid.

    A call takes a point of four floats, giving a float, or coordinate arrays,
    giving W in their broadcast shape. The field product E*(R + xi) E(R - xi)
    is evaluated once per distinct (X, Y) and shared by the momenta there;
    each point keeps the bits of a one-point call. The plan is immutable, so
    calls may run concurrently. A field whose L2 norm on the grid is NaN or off
    1 by more than ``_NORM_TOL`` = 1e-3 is rejected (see ``norm_residual``).
    """

    def __init__(self, field, config=None):
        config = QuadratureConfig() if config is None else config
        nodes, weights = gauss_nodes(config)
        self._field, self.config, self._nodes, self._weights = field, config, nodes, weights
        self._xi_x, self._xi_y = np.meshgrid(nodes, nodes, indexing="ij")
        amp = np.asarray(field(self._xi_x, self._xi_y))
        norm = float(np.sum(np.outer(weights, weights) * np.abs(amp) ** 2))
        self.norm_residual = abs(norm - 1.0)
        if not self.norm_residual <= _NORM_TOL:
            raise ValueError(
                f"field norm on the quadrature grid is {norm:.6g}, off by "
                f"{self.norm_residual:.3g} (> {_NORM_TOL:g}): either the field is not "
                "unit-normalized or the quadrature order/half-width is insufficient"
            )

    def __call__(self, point):
        """W at a point or coordinate arrays; a non-finite point or integral raises ValueError."""
        coords = _coords(point)
        if not np.isfinite(coords).all():
            raise ValueError("phase-space point must be finite")
        rows = list(zip(*(c.ravel().tolist() for c in coords)))
        momenta = {}  # by position; np.unique(axis=0) made a one-point call a third slower
        for i, (x, px, y, py) in enumerate(rows):
            momenta.setdefault((x, y), []).append((i, px, py))
        total = np.empty(len(rows))
        with np.errstate(over="ignore", invalid="ignore"):
            for (x, y), at_position in momenta.items():
                forward = np.asarray(self._field(x + self._xi_x, y + self._xi_y))
                # E(R - xi) is E(R + xi) on both node axes reversed (see the module docstring)
                product = np.conj(forward) * forward[::-1, ::-1]
                for i, px, py in at_position:
                    # e^{2i P.xi} splits over the tensor grid: one weighted phase per axis
                    phase_x, phase_y = (self._weights * np.exp(2j * (p * self._nodes))
                                        for p in (px, py))
                    total[i] = (phase_x @ product @ phase_y).real
        if not np.isfinite(total).all():
            raise ValueError(f"non-finite Wigner integral at {rows[np.isfinite(total).argmin()]}")
        return (total / _PI_SQ).reshape(coords[0].shape)[()]


def lg_numeric_plan(mode, order=None):
    """Numeric-Wigner plan for an LG mode, box sized to the mode's extent.

    The default order max(96, 3 (n + m) + 56) resolves W, not just the norm:
    for n + m <= 64 it agreed with the closed form to 1e-12 where sampled."""
    mode = as_mode(mode)
    order = max(96, 3 * mode.total + 56) if order is None else order
    config = QuadratureConfig(order=order, half_width=4.0 + math.sqrt(2.0 * mode.total + 1.0))
    return NumericWignerPlan(lambda X, Y: lg_amplitude(mode, X, Y), config)


def elliptical_field(params, X, Y):
    """Squeezed Gaussian beam amplitude; unit L2 norm for every t.

    The exponent -(X^2+Y^2) cosh(2t)/2 +- XY sinh(2t) is summed as
    -(e^{-2t} (X +- Y)^2 + e^{2t} (X -+ Y)^2)/4, two terms that are never
    negative, so a huge finite point gives 0 rather than inf - inf. A
    coordinate that is not finite raises ValueError.
    """
    if not isinstance(params, EllipticalParams):
        params = EllipticalParams(*params)
    X, Y = _as_finite(X), _as_finite(Y)
    with np.errstate(over="ignore"):
        plus, minus = X + params.sign * Y, X - params.sign * Y
        arg = -0.25 * (math.exp(-2.0 * params.t) * (plus * plus)
                       + math.exp(2.0 * params.t) * (minus * minus))
        return np.exp(arg) / math.sqrt(math.pi)


def elliptical_transform(params, point):
    """Pi of the elliptical beam: a positive Gaussian bounded by 1."""
    return elliptical_transform_evaluator(params)(point)


def wigner_elliptical(params, point):
    """Closed-form (Gaussian) Wigner function of the elliptical beam."""
    return elliptical_transform(params, point) / _PI_SQ


def elliptical_transform_evaluator(params):
    """Bind elliptical parameters into a Pi evaluator for a point or coordinate arrays.

    Pi = exp(z^T K z) for z = (X, P_X, Y, P_Y), one form K, so
    ``pi(point, 2)`` is (Pi, K as a (1, 4, 4) array, Pi on a trailing axis
    (1,), Pi on trailing axes (1, 1)), as G(q) = e^q is its own derivative.
    """
    if not isinstance(params, EllipticalParams):
        params = EllipticalParams(*params)
    c2t = math.cosh(2.0 * params.t)
    s2t = float(params.sign) * math.sinh(2.0 * params.t)
    kernel = np.array([[-c2t, 0.0, s2t, 0.0], [0.0, -c2t, 0.0, -s2t],
                       [s2t, 0.0, -c2t, 0.0], [0.0, -s2t, 0.0, -c2t]])

    def beam(x, px, y, py, order):
        arg = -(x * x + y * y + px * px + py * py) * c2t + 2.0 * s2t * (x * y - px * py)
        # 0 or NaN at a non-finite point, and NaN where an overflowing cross term meets -inf
        value = np.exp(arg)
        return value, value, (value,), ((value,),)  # G(q) = e^q, so G' = G'' = Pi

    return partial(_evaluate, kernel[None], beam)
