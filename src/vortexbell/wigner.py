"""Wigner functions of vortex beams: closed form, Fourier-integral oracle,
and the squeezed elliptical Gaussian beam.

The closed form for an LG mode is

    W_nm = (-1)^{n+m} pi^{-2} L_n[4(Q0+Q2)] L_m[4(Q0-Q2)] exp(-4 Q0),

with Q0 = (X^2+Y^2+P_X^2+P_Y^2)/4 and Q2 = (X P_Y - Y P_X)/2, normalized to
unit integral over the four phase-space variables. The transform
Pi = pi^2 W is the parity-expectation analog and satisfies |Pi| <= 1.

Both closed forms are Pi = G(q) of quadratic forms q_k = z^T A_k z in
z = (X, P_X, Y, P_Y), and share one evaluator core with one array path, one
error policy, one underflow mask and one chain rule. A point of four floats
is evaluated as 0-d arrays and gives a float with the same bits as the same
point inside an array; it costs about as much as a small batch, so loops
over points should batch them. A non-finite coordinate is rejected; a
positional order 2 adds the exact gradient and Hessian over z. The LG Pi is
the plain product at every point, and 0 where exp(-4 Q0) underflows
(|Pi| < 1e-200 there).

The numeric engine evaluates the symmetric-point Fourier integral

    W(R, P) = pi^{-2} Int d^2 xi  e^{2 i P.xi} E*(R + xi) E(R - xi)

on a fixed Gauss-Legendre node set; it exists purely as an independent
cross-check of the closed forms and of user-supplied fields.
"""

import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .modes import as_mode, lg_amplitude
from .quadrature import QuadratureConfig, gauss_nodes
from .specfun import _laguerre

__all__ = [
    "WignerArgs",
    "EllipticalParams",
    "wigner_args",
    "wigner_lg",
    "wigner_transform",
    "lg_transform_evaluator",
    "NumericWignerPlan",
    "wigner_numeric",
    "lg_numeric_plan",
    "elliptical_field",
    "wigner_elliptical",
    "elliptical_transform",
    "elliptical_transform_evaluator",
]

_PI_SQ = math.pi**2

MAX_SQUEEZE = 5.0


class WignerArgs(NamedTuple):
    """The rotation-invariant arguments (Q0, Q2) of the closed-form Wigner function."""

    q0: float
    q2: float


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


def wigner_args(point):
    """(Q0, Q2) for a phase-space point; components may be arrays."""
    x, px, y, py = point
    q0 = 0.25 * (x * x + y * y + px * px + py * py)
    q2 = 0.5 * (x * py - y * px)
    return WignerArgs(q0, q2)


def _coords(point):
    """The four coordinates as broadcast float arrays, 0-d for a point of floats."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in point))


def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


def _evaluate(forms, beam, point, order=0):
    """Pi = G(q) at a point or coordinate arrays, with q_k = z^T A_k z for the forms A_k.

    ``beam(x, px, y, py, order)`` gives Pi, an envelope that is 0 where Pi
    underflowed and not positive at a non-finite point, and at order 2 the
    partials G_k and the G_kl for k <= l in ``combinations_with_replacement``
    order. Pi, its gradient sum_k G_k grad q_k and its Hessian
    sum_kl G_kl grad q_k grad q_l^T + sum_k 2 G_k A_k, with grad q_k = 2 A_k z,
    are 0 where the envelope is 0.
    """
    if order not in (0, 2) or isinstance(order, bool):
        raise ValueError(f"derivative order must be 0 or 2, got {order!r}")
    coords = _coords(point)
    # a huge point overflows to inf quietly, and inf * 0 is masked where the envelope is 0
    with np.errstate(over="ignore", invalid="ignore"):
        value, envelope, first, second = beam(*coords, order)
        live = envelope > 0.0
        # masking only on underflow leaves a large grid's result the product itself, no copy
        underflow = not np.all(live)
        if underflow:
            if not all(np.all(np.isfinite(c)) for c in coords):
                raise ValueError("phase-space point must be finite")
            value = np.where(live, value, 0.0)
        if not order:
            return value[()]
        z = np.stack(coords, axis=-1)
        slopes = [2.0 * (z @ a) for a in forms]  # grad q_k
        grad = reduce(operator.add, [g[..., None] * s for g, s in zip(first, slopes)])
        terms = []  # G_kl = G_lk: each pair k < l is one term over both outer products
        for g, (k, l) in zip(second, combinations_with_replacement(range(len(forms)), 2)):
            sk, sl = slopes[k], slopes[l]
            outer = _outer(sk, sl) + _outer(sl, sk) if k < l else _outer(sk, sk)
            terms.append(g[..., None, None] * outer)
        terms += [2.0 * g[..., None, None] * a for g, a in zip(first, forms)]
        hess = reduce(operator.add, terms)
        if underflow:
            grad = np.where(live[..., None], grad, 0.0)
            hess = np.where(live[..., None, None], hess, 0.0)
        return value[()], grad, hess


def _damped_derivatives(p, u, lp):
    """D L_p(u) and D^2 L_p(u), D = d/du - 1/2: the derivatives of L_p(u) e^{-u/2} over e^{-u/2}.

    L_p' = -L_{p-1}^(1) and L_p'' = L_{p-2}^(2).
    """
    d1 = -_laguerre(p - 1, 1, u) if p >= 1 else 0.0 * u
    d2 = _laguerre(p - 2, 2, u) if p >= 2 else 0.0 * u
    return d1 - 0.5 * lp, d2 - d1 + 0.25 * lp


# the forms of the LG beam: u+- = 4Q0 +- 4Q2 = z^T (I +- J) z, with 4 Q2 = z^T J z
_J = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0],
               [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
_LG_FORMS = (np.eye(4) + _J, np.eye(4) - _J)


def lg_transform_evaluator(mode):
    """Bind a mode, validated once, into a Pi evaluator for a point or coordinate arrays.

    ``pi(point)`` is Pi and ``pi(point, 2)`` is (Pi, gradient, Hessian), the
    derivatives over (X, P_X, Y, P_Y) on trailing axes of shape (4,) and
    (4, 4); Pi itself is bit-identical to ``pi(point)``. The forms are
    u+- = 4Q0 +- 4Q2.
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
            out = sign * _laguerre(n, 0, up) * _laguerre(m, 0, um) * damp
            return out, damp, None, None
        # Pi = weight L_n(u+) L_m(u-) with weight = sign e^{-(u+ + u-)/2}
        ln, lm = _laguerre(n, 0, up), _laguerre(m, 0, um)
        a1, a2 = _damped_derivatives(n, up, ln)
        b1, b2 = _damped_derivatives(m, um, lm)
        weight = sign * damp
        return (sign * ln * lm * damp, damp, (weight * a1 * lm, weight * ln * b1),
                (weight * a2 * lm, weight * a1 * b1, weight * ln * b2))

    return partial(_evaluate, _LG_FORMS, beam)


def wigner_transform(mode, point):
    """Pi_nm(point) = pi^2 W_nm(point); bounded by 1 in magnitude."""
    return lg_transform_evaluator(mode)(point)


def wigner_lg(mode, point):
    """Closed-form Wigner function of the LG mode at a phase-space point."""
    return wigner_transform(mode, point) / _PI_SQ


class NumericWignerPlan:
    """Fourier-integral Wigner evaluator over a precomputed Gauss-Legendre grid.

    The plan is immutable after construction and may be shared across
    concurrent evaluations. Construction verifies the field's L2 norm on the
    plan's own grid: a residual beyond ``norm_tol``, or a NaN one, rejects the
    field (either it is not unit-normalized or the order/half-width cannot
    resolve it; the residual is kept as the ``norm_residual`` diagnostic
    either way).
    """

    def __init__(self, field, config=None, norm_tol=1e-3):
        if config is None:
            config = QuadratureConfig(order=96, half_width=8.0)
        nodes, weights = gauss_nodes(config)
        xi_x, xi_y = np.meshgrid(nodes, nodes, indexing="ij")
        self._field = field
        self._xi_x = xi_x.ravel()
        self._xi_y = xi_y.ravel()
        self._ww = np.outer(weights, weights).ravel()
        self.config = config
        amp = np.asarray(field(self._xi_x, self._xi_y))
        norm = float(np.sum(self._ww * np.abs(amp) ** 2))
        self.norm_residual = abs(norm - 1.0)
        if not self.norm_residual <= norm_tol:
            raise ValueError(
                f"field norm on the quadrature grid is {norm:.6g}, off by "
                f"{self.norm_residual:.3g} (> {norm_tol:g}): either the field is not "
                "unit-normalized or the quadrature order/half-width is insufficient"
            )

    def __call__(self, point):
        """W at one point; a non-finite point, or a non-finite integral, raises ValueError."""
        point = tuple(float(v) for v in point)
        if not all(math.isfinite(v) for v in point):
            raise ValueError(f"phase-space point must be finite, got {point}")
        x, px, y, py = point
        with np.errstate(over="ignore", invalid="ignore"):
            forward = np.asarray(self._field(x + self._xi_x, y + self._xi_y))
            backward = np.asarray(self._field(x - self._xi_x, y - self._xi_y))
            kernel = np.exp(2j * (px * self._xi_x + py * self._xi_y))
            total = float(np.sum(self._ww * kernel * np.conj(forward) * backward).real)
        if not math.isfinite(total):
            raise ValueError(f"the Wigner integral at {point} is not finite")
        return total / _PI_SQ


def wigner_numeric(field, point, config=None):
    """One-shot numeric Wigner evaluation; reuse a NumericWignerPlan for grids."""
    return NumericWignerPlan(field, config)(point)


def lg_numeric_plan(mode, order=96):
    """Numeric-Wigner plan for an LG mode, box sized to the mode's extent."""
    mode = as_mode(mode)
    config = QuadratureConfig(order=order, half_width=4.0 + math.sqrt(2.0 * mode.total + 1.0))
    return NumericWignerPlan(lambda X, Y: lg_amplitude(mode, X, Y), config)


def elliptical_field(params, X, Y):
    """Squeezed Gaussian beam amplitude; unit L2 norm for every t."""
    if not isinstance(params, EllipticalParams):
        params = EllipticalParams(*params)
    c2t = math.cosh(2.0 * params.t)
    s2t = math.sinh(2.0 * params.t)
    arg = -0.5 * (X * X + Y * Y) * c2t + params.sign * X * Y * s2t
    return np.exp(arg) / math.sqrt(math.pi)


def elliptical_transform(params, point):
    """Pi of the elliptical beam: a positive Gaussian bounded by 1."""
    return elliptical_transform_evaluator(params)(point)


def wigner_elliptical(params, point):
    """Closed-form (Gaussian) Wigner function of the elliptical beam."""
    return elliptical_transform(params, point) / _PI_SQ


def elliptical_transform_evaluator(params):
    """Bind elliptical parameters into a Pi evaluator for a point or coordinate arrays.

    Pi = exp(z^T K z) for z = (X, P_X, Y, P_Y), one form K. ``pi(point, 2)``
    adds the gradient 2 Pi K z and the Hessian Pi (2 K z)(2 K z)^T + 2 Pi K,
    as for the LG evaluator.
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
        return value, value, (value,), (value,)  # G(q) = e^q, so G' = G'' = Pi

    return partial(_evaluate, (kernel,), beam)
