"""Laguerre-Gaussian and Hermite-Gaussian transverse modes in scaled coordinates.

Everything here works with the dimensionless quadratures (X, Y): the physical
transverse plane maps in through ``physical_to_scaled`` (x = w X / sqrt(2)),
and all amplitudes are normalized so that the integral of |amplitude|^2 over
dX dY is exactly 1.

Conventions
-----------
* A vortex mode of index (n, m) carries orbital angular momentum l = n - m
  and azimuthal phase e^{i l theta}.
* The global sign of each LG mode is (-1)^{min(n,m)}, kept so that parity
  relations of the Wigner transform stay sign-exact.
* The LG -> HG (Schmidt) expansion uses the per-term phase (-i)^k. The
  opposite i^k choice reproduces the mirror mode (l -> -l) and fails the
  reconstruction identity; tests pin the implemented choice numerically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _check_degree, hermite, laguerre, ln_factorial

__all__ = [
    "MAX_TOTAL_ORDER",
    "ModeIndex",
    "ScaleParams",
    "SchmidtTerm",
    "as_mode",
    "lg_amplitude",
    "lg_gradient",
    "hg_amplitude",
    "schmidt_coefficients",
    "reconstruct_from_schmidt",
    "physical_to_scaled",
    "scaled_to_physical",
]

MAX_TOTAL_ORDER = 64

_SQRT_PI = math.sqrt(math.pi)
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ModeIndex:
    """LG/HG index pair (n, m); orbital angular momentum l = n - m."""

    n: int
    m: int

    def __post_init__(self):
        for name in ("n", "m"):
            _check_degree(getattr(self, name), name, cap=None)
        if self.n + self.m > MAX_TOTAL_ORDER:
            raise ValueError(
                f"total order n+m={self.n + self.m} exceeds the cap {MAX_TOTAL_ORDER}"
            )

    @property
    def l(self):
        return self.n - self.m

    @property
    def radial(self):
        """The Laguerre degree min(n, m)."""
        return min(self.n, self.m)

    @property
    def total(self):
        return self.n + self.m


def as_mode(mode):
    """Coerce a ModeIndex or (n, m) pair into a validated ModeIndex."""
    if isinstance(mode, ModeIndex):
        return mode
    n, m = mode
    return ModeIndex(n, m)


@dataclass(frozen=True)
class ScaleParams:
    """Beam waist w and reduced wavelength lambdabar defining the scaled coordinates."""

    w: float
    lambdabar: float

    def __post_init__(self):
        if not (self.w > 0.0) or not math.isfinite(self.w):
            raise ValueError(f"beam waist must be positive and finite, got {self.w}")
        if not (self.lambdabar > 0.0) or not math.isfinite(self.lambdabar):
            raise ValueError(
                f"reduced wavelength must be positive and finite, got {self.lambdabar}"
            )


@dataclass(frozen=True)
class SchmidtTerm:
    """One HG component of an LG mode: coefficient on HG mode hg_index."""

    hg_index: ModeIndex
    coefficient: complex


def _lg_norm(radial, azimuthal):
    # sqrt(p! / (pi (p+|l|)!)) via logs, stable for high orders
    return math.exp(0.5 * (ln_factorial(radial) - ln_factorial(radial + azimuthal))) / _SQRT_PI


def lg_amplitude(mode, X, Y):
    """LG field amplitude at the scaled point (X, Y). Complex; vectorizes over X, Y.

    For (n, m) = (1, 0) this is (1/sqrt(pi)) (X + iY) exp(-(X^2+Y^2)/2); in
    general it is the standard unit-norm vortex mode with azimuthal factor
    e^{i(n-m)theta} and global sign (-1)^{min(n,m)}.
    """
    mode = as_mode(mode)
    p, a, l = mode.radial, abs(mode.l), mode.l
    r2 = X * X + Y * Y
    spiral = 1.0 if a == 0 else (X + 1j * math.copysign(1.0, l) * Y) ** a
    sign = -1.0 if p % 2 else 1.0
    value = sign * _lg_norm(p, a) * spiral * laguerre(p, a, r2) * np.exp(-0.5 * r2)
    return np.asarray(value, dtype=complex) if isinstance(value, np.ndarray) else complex(value)


def lg_gradient(mode, X, Y):
    """Analytic (d/dX, d/dY) of lg_amplitude; used for momentum moments.

    Built from d/du L_p^a(u) = -L_{p-1}^{a+1}(u), so no finite differences
    enter any downstream expectation value.
    """
    mode = as_mode(mode)
    p, a, l = mode.radial, abs(mode.l), mode.l
    s = math.copysign(1.0, l)
    r2 = X * X + Y * Y
    gauss = np.exp(-0.5 * r2)
    norm = (-1.0 if p % 2 else 1.0) * _lg_norm(p, a)
    lag = laguerre(p, a, r2)
    dlag = 0.0 if p == 0 else -laguerre(p - 1, a + 1, r2)
    spiral = 1.0 if a == 0 else (X + 1j * s * Y) ** a
    spiral_minus = 0.0 if a == 0 else (1.0 if a == 1 else (X + 1j * s * Y) ** (a - 1))
    common = 2.0 * dlag - lag
    dx = norm * gauss * (a * spiral_minus * lag + X * spiral * common)
    dy = norm * gauss * (1j * s * a * spiral_minus * lag + Y * spiral * common)
    return dx, dy


def hg_amplitude(mode, X, Y):
    """HG field amplitude u_{nm}(X, Y); real-valued, unit L2 norm."""
    mode = as_mode(mode)
    n, m = mode.n, mode.m
    ln_norm = -0.5 * (math.log(math.pi) + (n + m) * _LN2 + ln_factorial(n) + ln_factorial(m))
    return math.exp(ln_norm) * hermite(n, X) * hermite(m, Y) * np.exp(-0.5 * (X * X + Y * Y))


def schmidt_coefficients(mode):
    """HG expansion of an LG mode: n+m+1 SchmidtTerms on HG modes (n+m-k, k).

    The k-th weight is the t^k coefficient of (1-t)^n (1+t)^m times
    sqrt(k!(n+m-k)!/(n!m!2^{n+m})), with the per-term phase (-i)^k (see the
    module docstring). The squared magnitudes sum to 1.
    """
    mode = as_mode(mode)
    n, m = mode.n, mode.m
    total = n + m
    # integer convolution keeps f_k/k! exact; binomials overflow doubles past n+m ~ 56
    poly = [0] * (total + 1)
    for j in range(n + 1):
        cj = (-1) ** j * math.comb(n, j)
        for i in range(m + 1):
            poly[j + i] += cj * math.comb(m, i)
    phase_cycle = (1.0, -1.0j, -1.0, 1.0j)  # (-i)^k
    terms = []
    for k in range(total + 1):
        fk = poly[k]
        if fk == 0:
            coeff = 0.0j
        else:
            ln_mag = math.log(abs(fk)) + 0.5 * (
                ln_factorial(k)
                + ln_factorial(total - k)
                - ln_factorial(n)
                - ln_factorial(m)
                - total * _LN2
            )
            coeff = phase_cycle[k % 4] * math.copysign(1.0, fk) * math.exp(ln_mag)
        terms.append(SchmidtTerm(hg_index=ModeIndex(total - k, k), coefficient=complex(coeff)))
    return terms


def reconstruct_from_schmidt(mode, X, Y):
    """Sum the HG expansion at (X, Y); agrees with lg_amplitude to ~1e-10."""
    total = 0.0j
    for term in schmidt_coefficients(mode):
        if term.coefficient != 0.0:
            total = total + term.coefficient * hg_amplitude(term.hg_index, X, Y)
    return total


def physical_to_scaled(x, p, scale):
    """Map physical (length, transverse momentum) to dimensionless (X, P)."""
    if not isinstance(scale, ScaleParams):
        scale = ScaleParams(*scale)
    X = math.sqrt(2.0) * x / scale.w
    P = scale.w * p / (math.sqrt(2.0) * scale.lambdabar)
    return X, P


def scaled_to_physical(X, P, scale):
    """Inverse of physical_to_scaled; the round trip is the identity."""
    if not isinstance(scale, ScaleParams):
        scale = ScaleParams(*scale)
    x = scale.w * X / math.sqrt(2.0)
    p = math.sqrt(2.0) * scale.lambdabar * P / scale.w
    return x, p
