"""Laguerre-Gaussian and Hermite-Gaussian transverse modes in scaled coordinates.

Everything here works with the dimensionless quadratures (X, Y): the physical
transverse plane maps in through ``physical_to_scaled`` (x = w X / sqrt(2)),
and all amplitudes are normalized so that the integral of |amplitude|^2 over
dX dY is exactly 1. The LG normalization and the Schmidt weights are square
roots of exact factorial ratios (Python integers), each rounded once.

Conventions
-----------
* A vortex mode of index (n, m) carries orbital angular momentum l = n - m
  and azimuthal phase e^{i l theta}.
* The global sign of each LG mode is (-1)^{min(n,m)}, kept so that parity
  relations of the Wigner transform stay sign-exact.
* The LG -> HG (Schmidt) expansion uses the per-term phase (-i)^k. The
  opposite i^k choice reproduces the mirror mode (l -> -l) and fails the
  reconstruction identity; tests pin the implemented choice numerically.

HG values come from one recurrence, that of the unit-norm Hermite functions
psi_0(x) = pi^{-1/4} e^{-x^2/2}, psi_k = sqrt(2/k) x psi_{k-1} - sqrt((k-1)/k) psi_{k-2}:
``hg_amplitude`` is psi_n(X) psi_m(Y), and ``reconstruct_from_schmidt`` runs it
in Y while summing the Schmidt series in X by Clenshaw's backward recurrence.
Every psi_k is bounded and 0 where its Gaussian underflows, so a huge finite
coordinate gives an amplitude of 0, not NaN; a non-finite one is rejected.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import _as_finite, _blocked, _check_degree, _laguerre

__all__ = [
    "ModeIndex",
    "ScaleParams",
    "SchmidtTerm",
    "lg_amplitude",
    "hg_amplitude",
    "schmidt_coefficients",
    "reconstruct_from_schmidt",
    "physical_to_scaled",
    "scaled_to_physical",
]

MAX_TOTAL_ORDER = 64


@dataclass(frozen=True)
class ModeIndex:
    """LG/HG index pair (n, m); orbital angular momentum l = n - m."""

    n: int
    m: int

    def __post_init__(self):
        for name in ("n", "m"):  # stored as Python ints, so exact and JSON-ready
            object.__setattr__(self, name, _check_degree(getattr(self, name), name, cap=None))
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
    # sqrt(p! / (pi (p+|l|)!)): the exact integer ratio rounds once, as int / int does
    return math.sqrt(math.factorial(radial) / math.factorial(radial + azimuthal) / math.pi)


def _finite(X):
    """X as a float ndarray, 0-d for a scalar; ValueError if any entry is not finite."""
    return np.asarray(_as_finite(X))


def lg_amplitude(mode, X, Y):
    """LG field amplitude at the scaled point (X, Y). Complex; vectorizes over X, Y.

    For (n, m) = (1, 0) this is (1/sqrt(pi)) (X + iY) exp(-(X^2+Y^2)/2); in
    general it is the standard unit-norm vortex mode with azimuthal factor
    e^{i(n-m)theta} and global sign (-1)^{min(n,m)}. It is 0 where the
    Gaussian underflows, however large the finite point.
    """
    mode = as_mode(mode)
    p, a, l = mode.radial, abs(mode.l), mode.l
    X, Y = _finite(X), _finite(Y)
    sign = -1.0 if p % 2 else 1.0
    # a huge point overflows r2 quietly; the inf * 0 it leaves is masked below
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = X * X + Y * Y
        gauss = np.exp(-0.5 * r2)
        # the real radial factor first, then one complex array: (X + i sgn(l) Y)^|l| radial
        radial = sign * _lg_norm(p, a) * gauss
        if p:  # L_0 = 1
            radial *= _laguerre(p, a, r2)
        if l:
            value = np.empty(np.shape(radial), dtype=complex)
            value.real = X
            value.imag = Y if l > 0 else -Y
            if a > 1:
                value **= a
            value *= radial
        else:
            value = np.asarray(radial, dtype=complex)
    if not np.all(gauss > 0.0):
        value = np.where(gauss > 0.0, value, 0.0)
    return value if np.ndim(value) else complex(value)


def _hermite_functions(x):
    """Yield psi_0(x), psi_1(x), ... for a float ndarray x (see the module docstring).

    The yielded array is overwritten two steps later, so a caller that keeps
    psi_k must stop the generator there or copy it.
    """
    cur = np.empty_like(x)
    prev = np.zeros_like(x)
    tmp = np.empty_like(x)
    with np.errstate(over="ignore"):  # x*x = inf gives e^{-inf} = 0
        np.multiply(x, x, out=cur)
    cur *= -0.5
    np.exp(cur, out=cur)
    cur *= math.pi**-0.25
    k = 0
    while True:
        yield cur
        k += 1
        # x psi before the scale factor, so a huge x meets psi = 0 and gives 0
        np.multiply(x, cur, out=tmp)
        tmp *= math.sqrt(2.0 / k)
        prev *= -math.sqrt((k - 1.0) / k)
        prev += tmp
        prev, cur = cur, prev


def _hermite_function(n, x):
    """psi_n(x), the n-th value of ``_hermite_functions``."""
    return next(itertools.islice(_hermite_functions(x), n, None))


def hg_amplitude(mode, X, Y):
    """HG field amplitude u_{nm}(X, Y) = psi_n(X) psi_m(Y); real-valued, unit L2 norm."""
    mode = as_mode(mode)
    return _hermite_function(mode.n, _finite(X)) * _hermite_function(mode.m, _finite(Y))


def schmidt_coefficients(mode):
    """HG expansion of an LG mode: n+m+1 SchmidtTerms on HG modes (n+m-k, k).

    The k-th weight is the t^k coefficient f_k of (1-t)^n (1+t)^m times
    sqrt(k!(n+m-k)!/(n!m!2^{n+m})), with the per-term phase (-i)^k (see the
    module docstring). |c_k|^2 is a ratio of exact integers, rounded once, so
    each |c_k| is within an ulp of its value and the squares sum to 1.
    """
    mode = as_mode(mode)
    n, m = mode.n, mode.m
    total = n + m
    # integer convolution keeps f_k exact; binomials overflow doubles past n+m ~ 56
    poly = [0] * (total + 1)
    for j in range(n + 1):
        cj = (-1) ** j * math.comb(n, j)
        for i in range(m + 1):
            poly[j + i] += cj * math.comb(m, i)
    phase_cycle = (1.0, -1.0j, -1.0, 1.0j)  # (-i)^k
    denominator = math.factorial(n) * math.factorial(m) << total
    terms = []
    for k in range(total + 1):
        fk = poly[k]
        coeff = 0.0j  # a zero weight keeps unsigned zero parts
        if fk:
            ratio = fk * fk * math.factorial(k) * math.factorial(total - k) / denominator
            coeff = phase_cycle[k % 4] * math.copysign(1.0, fk) * math.sqrt(ratio)
        terms.append(SchmidtTerm(hg_index=ModeIndex(total - k, k), coefficient=complex(coeff)))
    return terms


def reconstruct_from_schmidt(mode, X, Y):
    """Sum the HG expansion sum_k c_k psi_{N-k}(X) psi_k(Y) at (X, Y), N = n + m.

    It is a Hermite-function series in X whose j-th coefficient is
    c_{N-j} psi_{N-j}(Y), so one pass over ascending k runs the psi(Y)
    recurrence forward and Clenshaw's backward sum over j together. c_k is
    real for even k and imaginary for odd k: the sum runs as two real
    accumulators, and psi_0(X) multiplies them once at the end. Working
    memory is a fixed number of arrays, whatever the order, in cache-sized
    blocks past ``_BLOCK`` points. Agrees with lg_amplitude to 1e-14 for
    every n + m <= 64 on [-9, 9]^2.
    """
    terms = schmidt_coefficients(mode)
    coords = np.broadcast_arrays(_finite(X), _finite(Y))
    return _blocked(lambda x, y: _schmidt_sum(terms, x, y), coords, complex)[()]


def _schmidt_sum(terms, X, Y):
    total = len(terms) - 1
    # [b_{j+1}, b_{j+2}] of Clenshaw's sum for the real and the imaginary part
    parts = [[np.zeros(X.shape), np.zeros(X.shape)] for _ in range(2)]
    tmp = np.empty(X.shape)
    # a huge X overflows the b_j quietly; the inf * 0 it leaves is masked below
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (term, psi) in enumerate(zip(terms, _hermite_functions(Y))):
            j = total - k
            # b_j = a_j + sqrt(2/(j+1)) X b_{j+1} - sqrt((j+1)/(j+2)) b_{j+2}, into b_{j+2}
            for b1, b2 in parts:
                b2 *= -math.sqrt((j + 1.0) / (j + 2.0))
                np.multiply(X, b1, out=tmp)
                tmp *= math.sqrt(2.0 / (j + 1.0))
                b2 += tmp
            coefficient = term.coefficient.imag if k % 2 else term.coefficient.real
            if coefficient != 0.0:
                np.multiply(psi, coefficient, out=tmp)
                parts[k % 2][1] += tmp
            for pair in parts:
                pair.reverse()
        psi = _hermite_function(0, X)
        out = np.empty(X.shape, dtype=complex)
        np.multiply(parts[0][0], psi, out=out.real)
        np.multiply(parts[1][0], psi, out=out.imag)
    np.copyto(out, 0.0, where=psi == 0.0)
    return out


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
