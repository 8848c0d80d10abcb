"""Stable special-function evaluation: Laguerre polynomials.

A Laguerre polynomial is the scaled product over its zeros,

    L_p^alpha(x) = (-1)^p / p! * prod_i (x - r_i),

never a factorial series or a recurrence. ``_zeros`` computes the zeros as
correctly rounded double words hi + lo, one exact Newton step from each
Golub-Welsch eigenvalue. Words and x are scaled exactly by a power of 2, so
the product overflows only where the value does, to the infinity with the
sign of the leading term. ``_factors`` caches one table per (p, alpha), and
``_product`` multiplies its factors ((x 2^-e - hi) - lo) in zero order:
one numpy reduce over the whole table for search-sized inputs, a zero at
a time for large ones, with the same bits. The values are within 5e-15 of
C(p+alpha, p) e^{x/2} of the exact series (see ``laguerre``), where the
three-term recurrence reached 1.0e-13. Every input is a float ndarray
(0-d for a scalar) that broadcasts through numpy. ``laguerre_scaled``
keeps the three-term recurrence with a division, independent of the
product, and always returns numpy arrays; no evaluator calls it.
"""

import functools
import math

import numpy as np

__all__ = ["laguerre"]

MAX_DEGREE = 64

_RESCALE = 1e150
_LN_RESCALE = math.log(_RESCALE)


def _shown(value):
    """repr(value) for a message, or the size of an integer too long for Python to print."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def _check_integer(value, name, low=0, high=None, rule="nonnegative"):
    """The package's one integer check: value as a Python int; TypeError unless it is an
    integer (numpy's too, not a bool), ValueError "must be {rule}" unless low <= value <= high."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)
    if value < low or high is not None and value > high:
        raise ValueError(f"{name} must be {rule}, got {_shown(value)}")
    return value


def _check_degree(value, name, cap=MAX_DEGREE):
    value = _check_integer(value, name)
    if cap is not None and value > cap:
        raise ValueError(f"{name}={_shown(value)} exceeds the supported cap {cap}")
    if value > float(np.finfo(float).max):  # an exact comparison, where numpy's would overflow
        raise ValueError(f"{name} must fit a float, got one above {np.finfo(float).max}")
    return value


def _as_finite(x, name="argument"):
    """x as a float ndarray, 0-d for a scalar; ValueError naming x if an entry is not finite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


# points per block of a large grid call: 128 KiB per float temporary, which stays in cache
_BLOCK = 1 << 14


def _blocked(kernel, coords, dtype=float):
    """kernel(*coords) for an elementwise kernel and coordinates of one shape (broadcast views
    too): past ``_BLOCK`` points it runs on C-order blocks read without a full-size copy, so its
    temporaries stay in cache, and each point meets the same operations, with the same bits."""
    if coords[0].size <= _BLOCK:
        return kernel(*coords)
    blocks = np.nditer([*coords, None], ["external_loop", "buffered"],
                       [["readonly"]] * len(coords) + [["writeonly", "allocate"]],
                       op_dtypes=[None] * len(coords) + [dtype], order="C", buffersize=_BLOCK)
    with blocks:
        for *block, out in blocks:
            out[...] = kernel(*block)
        return blocks.operands[-1]


def _zeros(p, alpha):
    """The p zeros of L_p^alpha, ascending, as double words: a tuple hi and a tuple lo.

    hi is the zero correctly rounded and hi + lo is nearer it than hi: one
    Newton step x + L_p^alpha / L_{p-1}^(alpha+1) in exact integers from each
    Golub-Welsch eigenvalue (weight x^alpha e^-x) lands there (tested where the
    package uses it, not proven). For x = a/d, N_k = k! d^k L_k^alpha(x) is an
    integer, and x L_p' = p L_p - (p + alpha) L_{p-1} gives the step from N_p and N_{p-1}.
    """
    k = np.arange(1.0, p)
    jacobi = np.diag(2.0 * np.arange(p) + alpha + 1.0) - np.diag(np.sqrt(k * (k + alpha)), -1)
    hi, lo = [], []
    for start in np.linalg.eigvalsh(jacobi).tolist():
        top, bottom = _newton(p, alpha, start)
        hi.append(top / bottom)  # int / int rounds correctly
        h_top, h_bottom = hi[-1].as_integer_ratio()
        lo.append((top * h_bottom - h_top * bottom) / (bottom * h_bottom))
    return tuple(hi), tuple(lo)


def _newton(p, alpha, x):
    """The Newton step x + L_p^alpha(x) / L_{p-1}^(alpha+1)(x), p >= 1, at a float x, exactly:
    an integer numerator and denominator."""
    a, d = x.as_integer_ratio()
    prev, cur = 1, (1 + alpha) * d - a  # N_0, N_1
    for k in range(2, p + 1):
        prev, cur = cur, ((2 * k - 1 + alpha) * d - a) * cur - (k - 1) * (k - 1 + alpha) * d * d * prev
    # L_p / L_{p-1}^(alpha+1) = x N_p / (p ((p + alpha) d N_{p-1} - N_p))
    below = p * ((p + alpha) * d * prev - cur)
    return a * (below + cur), d * below


# entries of a factor table, zeros by points, up to which ``_product`` reduces it whole; the
# loop wins from 2^17 entries (1 MB), but it stays: a 2^16 limit moved no workload in 40 rounds
_TABLE = 1 << 18


@functools.lru_cache(maxsize=256)
def _factors(p, alpha):
    """The factor table of L_p^alpha, p >= 1, as ``_product`` takes it: (scale, kappa, hi, lo).

    L_p^alpha(x) = kappa prod_i ((x scale - hi_i) - lo_i) over its zeros,
    ascending, with scale = 2^-e, e = ceil(log2(p!)/p), and kappa =
    (-1)^p 2^(ep) / p! rounded once, so |kappa| >= 1; hi and lo are arrays
    of the p zero words of ``_zeros``, scaled exactly by 2^-e. The one
    Laguerre cache: a process computes each (p, alpha) once.
    """
    e = math.ceil(math.log2(math.factorial(p)) / p)
    hi, lo = (np.ldexp(words, -e) for words in _zeros(p, alpha))
    return 2.0 ** -e, (-1) ** p * 2 ** (e * p) / math.factorial(p), hi, lo


def _product(factors, x):
    """The Laguerre factor of a ``_factors`` table at a float array x, unvalidated.

    The factors multiply in the order of the zeros, by one of two traversals
    with the same bits: up to ``_TABLE`` entries the table ((x scale - hi) -
    lo) is built whole on a leading zero axis and reduced by one
    ``np.multiply.reduce``, which multiplies its rows in order; past that,
    and for one zero, the zeros run one at a time, 3 passes each, in one
    reused factor buffer. x itself is never written.
    """
    scale, kappa, hi, lo = factors
    t = x * scale
    if len(hi) > 1 and len(hi) * np.size(t) <= _TABLE:
        column = (slice(None),) + (None,) * np.ndim(t)
        table = t - hi[column]
        table -= lo[column]
        out = np.multiply.reduce(table, axis=0)
    else:  # a 0-d x never gets here with more than one zero
        out = t - hi[0]
        out -= lo[0]
        factor = None
        for i in range(1, len(hi)):
            factor = np.subtract(t, hi[i], out=factor)
            factor -= lo[i]
            out *= factor
    out *= kappa
    return out


def _laguerre(p, alpha, x):
    """L_p^alpha(x) for a float array x, unvalidated; L_0 = x**0 is 1 even where x is not finite."""
    return _product(_factors(p, alpha), x) if p else x ** 0.0


def laguerre(p, alpha, x):
    """Generalized Laguerre polynomial L_p^alpha(x).

    Parameters
    ----------
    p : int
        Degree, 0 <= p <= MAX_DEGREE.
    alpha : int
        Associated index, alpha >= 0, that fits a float.
    x : float or ndarray
        Evaluation point(s); must be finite. A scalar runs on the same array
        path, as a 0-d array, and returns a float with the same bits.

    For p <= 64, alpha <= 10 and 0 <= x <= 300 the value is within 5e-15 of
    C(p+alpha, p) e^{x/2} of the exact one (2.5e-15 at worst, seen just
    above 0). The first call for a (p, alpha) computes its zeros, once per
    process: about 5 ms for (64, 0), 0.9 ms for (30, 0). The Hessian path
    of a Bell search also needs the zeros of L_{p-1}^(1) and L_{p-2}^(2),
    so its first call for a degree costs about three times that: 14 ms for
    p = 64, 2.5 ms for p = 30. Where the value overflows a float (|x| far
    beyond 4p + 2 alpha, as L_64(1e7) ~ 1e359), it is the infinity with the
    sign of the leading term (-x)^p / p!, and no RuntimeWarning is raised.
    For alpha <= 2 and 0 <= x <= 4p + 2 alpha + 10 it is also within
    gamma_{3p+1} |L|, gamma_n = nu/(1 - nu), u = 2^-53 (tested; 1.3 p u seen),
    but not at a zero's hi word or its float neighbours (4.8e4 p u at (30, 2)).
    """
    p, alpha, x = _check_degree(p, "p"), _check_degree(alpha, "alpha", cap=None), _as_finite(x)
    with np.errstate(over="ignore"):
        value = _laguerre(p, alpha, x)
    return value if np.ndim(value) else float(value)


def laguerre_scaled(p, alpha, x):
    """L_p^alpha(x) as numpy (mantissa, log_scale), value = mantissa * exp(log_scale).

    Intermediates are renormalized past 1e150, so any finite x is safe. No
    evaluator calls it: it is the tests' far-range Pi oracle and a benchmark
    probe. Both parts are arrays of the shape of x, 0-d for a scalar x.
    """
    p = _check_degree(p, "p")
    alpha = _check_degree(alpha, "alpha", cap=None)
    x = _as_finite(x)
    shift = np.zeros_like(x)
    if p == 0:
        return np.ones_like(x), shift
    prev = np.ones_like(x)
    cur = 1.0 + alpha - x
    for k in range(2, p + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + alpha - x) * cur - (k - 1.0 + alpha) * prev) / k
        big = (np.abs(cur) > _RESCALE) | (np.abs(prev) > _RESCALE)
        if np.any(big):
            divisor = np.where(big, _RESCALE, 1.0)
            prev = prev / divisor
            cur = cur / divisor
            shift = shift + np.where(big, _LN_RESCALE, 0.0)
    return np.asarray(cur), np.asarray(shift)
