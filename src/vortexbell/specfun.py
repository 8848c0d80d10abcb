"""Stable special-function evaluation: Laguerre polynomials.

Laguerre polynomials are evaluated with their three-term recurrence (never
a factorial series), which stays accurate for the degrees this package
needs. ``_laguerres`` yields L_0, L_1, ... and makes one new array per
step, updating the others in place; each element meets the operations of
the one-expression step, so the values have the same bits. Each step ends
with a multiplication by the reciprocal 1/k, not a division, which costs
several multiplies per element. For p <= 64, alpha <= 10 and
0 <= x <= 300 the values stay within 1.2e-13 of C(p+alpha, p) e^{x/2} of
the exact series; the worst seen is 1.0e-13, just above 0 (x = 1e-5,
p = 64, alpha = 0), and a division per step gives 8.9e-14 there.
Scalar inputs run on plain floats and array inputs broadcast through
numpy, and an array alpha stacks several recurrences in one. The public
``laguerre`` returns a signed infinity where the value overflows.
``laguerre_scaled`` keeps the division, so that it stays independent of
the evaluators' recurrence, and always returns numpy arrays; no evaluator
calls it.
"""

import itertools
import math

import numpy as np

__all__ = ["laguerre"]

MAX_DEGREE = 64

_RESCALE = 1e150
_LN_RESCALE = math.log(_RESCALE)


def _check_degree(value, name, cap=MAX_DEGREE):
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    if cap is not None and value > cap:
        raise ValueError(f"{name}={value} exceeds the supported cap {cap}")
    return int(value)


def _as_finite(x):
    """Return x as a float (scalar input) or float ndarray, rejecting non-finite values."""
    if isinstance(x, (int, float, np.floating, np.integer)):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"argument must be finite, got {x}")
        return x
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
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


def _laguerres(alpha, x):
    """Yield L_0^alpha(x), L_1^alpha(x), ... for a float or a float array x, unvalidated.

    Each step makes one new array and updates the others in place, so a
    yielded array is overwritten two steps later: a caller that keeps L_k
    must stop the generator there or copy it. x itself is never written.
    L_0 = x**0 is 1 in the broadcast shape of x and alpha, even where x is
    not finite.
    """
    prev = x ** (0.0 * alpha)
    yield prev
    cur = 1.0 + alpha - x
    for k in itertools.count(2):
        yield cur
        # ((2k-1+alpha - x) L_{k-1} - (k-1+alpha) L_{k-2}) * (1/k), one operation at a time
        new = 2.0 * k - 1.0 + alpha - x
        new *= cur
        prev *= k - 1.0 + alpha
        new -= prev
        new *= 1.0 / k
        prev, cur = cur, new


def _laguerre(p, alpha, x):
    """L_p^alpha(x), the p-th value of ``_laguerres``."""
    return next(itertools.islice(_laguerres(alpha, x), p, None))


def laguerre(p, alpha, x):
    """Generalized Laguerre polynomial L_p^alpha(x).

    Parameters
    ----------
    p : int
        Degree, 0 <= p <= MAX_DEGREE.
    alpha : int
        Associated index, alpha >= 0.
    x : float or ndarray
        Evaluation point(s); must be finite.

    Where the value overflows a float (|x| far beyond 4p + 2 alpha, as
    L_64(1e7) ~ 1e359), it is the infinity with the sign of the leading
    term (-x)^p / p!, and no RuntimeWarning is raised.
    """
    p, alpha, x = _check_degree(p, "p"), _check_degree(alpha, "alpha", cap=None), _as_finite(x)
    # x is finite, so a NaN is inf - inf, two steps after the recurrence overflowed
    if isinstance(x, float):  # float arithmetic overflows quietly
        value = _laguerre(p, alpha, x)
        return value if value == value else math.copysign(math.inf, -x if p % 2 else 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _laguerre(p, alpha, x)
    overflowed = np.isnan(value)
    if overflowed.any():
        value = np.where(overflowed, np.copysign(np.inf, -x if p % 2 else 1.0), value)[()]
    return value


def laguerre_scaled(p, alpha, x):
    """L_p^alpha(x) as numpy (mantissa, log_scale), value = mantissa * exp(log_scale).

    Intermediates are renormalized past 1e150, so any finite x is safe. No
    evaluator calls it: it is the tests' far-range Pi oracle and a benchmark
    probe. Both parts are arrays of the shape of x, 0-d for a scalar x.
    """
    p = _check_degree(p, "p")
    alpha = _check_degree(alpha, "alpha", cap=None)
    x = np.asarray(_as_finite(x))
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
