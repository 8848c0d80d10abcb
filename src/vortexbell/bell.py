"""Bell-CHSH sums over phase-space settings and their maximization.

A Bell sum combines four values of a Wigner transform Pi. The restricted
form varies only X on one side and P_Y on the other,

    B = Pi(0,0;0,0) + Pi(x,0;0,0) + Pi(0,0;0,py) - Pi(x,0;0,py),

while the general form assigns each side two full phase-plane settings.
|B| > 2 signals correlations that no local model of the two transverse
modes reproduces. Maximization is one damped Newton ascent of a single
start, the origin, with the exact gradient and Hessian of B chained from the
forms and partials the Pi evaluators give at order 2, and Hessian eigenvalues
flipped to ascend (modified Newton, Nocedal & Wright 2006, sec. 3.4). The
gradient of B vanishes at the origin, and where the origin is a saddle the
first step leaves it along the top eigenvector; that escape is taken only
where |grad B| <= 1e-7, where the search would stop. Each Newton step takes one
jet at the start and backtracks over its ladder of halved steps in one more
Pi call. A short pure-Newton step skips the Armijo test, whose gain near a
maximum is below the rounding noise of B. The maximum test reads the
eigenvalues of the last Newton step, and a maximum of |B| = 2 to within
1e-12 is reported as no violation. No search draws a random number, so a
beam fixes its result.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _as_finite, _check_integer, _shown
from .wigner import elliptical_transform_evaluator, lg_transform_evaluator

__all__ = [
    "RESTRICTED",
    "GENERAL",
    "OptimizerConfig",
    "OptimizationResult",
    "EllipticalProfile",
    "bell_sum",
    "bell_closed_form_10",
    "maximize_bell",
    "bell_scan",
    "elliptical_profile",
]

RESTRICTED = "restricted"
GENERAL = "general"


def _t_grid(t_min, t_max, samples):
    """Squeeze values t_min + (t_max - t_min) (k / (samples - 1)), k < samples, ending on t_max."""
    if samples == 1:
        return (t_min,)
    return (*(t_min + (t_max - t_min) * (k / (samples - 1)) for k in range(samples - 1)), t_max)


DEFAULT_T_GRID = _t_grid(0.0, 2.0, 21)

# term k of the CHSH sum is Pi at the settings _TERMS[k] of
# (X1, P_X1, X2, P_X2, Y1, P_Y1, Y2, P_Y2), with sign _SIGNS[k]
_TERMS = np.array([[0, 1, 4, 5], [2, 3, 4, 5], [0, 1, 6, 7], [2, 3, 6, 7]])
_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])
# _LIFT[kind][k, d, i] is 1 where setting d is coordinate i of term k's point;
# restricted settings (x, py) sit at X2 and P_Y2, every other setting 0
_GENERAL_LIFT = (_TERMS[:, None, :] == np.arange(8)[:, None]).astype(float)
_LIFT = {GENERAL: _GENERAL_LIFT, RESTRICTED: _GENERAL_LIFT[:, [2, 7]]}


# per kind: u @ points is the term points (4 coordinates, N, 4 terms) of rows
# u, and left @ A @ right is 2 s_j P_j A P_j^T for each term j, P_j its lift
_FACTORS = {kind: (np.ascontiguousarray(lift.transpose(2, 1, 0)),
                   (2.0 * _SIGNS[:, None, None] * lift)[:, None],
                   np.ascontiguousarray(lift.transpose(0, 2, 1))[:, None])
            for kind, lift in _LIFT.items()}

# Newton search: curvature floor relative to max|eigenvalue|, Armijo
# sufficient-increase constant, the longest pure-Newton step taken without the
# Armijo test, the gradient norm a converged maximum meets, the step and
# gradient size at which the search stops, and its Newton iteration cap
_CURVATURE_FLOOR = 1e-6
_ARMIJO = 1e-4
_TRUSTED_STEP = 1e-5
_GRADIENT_TOL = 1e-7
_STEP_TOL = 1e-9
_MAX_ITERS = 4000
_TIE = 1e-12  # |B| within this of 2 is no violation
_TINY = np.finfo(float).tiny
# the backtracking ladder's step factors 2^-j, down to the smallest subnormal
_HALVINGS = np.ldexp(1.0, -np.arange(1075))


def _check_kind(kind):
    if kind not in (RESTRICTED, GENERAL):
        raise ValueError(f"kind must be {RESTRICTED!r} or {GENERAL!r}, got {kind!r}")


def bell_sum(pi, kind, settings):
    """The four-term CHSH sum B, a float, from one call of pi on coordinate arrays.

    RESTRICTED settings are (x, py): A in {(0,0), (x,0)} and B in {(0,0), (0,py)}.
    GENERAL settings are (X1, P_X1, X2, P_X2, Y1, P_Y1, Y2, P_Y2): two phase-plane
    settings per side, a1, a2 on (X, P_X) and b1, b2 on (Y, P_Y); the (a2, b2)
    term enters with a minus sign. Every entry must be finite.
    """
    _check_kind(kind)
    u = _as_finite(settings, f"{kind} settings")
    size = _LIFT[kind].shape[1]
    if u.shape != (size,):
        raise ValueError(f"{kind} settings must be {size} numbers, got shape {u.shape}")
    return float(_bell(pi, kind, u[None])[0])


def bell_closed_form_10(x, py):
    """Closed-form restricted Bell sum for the lowest vortex mode (1, 0)."""
    if not (math.isfinite(x) and math.isfinite(py)):
        raise ValueError("settings must be finite")
    return (_damped(py * py, py * py) + _damped(x * x, x * x)
            - _damped(py * py + x * x, (py + x) * (py + x)) - 1.0)


def _damped(s, q):
    """e^{-s} (q - 1), and 0 where e^{-s} underflows, even if q overflowed to inf."""
    damp = math.exp(-s)
    return damp * (q - 1.0) if damp > 0.0 else 0.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Accepted and ignored: the search has no tuning knobs.

    It stops at a step or gradient within 1e-9 and caps its Newton
    iterations at 4000, and no search reads ``seed``. ``seed`` must be an
    integer >= 0: the benchmark harness in ``perfbench/`` still passes one
    (ROADMAP.md, item 1).
    """

    seed: int = 12345

    def __repr__(self):  # _shown prints an integer too long for repr by its size
        return f"OptimizerConfig(seed={_shown(self.seed)})"

    def __post_init__(self):
        _check_integer(self.seed, "seed", 0, rule=">= 0")


@dataclass(frozen=True)
class OptimizationResult:
    """|B| at the maximum, its settings, search diagnostics, and whether |B| > 2 + 1e-12."""

    best_value: float
    argmax: tuple
    evaluations: int
    converged: bool

    @property
    def violation(self):
        return abs(self.best_value) - 2.0 > _TIE


def _bell(pi, kind, u, order=0):
    """B on rows of settings u, (N, 8) general or (N, 2) restricted (x, py),
    from one Pi call on the four term points of every row.

    At order 2, the only other order, also the gradient (N, d) and Hessian
    (N, d, d) of B over those settings. Term j's point P_j^T u makes each
    form a quadratic in the settings, q_jk = u^T C_jk u, C_jk = P_j A_k P_j^T;
    with ``pi(points, 2)``'s partials G_k, G_kl at term j, its sign s_j and
    c_jk = 2 C_jk u, grad B = sum_jk s_j G_k c_jk and
    hess B = sum_jkl s_j G_kl c_jk c_jl^T + sum_jk s_j G_k 2 C_jk.
    """
    points, left, right = _FACTORS[kind]
    n, d = u.shape
    if not order:
        return (pi(u @ points) * _SIGNS).sum(axis=1)
    t, forms, g_q, g_qq = pi(u @ points, 2)
    # 2 s_j C_jk, (4, K, d, d): each entry is 0 or +-2 A_k[i, l], so exactly symmetric
    signed_c = left @ forms @ right
    # near the largest floats a slope overflows quietly, and the row's jet is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = (u @ signed_c.reshape(-1, d).T).reshape(n, -1, d)  # s_j c_jk over the pairs jk
        linear = (g_q.reshape(n, -1) @ signed_c.reshape(-1, d * d)).reshape(n, d, d)
        curved = (g_qq * _SIGNS[:, None, None]) @ slopes.reshape(n, 4, -1, d)  # sum_l G_kl c_jl
        hess = slopes.swapaxes(-1, -2) @ curved.reshape(slopes.shape) + linear
        # grad B = linear u, summed elementwise: a restricted row's two products then round
        # as in its general embedding; half the Hessian plus its transpose is exactly symmetric
        return ((t * _SIGNS).sum(axis=1), (linear * u[:, None]).sum(axis=2),
                0.5 * (hess + hess.swapaxes(-1, -2)))


def _newton_step(grad, hess):
    """Modified-Newton ascent steps (Nocedal & Wright 2006, sec. 3.4), where
    each Hessian curves upward, and where it is negative definite, so that
    no eigenvalue is flipped and the step is the pure Newton step.

    Every eigenvalue is replaced by -max(|lambda|, floor), floor = 1e-6 max|lambda|,
    so the step ascends. Where the top eigenvalue exceeds the floor (a saddle
    or a valley) and |grad| <= 1e-7, so the search would stop there, the step
    also goes 1/sqrt(lambda_max) along its eigenvector, uphill (+ on a tie),
    which moves a start off a saddle where the gradient vanishes. That escape
    is folded into the step's top eigen-coefficient.
    """
    lam, vec = np.linalg.eigh(hess)
    floor = _CURVATURE_FLOOR * np.abs(lam).max(axis=1)
    top = lam[:, -1]
    coef = (grad[:, None] @ vec)[:, 0]
    uphill = np.where(coef[:, -1] < 0.0, -1.0, 1.0)
    coef /= np.maximum(np.abs(lam), np.maximum(floor, _TINY)[:, None])
    escape = (top > floor) & (np.sqrt((grad * grad).sum(axis=1)) <= _GRADIENT_TOL)
    coef[:, -1] += np.where(escape, uphill / np.sqrt(np.maximum(top, _TINY)), 0.0)
    return (vec @ coef[:, :, None])[:, :, 0], top > floor, top < 0.0


def _ascend(bell, x, f, sigma, tol, max_iters):
    """Damped modified-Newton ascent of sigma * B from the one start x, a (1, d) row.

    ``bell(u, order)`` evaluates B on rows of settings; f = sigma * B at x
    is a float. A start whose f is not finite retires at once, as does one
    whose jet is not finite: neither is a maximum. The search stops when its
    step, or its gradient with no uphill curvature left, is within ``tol``
    (it is not moving: no ladder), or when backtracking finds no Armijo
    point with a step above ``tol``. Backtracking halves the step while
    alpha * |step| > ``tol``; the whole ladder is one ``bell`` call, and the
    search takes its first Armijo point, the one that halving one trial at a
    time finds. A pure-Newton step of length <= 1e-5 is taken without the
    Armijo test. Returns x, f, whether the search retired within
    ``max_iters``, and whether it converged: it retired, and its last jet
    passed the maximum test, a finite jet with |grad| <= 1e-7, no upward
    curvature by that jet's ``_newton_step``, and a Hessian not all zero (as
    on a plateau where Pi underflowed) unless f is 2 to within 1e-12, no
    violation, which B can attain where it is flat to second order.
    """
    if not math.isfinite(f):
        return x, f, True, False
    for _ in range(max_iters):
        _, g, h = bell(x, 2)
        g *= sigma
        h *= sigma
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            return x, f, True, False
        step, curved, pure = _newton_step(g, h)
        size, gnorm, curved = np.sqrt((step * step).sum()), np.sqrt((g * g).sum()), curved[0]
        if size > tol and (gnorm > tol or curved):
            alpha = _HALVINGS[_HALVINGS * size > tol]
            trial = x + alpha[:, None] * step
            ft = sigma * bell(trial)
            # near a maximum the Armijo gain of a Newton step falls below the
            # rounding noise of B, so a short pure-Newton step is taken untested
            trusted = pure[0] and size <= _TRUSTED_STEP
            armijo = ft >= f + _ARMIJO * alpha * np.einsum("ni,ni->n", g, step)
            ok = np.flatnonzero(np.isfinite(ft) & (armijo | trusted))
            if ok.size:
                x, f = trial[ok[0], None], float(ft[ok[0]])
                continue
        return x, f, True, bool(gnorm <= _GRADIENT_TOL and not curved
                                and (h.any() or abs(f - 2.0) <= _TIE))
    return x, f, False, False


def maximize_bell(pi, kind, config=None):
    """Maximize |B| for a Wigner-transform evaluator.

    One search, started at the origin: damped modified Newton on sigma * B,
    sigma the sign of B there, with the gradient and Hessian that ``_bell``
    chains from ``pi(points, 2)``, for at most 4000 iterations.
    Every form, and so the gradient of B, vanishes at the origin; where it
    is a saddle, the first step leaves it along the top eigenvector of
    sigma times the Hessian; a later step takes that escape only where
    |grad B| <= 1e-7. The search retires once its step or gradient is
    within 1e-9, or once its backtracking finds no Armijo point.
    ``converged`` means it stopped within 4000 iterations, with |grad B| <= 1e-7,
    no eigenvalue of its last Newton step above 1e-6 max|lambda| (zero modes
    of the beam's rotation symmetry are allowed), and a Hessian not all zero
    (as on a plateau where Pi underflowed). A maximum of |B| = 2 to within
    1e-12 has ``violation`` False and needs no curvature, as at the origin
    of a mode with l = 0. Each Newton iteration is one order-2 Pi call at
    the start and, unless the start has stopped moving, one order-0 call
    on its whole backtracking ladder. So ``evaluations``, which counts
    every Bell sum computed, value or derivative, includes the trials past
    the one the search accepts. Non-finite values are rejected. The result
    is bit-reproducible for a beam: ``config`` is accepted and ignored.
    """
    _check_kind(kind)
    evaluations = 0

    def bell(u, order=0):
        nonlocal evaluations
        evaluations += len(u)
        return _bell(pi, kind, u, order)

    origin = np.zeros((1, _LIFT[kind].shape[1]))
    value = float(bell(origin)[0])
    sigma = -1.0 if value < 0.0 else 1.0
    x, f, _, converged = _ascend(bell, origin, sigma * value, sigma, _STEP_TOL, _MAX_ITERS)
    return OptimizationResult(best_value=f, argmax=tuple(x[0].tolist()),
                              evaluations=evaluations, converged=converged)


def bell_scan(mode, x_range, samples, py=None):
    """Table of (x, py, |B|) for the restricted sum of an LG mode.

    ``py=None`` scans the diagonal py = x; a float holds py fixed.
    """
    samples = _check_integer(samples, "samples", 2, rule=">= 2")
    lo, hi = (float(x_range[0]), float(x_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ValueError(f"bad scan range [{lo}, {hi}]")
    xs = np.linspace(lo, hi, samples)
    pys = xs if py is None else np.full(samples, float(py))
    b = _bell(lg_transform_evaluator(mode), RESTRICTED, np.column_stack([xs, pys]))
    return np.column_stack([xs, pys, np.abs(b)])


@dataclass(frozen=True)
class EllipticalProfile:
    """Per-t Bell maxima for the elliptical beam, the profile supremum, the t
    values whose search did not converge, and the Bell sums of all searches;
    ``violation`` is whether the supremum exceeds 2 by more than 1e-12."""

    rows: tuple  # ((t, best_abs_B), ...)
    sup_t: float
    sup_value: float
    unconverged_t: tuple
    evaluations: int

    @property
    def violation(self):
        return abs(self.sup_value) - 2.0 > _TIE


def elliptical_profile(t_values=None, kind=GENERAL, config=None):
    """Maximize |B| of the elliptical beam at each squeeze value t.

    The two sign branches are exact mirror images (Y -> -Y, P_Y -> -P_Y maps
    one onto the other), so the per-t maxima are sign-independent and the
    search runs once on the canonical +1 branch. The supremum over the
    scanned grid is reported alongside the profile; ties resolve to the
    first t in the order given. An empty ``t_values`` raises ValueError.
    """
    ts = DEFAULT_T_GRID if t_values is None else tuple(float(t) for t in t_values)
    if not ts:
        raise ValueError("t_values must hold at least one squeeze value")
    rows, unconverged, evaluations = [], [], 0
    sup_t, sup_value = None, -math.inf
    for t in ts:
        result = maximize_bell(elliptical_transform_evaluator((t, +1)), kind, config)
        rows.append((t, result.best_value))
        evaluations += result.evaluations
        if not result.converged:
            unconverged.append(t)
        if result.best_value > sup_value:
            sup_t, sup_value = t, result.best_value
    return EllipticalProfile(rows=tuple(rows), sup_t=sup_t, sup_value=sup_value,
                             unconverged_t=tuple(unconverged), evaluations=evaluations)
