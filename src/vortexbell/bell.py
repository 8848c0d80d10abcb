"""Bell-CHSH sums over phase-space settings and their maximization.

A Bell sum combines four values of a Wigner transform Pi. The restricted
form varies only X on one side and P_Y on the other,

    B = Pi(0,0;0,0) + Pi(x,0;0,0) + Pi(0,0;0,py) - Pi(x,0;0,py),

while the general form assigns each side two full phase-plane settings.
|B| > 2 signals correlations that no local model of the two transverse
modes reproduces. Maximization ranks grid or PCG64-seeded candidates and
refines the best of them together by damped Newton ascent, with the exact
gradient and Hessian of B chained from the forms and partials the Pi
evaluators give at order 2, and Hessian eigenvalues flipped to ascend
(modified Newton, Nocedal & Wright 2006, sec. 3.4). The restricted grid is
quadratically spaced, dense near 0, where the violation basin of the mode
(n, 0) sits at |x| ~ 0.6/sqrt(n). Each Newton step backtracks over every
start's ladder of halved steps in one Pi call. A short pure-Newton step
skips the Armijo test, whose gain near a maximum is below the rounding
noise of B. A start below the incumbent, the best value of a start that
has stopped, stops at the end of the iteration. Every evaluation is
batched over the starts; everything is deterministic for a fixed seed.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import _as_finite
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

# general-settings seeding: 16 draws from a 7-per-axis lattice plus 64
# uniform draws; an exhaustive 8D grid would be infeasible
_GENERAL_LATTICE_POINTS = 7
_GENERAL_LATTICE_DRAWS = 16
_GENERAL_UNIFORM_DRAWS = 64


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
# Armijo test, and the gradient norm a converged maximum meets
_CURVATURE_FLOOR = 1e-6
_ARMIJO = 1e-4
_TRUSTED_STEP = 1e-5
_GRADIENT_TOL = 1e-7
_TINY = np.finfo(float).tiny


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
    """Multi-start search box, seeding, and Newton termination knobs.

    Restricted seeds are the ``grid_points`` x ``grid_points`` grid with axis
    ``grid_bounds * s * |s|``, ``s`` evenly spaced in [-1, 1], so the seeds
    are densest near 0. ``restarts`` seeds are refined until they stop or
    fall behind a stopped start. ``simplex_tol`` is the step and gain
    tolerance at which a start retires (the name predates the Newton
    search), and ``max_iters`` caps the Newton iterations of the lockstep
    phase and of the polish each. ``converged`` keeps its fixed gradient
    test, |grad B| <= 1e-7, whatever ``simplex_tol`` is, so a coarse
    tolerance can stop a search short of it and report False.
    """

    grid_bounds: float = 2.0
    grid_points: int = 21
    restarts: int = 8
    simplex_tol: float = 1e-9
    max_iters: int = 4000
    seed: int = 12345

    def __post_init__(self):
        for name in ("grid_points", "restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not 0.0 < self.grid_bounds < math.inf:
            raise ValueError(f"grid_bounds must be positive and finite, got {self.grid_bounds}")
        if self.grid_points < 3:
            raise ValueError(f"grid_points must be >= 3, got {self.grid_points}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not 1e-12 <= self.simplex_tol < math.inf:
            raise ValueError(f"simplex_tol must be >= 1e-12 and finite, got {self.simplex_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OptimizationResult:
    """|B| at the maximum, the maximizing settings, and search diagnostics."""

    best_value: float
    argmax: tuple
    evaluations: int
    converged: bool


@functools.lru_cache(maxsize=64)
def _seed_points(kind, cfg):
    """The seeds of a search, read-only, made once per kind and config; every
    draw is on [-1, 1] times ``grid_bounds``, so none overflows."""
    bound = cfg.grid_bounds
    if kind == RESTRICTED:
        # quadratic spacing, dense near 0: the violation basin has |x| ~ 0.6/sqrt(n)
        s = np.linspace(-1.0, 1.0, cfg.grid_points)
        axis = bound * s * np.abs(s)
        seeds = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        lattice = bound * np.linspace(-1.0, 1.0, _GENERAL_LATTICE_POINTS)
        picks = rng.integers(0, _GENERAL_LATTICE_POINTS, size=(_GENERAL_LATTICE_DRAWS, 8))
        seeds = np.vstack([np.zeros((1, 8)), lattice[picks],
                           bound * rng.uniform(-1.0, 1.0, size=(_GENERAL_UNIFORM_DRAWS, 8))])
    seeds.flags.writeable = False
    return seeds


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
    or a valley), the step also goes 1/sqrt(lambda_max) along its eigenvector,
    uphill (+ on a tie), which moves a start off a saddle where the gradient
    vanishes. That escape is folded into the step's top eigen-coefficient.
    """
    lam, vec = np.linalg.eigh(hess)
    floor = _CURVATURE_FLOOR * np.abs(lam).max(axis=1)
    top = lam[:, -1]
    coef = (grad[:, None] @ vec)[:, 0]
    uphill = np.where(coef[:, -1] < 0.0, -1.0, 1.0)
    coef /= np.maximum(np.abs(lam), np.maximum(floor, _TINY)[:, None])
    coef[:, -1] += np.where(top > floor, uphill / np.sqrt(np.maximum(top, _TINY)), 0.0)
    return (vec @ coef[:, :, None])[:, :, 0], top > floor, top < 0.0


def _ascend(bell, x, f, sigma, tol, max_iters, gain_rule):
    """Damped modified-Newton ascent of sigma * B from every row of x, in lockstep.

    ``bell(u, order)`` evaluates B on rows of settings. A start stops when
    its step, or its gradient with no uphill curvature left, is within
    ``tol`` (it is not moving: no ladder), when backtracking finds no Armijo
    point with a step above ``tol``, or, with ``gain_rule``, when its gain in
    sigma * B is within ``tol``; so then does a start below the incumbent,
    the highest f of a stopped start, and all leave the search in one pass at
    the end of the iteration. Backtracking halves the step while alpha *
    |step| > ``tol``; the moving starts' ladders are one ``bell`` call, and a
    start takes its first Armijo point, the one that halving one trial at a
    time finds. A pure-Newton step of length <= 1e-5 is taken without the
    Armijo test. Returns x, f = sigma * B, whether each start retired within
    ``max_iters``, and the gradient and Hessian of sigma * B at the last
    point where they were taken.
    """
    x, f = x.copy(), f.copy()
    grad, hess = np.zeros(x.shape), np.zeros(x.shape + x.shape[1:])
    # the searching rows idx, with their x, f and sigma
    idx = np.flatnonzero(np.isfinite(f))
    xs, fs, ss = x[idx], f[idx], sigma[idx]
    best = -math.inf  # the incumbent: the highest f of a start that stopped
    # Armijo backtracking in one call: every moving start's halving ladder
    # alpha_j = 2^-j, j = 0 and every j >= 1 with alpha_j * size > tol
    # (exact products, so its length follows from the exponents), as a
    # (rung, start) rectangle over the widest ladder, NaN past a start's own
    # ladder; every moving start has size > tol, so with none it is one dead rung
    tol_exponent = math.frexp(tol)[1]
    alpha = np.ldexp(1.0, -np.arange(np.finfo(float).maxexp - tol_exponent + 1))
    for _ in range(max_iters):
        if not idx.size:
            break
        _, g, h = bell(xs, 2)
        g *= ss[:, None]
        h *= ss[:, None, None]
        grad[idx], hess[idx] = g, h
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            # a jet that is not finite is zeroed: its row takes no step and retires
            stuck = ~(np.isfinite(g).all(axis=1) & np.isfinite(h).all(axis=(1, 2)))
            g[stuck], h[stuck] = 0.0, 0.0
        step, curved, pure = _newton_step(g, h)
        size = np.sqrt((step * step).sum(axis=1))
        moving = (size > tol) & ((np.sqrt((g * g).sum(axis=1)) > tol) | curved)
        # near a maximum the Armijo gain of a Newton step falls below the
        # rounding noise of B, so a short pure-Newton step is taken untested
        trusted = pure & (size <= _TRUSTED_STEP)
        width = math.frexp(size[moving].max(initial=tol))[1] - tol_exponent + 1
        ladder = (alpha[:width, None] * size > tol) & moving
        trial = xs + alpha[:width, None, None] * step
        ft = np.full(ladder.shape, np.nan)
        if ladder.any():
            ft[ladder] = bell(trial[ladder])
        ft *= ss
        slope = np.einsum("ni,ni->n", g, step)
        armijo = ft >= fs + _ARMIJO * alpha[:width, None] * slope
        ok = np.isfinite(ft) & (armijo | trusted)
        # each start takes its first acceptable rung; one with none retires,
        # and so does one the gain rule stops or one below the incumbent
        taken = ok.any(axis=0)
        rung = (ok.argmax(axis=0), np.arange(idx.size))
        gain = ft[rung] - fs
        xs, fs = np.where(taken[:, None], trial[rung], xs), np.where(taken, ft[rung], fs)
        out = ~taken | (gain <= tol) if gain_rule else ~taken
        best = fs[out].max(initial=best)
        out |= fs < best
        if out.any():
            x[idx[out]], f[idx[out]] = xs[out], fs[out]
            idx, xs, fs, ss = (a[~out] for a in (idx, xs, fs, ss))
    x[idx], f[idx] = xs, fs
    return x, f, np.bincount(idx, minlength=len(x)) == 0, grad, hess


def maximize_bell(pi, kind, config=None):
    """Maximize |B| for a Wigner-transform evaluator.

    Seeds come from a deterministic grid (restricted) or a PCG64-keyed
    lattice subsample plus uniform draws (general). The best ``restarts``
    seeds ascend together by damped modified Newton on sigma * B, sigma the
    sign of B at the seed, with the gradient and Hessian that ``_bell``
    chains from ``pi(points, 2)``; a start retires once its step, gradient
    or gain is within ``simplex_tol``, or once it is below the best value
    of a retired start. The best start is then polished alone, without the
    gain rule. ``converged`` means the polish stopped within ``max_iters``,
    with |grad B| <= 1e-7, a Hessian not all zero (as on a plateau where Pi
    underflowed) and no Hessian eigenvalue above 1e-6 max|lambda| (zero
    modes of the beam's rotation symmetry are allowed). ``evaluations``
    counts every Bell sum computed, value or derivative, so not those a
    trailing start would have taken after it was cut; since each Newton
    step evaluates its whole backtracking ladder at once, it includes the
    trials past the one a start accepts. Non-finite values are rejected.
    The result is bit-reproducible for a fixed config.
    """
    _check_kind(kind)
    cfg = config if config is not None else OptimizerConfig()
    evaluations = 0

    def bell(u, order=0):
        nonlocal evaluations
        evaluations += len(u)
        return _bell(pi, kind, u, order)

    seeds = _seed_points(kind, cfg)
    values = bell(seeds)
    key = np.where(np.isfinite(values), -np.abs(values), np.inf)
    starts = key.argsort(kind="stable")[: cfg.restarts]
    sigma = np.where(values[starts] < 0.0, -1.0, 1.0)
    x, f, _, _, _ = _ascend(bell, seeds[starts], sigma * values[starts], sigma,
                            cfg.simplex_tol, cfg.max_iters, gain_rule=True)
    w = [int(np.argmax(np.where(np.isfinite(f), f, -np.inf)))]
    x, f, stopped, grad, hess = _ascend(bell, x[w], f[w], sigma[w],
                                        cfg.simplex_tol, cfg.max_iters, gain_rule=False)
    lam = np.linalg.eigvalsh(hess[0]) if np.all(np.isfinite(hess)) else np.array([np.nan])
    curvature = np.abs(lam).max()
    converged = bool(
        stopped[0]
        and np.isfinite(f[0])
        and np.linalg.norm(grad[0]) <= _GRADIENT_TOL
        and curvature > 0.0
        and lam[-1] <= _CURVATURE_FLOOR * curvature
    )
    return OptimizationResult(best_value=float(f[0]), argmax=tuple(x[0].tolist()),
                              evaluations=evaluations, converged=converged)


def bell_scan(mode, x_range, samples, py=None):
    """Table of (x, py, |B|) for the restricted sum of an LG mode.

    ``py=None`` scans the diagonal py = x; a float holds py fixed.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    lo, hi = (float(x_range[0]), float(x_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ValueError(f"bad scan range [{lo}, {hi}]")
    xs = np.linspace(lo, hi, samples)
    pys = xs if py is None else np.full(samples, float(py))
    b = _bell(lg_transform_evaluator(mode), RESTRICTED, np.column_stack([xs, pys]))
    return np.column_stack([xs, pys, np.abs(b)])


@dataclass(frozen=True)
class EllipticalProfile:
    """Per-t Bell maxima for the elliptical beam and the profile supremum."""

    rows: tuple  # ((t, best_abs_B), ...)
    sup_t: float
    sup_value: float
    all_converged: bool


def elliptical_profile(t_values=None, kind=GENERAL, config=None):
    """Maximize |B| of the elliptical beam at each squeeze value t.

    The two sign branches are exact mirror images (Y -> -Y, P_Y -> -P_Y maps
    one onto the other), so the per-t maxima are sign-independent and the
    search runs once on the canonical +1 branch. The supremum over the
    scanned grid is reported alongside the profile; ties resolve to the
    smallest t. An empty ``t_values`` raises ValueError.
    """
    ts = DEFAULT_T_GRID if t_values is None else tuple(float(t) for t in t_values)
    if not ts:
        raise ValueError("t_values must hold at least one squeeze value")
    rows = []
    sup_t, sup_value = None, -math.inf
    all_converged = True
    for t in ts:
        pi = elliptical_transform_evaluator((t, +1))
        result = maximize_bell(pi, kind, config)
        rows.append((t, result.best_value))
        all_converged = all_converged and result.converged
        if result.best_value > sup_value:
            sup_t, sup_value = t, result.best_value
    return EllipticalProfile(
        rows=tuple(rows), sup_t=sup_t, sup_value=sup_value, all_converged=all_converged
    )
