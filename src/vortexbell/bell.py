"""Bell-CHSH sums over phase-space settings and their maximization.

A Bell sum combines four values of a Wigner transform Pi. The restricted
form varies only X on one side and P_Y on the other,

    B = Pi(0,0;0,0) + Pi(x,0;0,0) + Pi(0,0;0,py) - Pi(x,0;0,py),

while the general form assigns each side two full phase-plane settings.
|B| > 2 signals correlations that no local model of the two transverse
modes reproduces. Maximization ranks grid or PCG64-seeded candidates and
refines the best of them together by damped Newton ascent, with the exact
gradient and Hessian that the Pi evaluators give at order 2 and Hessian
eigenvalues flipped to ascend (modified Newton, Nocedal & Wright 2006,
sec. 3.4). The restricted grid is quadratically spaced, dense near 0, where
the violation basin of the mode (n, 0) sits at |x| ~ 0.6/sqrt(n). A short
pure-Newton step skips the Armijo test, whose gain near a maximum is below
the rounding noise of B. Every evaluation is batched over the starts;
everything is deterministic for a fixed seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .wigner import elliptical_transform_evaluator, lg_transform_evaluator

__all__ = [
    "RESTRICTED",
    "GENERAL",
    "BellSettingsRestricted",
    "BellSettingsGeneral",
    "OptimizerConfig",
    "OptimizationResult",
    "EllipticalProfile",
    "bell_sum_restricted",
    "bell_closed_form_10",
    "bell_sum_general",
    "maximize_bell",
    "bell_scan",
    "elliptical_profile",
    "DEFAULT_T_GRID",
]

RESTRICTED = "restricted"
GENERAL = "general"

# general-settings seeding: 16 draws from a 7-per-axis lattice plus 64
# uniform draws; an exhaustive 8D grid would be infeasible
_GENERAL_LATTICE_POINTS = 7
_GENERAL_LATTICE_DRAWS = 16
_GENERAL_UNIFORM_DRAWS = 64

DEFAULT_T_GRID = tuple(round(0.1 * k, 1) for k in range(21))

# term k of the CHSH sum is Pi at the settings _TERMS[k] of
# (X1, P_X1, X2, P_X2, Y1, P_Y1, Y2, P_Y2), with sign _SIGNS[k]
_TERMS = np.array([[0, 1, 4, 5], [2, 3, 4, 5], [0, 1, 6, 7], [2, 3, 6, 7]])
_SIGNS = np.array([1.0, 1.0, 1.0, -1.0])
# _LIFT[kind][k, d, i] is 1 where setting d is coordinate i of term k's point;
# restricted settings (x, py) sit at X2 and P_Y2, every other setting 0
_GENERAL_LIFT = (_TERMS[:, None, :] == np.arange(8)[:, None]).astype(float)
_LIFT = {GENERAL: _GENERAL_LIFT, RESTRICTED: _GENERAL_LIFT[:, [2, 7]]}

# Newton search: curvature floor relative to max|eigenvalue|, Armijo
# sufficient-increase constant, the longest pure-Newton step taken without the
# Armijo test, and the gradient norm a converged maximum meets
_CURVATURE_FLOOR = 1e-6
_ARMIJO = 1e-4
_TRUSTED_STEP = 1e-5
_GRADIENT_TOL = 1e-7
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class BellSettingsRestricted:
    """Settings A in {(0,0), (x,0)} and B in {(0,0), (0,py)}."""

    x: float
    py: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.py)):
            raise ValueError("restricted settings must be finite")


@dataclass(frozen=True)
class BellSettingsGeneral:
    """Two phase-plane settings per side: a1, a2 on (X, P_X); b1, b2 on (Y, P_Y)."""

    a1: tuple
    a2: tuple
    b1: tuple
    b2: tuple

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            pair = getattr(self, name)
            if len(pair) != 2 or not all(math.isfinite(float(v)) for v in pair):
                raise ValueError(f"setting {name} must be a finite (coordinate, momentum) pair")
            object.__setattr__(self, name, (float(pair[0]), float(pair[1])))

    @classmethod
    def from_vector(cls, v):
        """Order (X1, P_X1, X2, P_X2, Y1, P_Y1, Y2, P_Y2)."""
        v = [float(c) for c in v]
        if len(v) != 8:
            raise ValueError(f"expected 8 parameters, got {len(v)}")
        return cls(a1=(v[0], v[1]), a2=(v[2], v[3]), b1=(v[4], v[5]), b2=(v[6], v[7]))

    def to_vector(self):
        return (*self.a1, *self.a2, *self.b1, *self.b2)


def bell_sum_restricted(pi, settings):
    """Restricted four-term Bell sum, a float, from one call of pi on coordinate arrays."""
    if not isinstance(settings, BellSettingsRestricted):
        settings = BellSettingsRestricted(*settings)
    return float(_bell(pi, RESTRICTED, np.array([[settings.x, settings.py]]))[0])


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


def bell_sum_general(pi, settings):
    """General four-term CHSH sum, a float, from one call of pi on coordinate arrays;
    the (a2, b2) term enters with a minus sign."""
    if not isinstance(settings, BellSettingsGeneral):
        settings = BellSettingsGeneral.from_vector(settings)
    return float(_bell(pi, GENERAL, np.array([settings.to_vector()]))[0])


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start search box, seeding, and Newton termination knobs.

    Restricted seeds are the ``grid_points`` x ``grid_points`` grid with axis
    ``grid_bounds * s * |s|``, ``s`` evenly spaced in [-1, 1], so the seeds
    are densest near 0. ``restarts`` seeds are refined. ``simplex_tol`` is
    the step and gain tolerance at which a start retires (the name predates
    the Newton search), and ``max_iters`` caps the Newton iterations of the
    lockstep phase and of the polish each.
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


def _seed_points(kind, cfg):
    bound = cfg.grid_bounds
    if kind == RESTRICTED:
        # quadratic spacing, dense near 0: the violation basin has |x| ~ 0.6/sqrt(n)
        s = np.linspace(-1.0, 1.0, cfg.grid_points)
        axis = bound * s * np.abs(s)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    lattice = np.linspace(-bound, bound, _GENERAL_LATTICE_POINTS)
    picks = rng.integers(0, _GENERAL_LATTICE_POINTS, size=(_GENERAL_LATTICE_DRAWS, 8))
    uniform = rng.uniform(-bound, bound, size=(_GENERAL_UNIFORM_DRAWS, 8))
    return np.vstack([np.zeros((1, 8)), lattice[picks], uniform])


def _bell(pi, kind, u, order=0):
    """B on rows of settings u, (N, 8) general or (N, 2) restricted (x, py),
    from one Pi call on the four term points of every row.

    At order 2, the only other order, also the gradient (N, d) and Hessian
    (N, d, d) of B over those settings: each term's Pi derivatives pulled
    back through _LIFT with its sign.
    """
    lift = _LIFT[kind]
    points = np.einsum("nd,kdi->ink", u, lift)
    if not order:
        return (pi(points) * _SIGNS).sum(axis=1)
    t, grad_t, hess_t = pi(points, 2)
    signed = _SIGNS[:, None, None] * lift
    return ((t * _SIGNS).sum(axis=1), np.einsum("nki,kdi->nd", grad_t, signed),
            np.einsum("nkij,kdi,kej->nde", hess_t, signed, lift))


def _newton_step(grad, hess):
    """Modified-Newton ascent steps (Nocedal & Wright 2006, sec. 3.4), where
    each Hessian curves upward, and where it is negative definite, so that
    no eigenvalue is flipped and the step is the pure Newton step.

    Every eigenvalue is replaced by -max(|lambda|, floor), floor = 1e-6 max|lambda|,
    so the step ascends. Where the top eigenvalue exceeds the floor (a saddle
    or a valley), the step also goes 1/sqrt(lambda_max) along its eigenvector,
    uphill, which moves a start off a saddle where the gradient vanishes.
    """
    lam, vec = np.linalg.eigh(hess)
    floor = _CURVATURE_FLOOR * np.abs(lam).max(axis=1)
    scale = np.maximum(np.abs(lam), np.maximum(floor, _TINY)[:, None])
    step = np.einsum("nij,nj->ni", vec, np.einsum("nij,ni->nj", vec, grad) / scale)
    top, top_vec = lam[:, -1], vec[:, :, -1]
    uphill = np.where(np.einsum("ni,ni->n", grad, top_vec) < 0.0, -1.0, 1.0)
    escape = np.where(top > floor, uphill / np.sqrt(np.maximum(top, _TINY)), 0.0)
    return step + escape[:, None] * top_vec, top > floor, top < 0.0


def _ascend(bell, x, f, sigma, tol, max_iters, gain_rule):
    """Damped modified-Newton ascent of sigma * B from every row of x, in lockstep.

    ``bell(u, order)`` evaluates B on rows of settings. A start retires when
    its step, or its gradient with no uphill curvature left, is within
    ``tol``, when backtracking finds no Armijo point with a step above
    ``tol``, or, with ``gain_rule``, when its gain in sigma * B is within
    ``tol``. A pure-Newton step of length <= 1e-5 is taken without the
    Armijo test. Returns x, f = sigma * B, whether each start retired within
    ``max_iters``, and the gradient and Hessian of sigma * B at the last
    point where they were taken.
    """
    x, f = x.copy(), f.copy()
    active = np.isfinite(f)
    grad = np.zeros(x.shape)
    hess = np.zeros(x.shape + x.shape[1:])
    for _ in range(max_iters):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        _, g, h = bell(x[idx], 2)
        g *= sigma[idx, None]
        h *= sigma[idx, None, None]
        grad[idx], hess[idx] = g, h
        finite = np.isfinite(g).all(axis=1) & np.isfinite(h).all(axis=(1, 2))
        step = np.zeros(g.shape)
        curved = np.zeros(idx.size, dtype=bool)
        pure = np.zeros(idx.size, dtype=bool)
        if finite.any():
            step[finite], curved[finite], pure[finite] = _newton_step(g[finite], h[finite])
        gnorm = np.linalg.norm(g, axis=1)
        size = np.linalg.norm(step, axis=1)
        moving = finite & (size > tol) & ~((gnorm <= tol) & ~curved)
        active[idx[~moving]] = False
        # near a maximum the Armijo gain of a Newton step falls below the
        # rounding noise of B, so a short pure-Newton step is taken untested
        trusted = (pure & (size <= _TRUSTED_STEP))[moving]
        idx, g, step, size = idx[moving], g[moving], step[moving], size[moving]
        # Armijo backtracking, halving in lockstep over the starts still searching
        slope = np.einsum("ni,ni->n", g, step)
        alpha = np.ones(idx.size)
        pending = np.arange(idx.size)
        while pending.size:
            rows = idx[pending]
            trial = x[rows] + alpha[pending, None] * step[pending]
            ft = sigma[rows] * bell(trial)
            armijo = ft >= f[rows] + _ARMIJO * alpha[pending] * slope[pending]
            ok = np.isfinite(ft) & (armijo | trusted[pending])
            gain = ft[ok] - f[rows[ok]]
            x[rows[ok]], f[rows[ok]] = trial[ok], ft[ok]
            if gain_rule:
                active[rows[ok][gain <= tol]] = False
            pending = pending[~ok]
            alpha[pending] *= 0.5
            spent = alpha[pending] * size[pending] <= tol
            active[idx[pending[spent]]] = False
            pending = pending[~spent]
    return x, f, ~active, grad, hess


def maximize_bell(pi, kind, config=None):
    """Maximize |B| for a Wigner-transform evaluator.

    Seeds come from a deterministic grid (restricted) or a PCG64-keyed
    lattice subsample plus uniform draws (general). The best ``restarts``
    seeds ascend together by damped modified Newton on sigma * B, sigma the
    sign of B at the seed, with the gradient and Hessian from ``pi(point, 2)``;
    a start retires once its step, gradient or gain is within
    ``simplex_tol``. The best start is then polished alone, without the gain
    rule. ``converged`` means the polish stopped within ``max_iters``, with
    |grad B| <= 1e-7 and no Hessian eigenvalue above 1e-6 max|lambda| (zero
    modes of the beam's rotation symmetry are allowed). ``evaluations``
    counts Bell sums, value or derivative. Non-finite values are rejected.
    The result is bit-reproducible for a fixed config.
    """
    if kind not in (RESTRICTED, GENERAL):
        raise ValueError(f"kind must be {RESTRICTED!r} or {GENERAL!r}, got {kind!r}")
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
    converged = bool(
        stopped[0]
        and np.isfinite(f[0])
        and np.linalg.norm(grad[0]) <= _GRADIENT_TOL
        and lam[-1] <= _CURVATURE_FLOOR * np.abs(lam).max()
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


def elliptical_profile(t_values=None, kind=GENERAL, sign=+1, config=None):
    """Maximize |B| of the elliptical beam at each squeeze value t.

    The two sign branches are exact mirror images (Y -> -Y, P_Y -> -P_Y maps
    one onto the other), so the per-t maxima are sign-independent and the
    search runs once on the canonical +1 branch. The supremum over the
    scanned grid is reported alongside the profile; ties resolve to the
    smallest t. An empty ``t_values`` raises ValueError.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
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
