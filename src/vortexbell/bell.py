"""Bell-CHSH sums over phase-space settings and their maximization.

A Bell sum combines four values of a Wigner transform Pi. The restricted
form varies only X on one side and P_Y on the other,

    B = Pi(0,0;0,0) + Pi(x,0;0,0) + Pi(0,0;0,py) - Pi(x,0;0,py),

while the general form assigns each side two full phase-plane settings.
|B| > 2 signals correlations that no local model of the two transverse
modes reproduces. Maximization is multi-start Nelder-Mead over grid plus
PCG64-seeded candidates; everything is deterministic for a fixed seed. The
simplex search is numpy-only and replays scipy's Nelder-Mead step for step,
so it returns bit for bit what ``scipy.optimize.minimize`` would.
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


def _general(pi, v):
    """The CHSH sum for v = (X1, P_X1, X2, P_X2, Y1, P_Y1, Y2, P_Y2)."""
    return (
        pi((v[0], v[1], v[4], v[5]))
        + pi((v[2], v[3], v[4], v[5]))
        + pi((v[0], v[1], v[6], v[7]))
        - pi((v[2], v[3], v[6], v[7]))
    )


def _restricted(pi, x, py):
    """The general sum at a1 = b1 = (0, 0), a2 = (x, 0), b2 = (0, py)."""
    return _general(pi, (0.0, 0.0, x, 0.0, 0.0, 0.0, 0.0, py))


def bell_sum_restricted(pi, settings):
    """Restricted four-term Bell sum of the Wigner transform pi."""
    if not isinstance(settings, BellSettingsRestricted):
        settings = BellSettingsRestricted(*settings)
    return _restricted(pi, settings.x, settings.py)


def bell_closed_form_10(x, py):
    """Closed-form restricted Bell sum for the lowest vortex mode (1, 0)."""
    if not (math.isfinite(x) and math.isfinite(py)):
        raise ValueError("settings must be finite")
    return (
        math.exp(-py * py) * (py * py - 1.0)
        + math.exp(-x * x) * (x * x - 1.0)
        - math.exp(-py * py - x * x) * ((py + x) ** 2 - 1.0)
        - 1.0
    )


def bell_sum_general(pi, settings):
    """General four-term CHSH sum; the (a2, b2) term enters with a minus sign."""
    if not isinstance(settings, BellSettingsGeneral):
        settings = BellSettingsGeneral.from_vector(settings)
    return _general(pi, settings.to_vector())


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start search box, seeding, and simplex termination knobs."""

    grid_bounds: float = 2.0
    grid_points: int = 21
    restarts: int = 8
    simplex_tol: float = 1e-9
    max_iters: int = 4000
    seed: int = 12345

    def __post_init__(self):
        for name in ("grid_points", "restarts", "max_iters"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not 0.0 < self.grid_bounds < math.inf:
            raise ValueError(f"grid_bounds must be positive and finite, got {self.grid_bounds}")
        if self.grid_points < 3:
            raise ValueError(f"grid_points must be >= 3, got {self.grid_points}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not self.simplex_tol >= 1e-12:
            raise ValueError(f"simplex_tol must be >= 1e-12, got {self.simplex_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


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
        axis = np.linspace(-bound, bound, cfg.grid_points)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    lattice = np.linspace(-bound, bound, _GENERAL_LATTICE_POINTS)
    picks = rng.integers(0, _GENERAL_LATTICE_POINTS, size=(_GENERAL_LATTICE_DRAWS, 8))
    uniform = rng.uniform(-bound, bound, size=(_GENERAL_UNIFORM_DRAWS, 8))
    return np.vstack([np.zeros((1, 8)), lattice[picks], uniform])


class _EvaluationCap(Exception):
    """A Nelder-Mead step asked for one evaluation more than maxfev allows."""


def _nelder_mead(f, x0, tol, maxiter, maxfev):
    """Minimize f from the float array x0; returns (x, fun, nfev, success).

    Non-adaptive Nelder-Mead (Lagarias et al. 1998, SIAM J. Optim. 9:112):
    reflection 1, expansion 2, contraction and shrink 1/2. It replays scipy
    1.17's unbounded ``_minimize_neldermead`` step for step: the same initial
    simplex, floating-point expressions, argsort tie-breaking, stopping test
    (``xatol = fatol = tol``) and evaluation cap (a step that would exceed
    ``maxfev`` is abandoned midway and the simplex re-sorted), so x, fun,
    nfev and success are bit-identical to scipy's. f receives a list of
    floats.
    """
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[:] = x0
    sim[1:][np.diag_indices(n)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _EvaluationCap
        nfev += 1
        return f(x.tolist())

    def ranked(sim, fsim):
        ind = fsim.argsort()
        return sim.take(ind, 0), fsim.take(ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _EvaluationCap:
        pass
    sim, fsim = ranked(*ranked(sim, fsim))  # scipy sorts twice here
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if abs(sim[1:] - sim[0]).max() <= tol and abs(fsim[0] - fsim[1:]).max() <= tol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = call(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
            iterations += 1
        except _EvaluationCap:
            pass
        sim, fsim = ranked(sim, fsim)
    return sim[0], fsim.min(), nfev, nfev < maxfev and iterations < maxiter


def maximize_bell(pi, kind, config=None):
    """Maximize |B| for a Wigner-transform evaluator.

    Seeds come from a deterministic grid (restricted) or a PCG64-keyed
    lattice subsample plus uniform draws (general); the best ``restarts``
    seeds are refined by Nelder-Mead until the simplex diameter drops below
    ``simplex_tol``. Non-finite evaluations are clamped out of the search.
    The result is bit-reproducible for a fixed config.
    """
    if kind not in (RESTRICTED, GENERAL):
        raise ValueError(f"kind must be {RESTRICTED!r} or {GENERAL!r}, got {kind!r}")
    cfg = config if config is not None else OptimizerConfig()
    restricted = kind == RESTRICTED
    evaluations = 0

    def objective(v):
        nonlocal evaluations
        evaluations += 1
        b = _restricted(pi, v[0], v[1]) if restricted else _general(pi, v)
        if not math.isfinite(b):
            return math.inf
        return -abs(b)

    seeds = _seed_points(kind, cfg)
    seed_values = np.array([objective(s) for s in seeds.tolist()])
    ranking = seed_values.argsort(kind="stable")[: cfg.restarts]
    maxfev = max(cfg.max_iters, 10 * seeds.shape[1])

    best = None  # (value, argmax_tuple, converged)
    for idx in ranking:
        x, fun, _, success = _nelder_mead(
            objective, seeds[idx], cfg.simplex_tol, cfg.max_iters, maxfev
        )
        candidate = (float(fun), tuple(x.tolist()), success)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
    fun, argmax, converged = best
    return OptimizationResult(
        best_value=-fun, argmax=argmax, evaluations=evaluations, converged=converged
    )


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
    b = _restricted(lg_transform_evaluator(mode), xs, pys)
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
