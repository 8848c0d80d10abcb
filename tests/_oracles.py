"""Independent oracles for the test suite.

Nothing in here goes through the package's evaluation paths, save the
moment integrals, the Bell search and the log-domain Pi: polynomial series
run in exact rational arithmetic, Hermite polynomials by their own
recurrence, fields come from the literal polar formulas with scipy
polynomials, and integrals rebuild Gauss-Hermite rules straight from numpy.
The moment integrals take the package's field and the analytic gradient
below, so they check the closed-form moment table against the fields it
describes.
The seeded multi-start is the Bell search as it ran before it started at
the origin alone: a grid (restricted) or the origin and 80 draws of
``random.Random(seed)`` (general), ranked by |B|, the best of them each
ascended by the package's one-start ``_ascend`` (``ascend_each``), so it
gives maxima the one start must reach. The Bell search is the multi-start
Nelder-Mead loop that ``maximize_bell``'s Newton search replaced, run by
scipy on the same seeds and the package's Bell sums, so it gives a maximum
the Newton search must reach.
The log-domain Pi takes the package's renormalizing ``laguerre_scaled``
recurrence, so it checks the plain-product Pi far from the origin.
The sequential Newton ascent is the search ``maximize_bell`` ran before its
backtracking went into one call per step: the same steps, halved one trial
at a time, so the one-call search must return its points bit for bit. It
takes rows of starts in lockstep, but the tests run it one start at a time,
as ``_ascend`` runs: a row's bits can depend on the batch it shares.
The maximum verdict is the test ``maximize_bell`` applied to the winning
start's last gradient and Hessian before ``_ascend`` took it from the Newton
step's eigendecomposition: one ``eigvalsh`` per row, on the sequential
ascent's jets.
The exact Bell sum evaluates B at float settings in 60-digit ``decimal``
arithmetic: the term points and forms as Fractions, the Laguerre factors by
``laguerre_exact`` and the exponentials in ``decimal``, so it checks the
rounding of a reported maximum at its argmax.
The einsum Newton step is the modified-Newton step as three einsums, with
the escape step added after, as it was before the step became two matmuls
around ``eigh``: the same step, rounded differently.
The z-space jet is the chain rule the Pi evaluators applied before the Bell
search differentiated in settings space: the gradient and Hessian of Pi
over (X, P_X, Y, P_Y) from the forms and partials ``pi(point, 2)`` returns,
and the Bell jet pulls it back through the lift table as a sum per term.
The unblocked Schmidt sum is ``reconstruct_from_schmidt`` as it ran before
large grids went through it in cache-sized blocks: one pass over arrays of
the full broadcast shape, so every block must match it bit for bit.
The two-field Wigner integral is ``NumericWignerPlan``'s sum as it ran
before E(R - xi) came from E(R + xi) on the reversed nodes: the field
evaluated at R + xi and at R - xi on the meshgrid of the plan's nodes.
The 50-digit Schmidt weights and LG norms take f_k straight from its binomial
sum and run the factorial ratios and square roots in ``decimal``.
``wigner_args`` gives the closed forms' arguments Q0 and Q2 literally.
The one-product LG amplitude is ``lg_amplitude`` as it ran before it built
the real radial factor first: sign, norm, complex spiral, Laguerre factor
(L_0 = 1 too) and Gaussian multiplied left to right, so the same values
rounded differently.
"""

import cmath
import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize
from scipy.special import eval_genlaguerre

from vortexbell import bell, specfun, wigner
from vortexbell.modes import (_hermite_function, _hermite_functions, _lg_norm, as_mode,
                              lg_amplitude, schmidt_coefficients)
from vortexbell.specfun import _as_finite, _laguerre


def laguerre_exact(p, alpha, x):
    """Direct series sum_k C(p+alpha, p-k) (-x)^k / k! at a float or Fraction x, as a Fraction."""
    a, d = Fraction(x).as_integer_ratio()
    # p! d^p times the series, summed in integers
    total = sum((-1) ** k * math.comb(p + alpha, p - k) * (math.factorial(p) // math.factorial(k))
                * a**k * d ** (p - k) for k in range(p + 1))
    return Fraction(total, math.factorial(p) * d**p)


def laguerre_series(p, alpha, x):
    """``laguerre_exact`` rounded once to a float."""
    return float(laguerre_exact(p, alpha, x))


def _decimal(q):
    """A Fraction as a Decimal, rounded once in the current context."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def lg_pi_exact(mode):
    """Pi_nm at a point of Fractions, (-1)^{n+m} L_n(u+) L_m(u-) e^{-4Q0} with
    u+- = 4Q0 +- 4Q2: the Laguerre factors and forms exact, one rounding to
    Decimal, then e^{-4Q0} in the current Decimal context."""
    n, m = mode

    def pi(point):
        x, px, y, py = point
        four_q0, four_q2 = x * x + y * y + px * px + py * py, 2 * (x * py - y * px)
        poly = laguerre_exact(n, 0, four_q0 + four_q2) * laguerre_exact(m, 0, four_q0 - four_q2)
        return (-1) ** (n + m) * _decimal(poly) * (-_decimal(four_q0)).exp()
    return pi


def elliptical_pi_exact(t):
    """Pi of the + branch at a point of Fractions, exp(-4Q0 cosh 2t + 2 sinh 2t (XY - P_X P_Y)),
    with cosh and sinh of the float t from e^{2t} in the current Decimal context."""
    def pi(point):
        x, px, y, py = point
        e2t = (2 * Decimal(t)).exp()
        cosh, sinh = (e2t + 1 / e2t) / 2, (e2t - 1 / e2t) / 2
        return (-_decimal(x * x + y * y + px * px + py * py) * cosh
                + 2 * sinh * _decimal(x * y - px * py)).exp()
    return pi


def bell_exact(pi_exact, kind, settings):
    """B at float settings to 60 digits, a Decimal: each term point read off
    ``bell._LIFT`` as exact Fractions of the settings, and Pi from ``pi_exact``."""
    lift = bell._LIFT[kind]
    u = [Fraction(float(v)) for v in settings]
    with localcontext() as ctx:
        ctx.prec = 60
        total = Decimal(0)
        for k, sign in enumerate(bell._SIGNS):
            point = [sum((u[d] for d in range(len(u)) if lift[k, d, i]), Fraction(0))
                     for i in range(4)]
            total += int(sign) * pi_exact(point)
        return total


# pi to 50 digits
_PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def schmidt_magnitudes_decimal(n, m):
    """|c_k| = |f_k| sqrt(k!(N-k)!/(n!m!2^N)), N = n + m, for k = 0..N, to 50 digits."""
    total = n + m
    with localcontext() as ctx:
        ctx.prec = 50
        out = []
        for k in range(total + 1):
            fk = sum((-1) ** j * math.comb(n, j) * math.comb(m, k - j)
                     for j in range(max(0, k - m), min(n, k) + 1))
            ratio = Decimal(math.factorial(k) * math.factorial(total - k)) / (
                Decimal(math.factorial(n) * math.factorial(m)) * Decimal(2) ** total)
            out.append(abs(fk) * ratio.sqrt())
        return out


def lg_norm_decimal(radial, azimuthal):
    """sqrt(p! / (pi (p+|l|)!)) to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return (Decimal(math.factorial(radial))
                / (_PI_50 * math.factorial(radial + azimuthal))).sqrt()


def wigner_args(point):
    """(Q0, Q2) for a phase-space point; components may be arrays."""
    x, px, y, py = point
    q0 = 0.25 * (x * x + y * y + px * px + py * py)
    q2 = 0.5 * (x * py - y * px)
    return q0, q2


def lg_amplitude_product(mode, X, Y):
    """LG amplitude as sign norm (X + i sgn(l) Y)^|l| L_p^|l|(r^2) e^{-r^2/2}, 0 on underflow."""
    mode = as_mode(mode)
    p, a, l = mode.radial, abs(mode.l), mode.l
    X, Y = _as_finite(X), _as_finite(Y)
    sign = -1.0 if p % 2 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = X * X + Y * Y
        gauss = np.exp(-0.5 * r2)
        spiral = 1.0 if a == 0 else (X + 1j * math.copysign(1.0, l) * Y) ** a
        value = sign * _lg_norm(p, a) * spiral * _laguerre(p, a, r2) * gauss
    return np.where(gauss > 0.0, value, 0.0).astype(complex)


def hermite_series(n, x):
    """Explicit Hermite series n! sum_k (-1)^k (2x)^{n-2k} / (k!(n-2k)!), exact rationals."""
    xf = Fraction(x)
    total = Fraction(0)
    for k in range(n // 2 + 1):
        total += (
            Fraction((-1) ** k, math.factorial(k) * math.factorial(n - 2 * k))
            * (2 * xf) ** (n - 2 * k)
        )
    return float(math.factorial(n) * total)


def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x) by its recurrence; n <= 64, x finite.

    The package evaluates HG modes through the unit-norm Hermite functions
    instead, so this plain-polynomial recurrence is an independent route.
    """
    n = specfun._check_degree(n, "n")
    x = specfun._as_finite(x)
    one = x * 0.0 + 1.0
    if n == 0:
        return one
    prev = one
    cur = 2.0 * x
    for k in range(2, n + 1):
        prev, cur = cur, 2.0 * x * cur - 2.0 * (k - 1.0) * prev
    return cur


def lg_polar(n, m, X, Y, waist=1.7):
    """Scaled LG amplitude via the physical polar-form definition.

    Evaluates the product formula (azimuthal phase, Gaussian, radial power,
    generalized Laguerre from scipy, factorial prefactors) at the physical
    point x = waist*X/sqrt(2), then applies the Jacobian factor waist/sqrt(2)
    that makes the scaled amplitude unit-normalized in (X, Y).
    """
    x = waist * X / math.sqrt(2.0)
    y = waist * Y / math.sqrt(2.0)
    rho = math.hypot(x, y)
    theta = math.atan2(y, x)
    p, l = min(n, m), abs(n - m)
    value = (
        cmath.exp(1j * (n - m) * theta)
        * math.exp(-(rho**2) / waist**2)
        * (-1.0) ** p
        * (rho * math.sqrt(2.0) / waist) ** l
        * math.sqrt(2.0 / (math.pi * math.factorial(n) * math.factorial(m) * waist**2))
        * eval_genlaguerre(p, l, 2.0 * rho**2 / waist**2)
        * math.factorial(p)
    )
    return (waist / math.sqrt(2.0)) * value


def gauss_hermite_grid(order):
    """(X, Y, W) with W ready for integrands carrying their own exp(-X^2-Y^2)."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    weights = weights * np.exp(nodes * nodes)
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    return X, Y, np.outer(weights, weights)


def integrate_gh2(func, order=48):
    X, Y, W = gauss_hermite_grid(order)
    return complex(np.sum(W * func(X, Y)))


# each second moment is Re Int conj(A psi) (B psi) for a pair of operators
_MOMENT_PAIRS = {
    "xx": ("X", "X"), "yy": ("Y", "Y"), "pxpx": ("P_X", "P_X"), "pypy": ("P_Y", "P_Y"),
    "xy": ("X", "Y"), "pxpy": ("P_X", "P_Y"), "xpy": ("X", "P_Y"), "ypx": ("Y", "P_X"),
    "xpx_sym": ("X", "P_X"), "ypy_sym": ("Y", "P_Y"),
}


def lg_gradient(mode, X, Y):
    """Analytic (d/dX, d/dY) of lg_amplitude; used for momentum moments.

    Built from d/du L_p^a(u) = -L_{p-1}^{a+1}(u), so no finite differences
    enter any downstream expectation value. Like ``lg_amplitude`` it is 0
    where the Gaussian underflows, however large the finite point.
    """
    mode = as_mode(mode)
    p, a, l = mode.radial, abs(mode.l), mode.l
    s = math.copysign(1.0, l)
    X, Y = _as_finite(X), _as_finite(Y)
    norm = (-1.0 if p % 2 else 1.0) * _lg_norm(p, a)
    # a huge point overflows r2 quietly; the inf * 0 it leaves is masked below
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = X * X + Y * Y
        gauss = np.exp(-0.5 * r2)
        lag = _laguerre(p, a, r2)
        dlag = 0.0 if p == 0 else -_laguerre(p - 1, a + 1, r2)
        spiral = 1.0 if a == 0 else (X + 1j * s * Y) ** a
        spiral_minus = 0.0 if a == 0 else (1.0 if a == 1 else (X + 1j * s * Y) ** (a - 1))
        common = 2.0 * dlag - lag
        dx = norm * gauss * (a * spiral_minus * lag + X * spiral * common)
        dy = norm * gauss * (1j * s * a * spiral_minus * lag + Y * spiral * common)
    if not np.all(gauss > 0.0):
        dx, dy = (np.where(gauss > 0.0, d, 0.0)[()] for d in (dx, dy))
    return dx, dy


def _operator_images(nm):
    """Weights, field and {X, Y, P_X, P_Y} applied to the field on a Hermite grid.

    The order clears the polynomial degree of every moment integrand; the
    momentum images use the analytic gradient, P = -i d.
    """
    mode = as_mode(nm)
    X, Y, W = gauss_hermite_grid(2 * mode.total + 16)
    amp = lg_amplitude(mode, X, Y)
    grad_x, grad_y = lg_gradient(mode, X, Y)
    return W, amp, {"X": X * amp, "Y": Y * amp, "P_X": -1j * grad_x, "P_Y": -1j * grad_y}


def gauss_hermite_moments(nm):
    """Second-moment table (MomentTable field names) by Gauss-Hermite integrals of the field."""
    W, _, image = _operator_images(nm)
    return {
        key: np.sum(W * np.conj(image[a]) * image[b]).real
        for key, (a, b) in _MOMENT_PAIRS.items()
    }


def gauss_hermite_mean(nm, which):
    """First moment <which> (X, Y, P_X or P_Y) by a Gauss-Hermite integral of the field."""
    W, amp, image = _operator_images(nm)
    if which not in image:
        raise ValueError(f"which must be one of {tuple(image)}, got {which!r}")
    return np.sum(W * np.conj(amp) * image[which]).real


def multistart_seeds(kind, seed=12345, bound=2.0, grid_points=21):
    """The seeds of the multi-start Bell search, every one on [-bound, bound].

    Restricted: the grid_points x grid_points grid with axis bound * s|s|, s
    evenly spaced on [-1, 1], densest near 0, where the violation basin of
    the mode (n, 0) sits at |x| ~ 0.6/sqrt(n). General: the origin and 80 rows
    uniform on [-1, 1]^8 times bound, from ``random.Random(seed)``, a stream
    Python keeps the same on every version.
    """
    if kind == bell.RESTRICTED:
        s = np.linspace(-1.0, 1.0, grid_points)
        axis = bound * s * np.abs(s)
        return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    draw = random.Random(int(seed)).random
    unit = np.array([draw() for _ in range(8 * 80)]).reshape(-1, 8)
    return np.vstack([np.zeros((1, 8)), bound * (2.0 * unit - 1.0)])


def multistart_starts(pi, kind, seed=12345):
    """The best 8 seeds by |B| (ties in seed order), with sigma * B and sigma,
    sigma the sign of B at each."""
    seeds = multistart_seeds(kind, seed)
    values = bell._bell(pi, kind, seeds)
    key = np.where(np.isfinite(values), -np.abs(values), np.inf)
    starts = key.argsort(kind="stable")[:8]
    sigma = np.where(values[starts] < 0.0, -1.0, 1.0)
    return seeds[starts], sigma * values[starts], sigma


def ascend_each(bell_fn, x, f, sigma, tol, max_iters):
    """``bell._ascend`` from each row of x as a start of its own, with that
    row's f and sigma; its x, f, stopped and converged stacked over the rows."""
    runs = [bell._ascend(bell_fn, x[i:i + 1], float(f[i]), float(sigma[i]), tol, max_iters)
            for i in range(len(x))]
    x, f, stopped, converged = zip(*runs)
    return np.concatenate(x), np.array(f), np.array(stopped), np.array(converged)


def multistart_maximize_bell(pi, kind, config=None):
    """The best of the 8 ranked starts at ``config.seed``, each ascended alone
    by ``bell._ascend`` with the config's tolerance and iteration cap."""
    cfg = config if config is not None else bell.OptimizerConfig()
    evaluations = 0

    def bell_fn(u, order=0):
        nonlocal evaluations
        evaluations += len(u)
        return bell._bell(pi, kind, u, order)

    x, f, sigma = multistart_starts(pi, kind, cfg.seed)
    x, f, _, converged = ascend_each(bell_fn, x, f, sigma, cfg.simplex_tol, cfg.max_iters)
    w = int(np.argmax(np.where(np.isfinite(f), f, -np.inf)))
    return bell.OptimizationResult(best_value=float(f[w]), argmax=tuple(x[w].tolist()),
                                   evaluations=evaluations, converged=bool(converged[w]))


def scipy_maximize_bell(pi, kind, config=None):
    """Multi-start Nelder-Mead maximum of |B|, each restart run by scipy.

    The multi-start seeds at ``config.seed``, ranked by |B|; the best 8 of
    them are refined by ``scipy.optimize.minimize`` with ``simplex_tol`` as
    its tolerances and ``max_iters`` as its iteration cap.
    """
    cfg = config if config is not None else bell.OptimizerConfig()
    evaluations = 0

    def objective(v):
        nonlocal evaluations
        evaluations += 1
        b = bell.bell_sum(pi, kind, v)
        return math.inf if not math.isfinite(b) else -abs(b)

    seeds = multistart_seeds(kind, cfg.seed)
    seed_values = np.array([objective(s) for s in seeds])
    best = None
    for idx in np.argsort(seed_values, kind="stable")[:8]:
        res = minimize(
            objective,
            seeds[idx],
            method="Nelder-Mead",
            options={
                "xatol": cfg.simplex_tol,
                "fatol": cfg.simplex_tol,
                "maxiter": cfg.max_iters,
                "maxfev": max(cfg.max_iters, 10 * len(seeds[idx])),
            },
        )
        candidate = (float(res.fun), tuple(float(c) for c in res.x), bool(res.success))
        if best is None or candidate[:2] < best[:2]:
            best = candidate
    fun, argmax, converged = best
    return bell.OptimizationResult(
        best_value=-fun, argmax=argmax, evaluations=evaluations, converged=converged
    )


def sequential_ascend(bell_fn, x, f, sigma, tol, max_iters):
    """``bell._ascend`` with its Armijo backtracking halving one trial per call.

    The search as it was before its ladder of step lengths went into one
    ``bell_fn`` call per Newton step; the rest is the package's own
    ``_newton_step`` and constants. Every row runs until it stops on its own.
    """
    x, f = x.copy(), f.copy()
    active = np.isfinite(f)
    grad = np.zeros(x.shape)
    hess = np.zeros(x.shape + x.shape[1:])
    for _ in range(max_iters):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        _, g, h = bell_fn(x[idx], 2)
        g *= sigma[idx, None]
        h *= sigma[idx, None, None]
        grad[idx], hess[idx] = g, h
        finite = np.isfinite(g).all(axis=1) & np.isfinite(h).all(axis=(1, 2))
        step = np.zeros(g.shape)
        curved = np.zeros(idx.size, dtype=bool)
        pure = np.zeros(idx.size, dtype=bool)
        if finite.any():
            step[finite], curved[finite], pure[finite] = bell._newton_step(g[finite], h[finite])
        gnorm = np.linalg.norm(g, axis=1)
        size = np.linalg.norm(step, axis=1)
        moving = finite & (size > tol) & ~((gnorm <= tol) & ~curved)
        active[idx[~moving]] = False
        # near a maximum the Armijo gain of a Newton step falls below the
        # rounding noise of B, so a short pure-Newton step is taken untested
        trusted = (pure & (size <= bell._TRUSTED_STEP))[moving]
        idx, g, step, size = idx[moving], g[moving], step[moving], size[moving]
        # Armijo backtracking, halving in lockstep over the starts still searching
        slope = np.einsum("ni,ni->n", g, step)
        alpha = np.ones(idx.size)
        pending = np.arange(idx.size)
        while pending.size:
            rows = idx[pending]
            trial = x[rows] + alpha[pending, None] * step[pending]
            ft = sigma[rows] * bell_fn(trial)
            armijo = ft >= f[rows] + bell._ARMIJO * alpha[pending] * slope[pending]
            ok = np.isfinite(ft) & (armijo | trusted[pending])
            x[rows[ok]], f[rows[ok]] = trial[ok], ft[ok]
            pending = pending[~ok]
            alpha[pending] *= 0.5
            spent = alpha[pending] * size[pending] <= tol
            active[idx[pending[spent]]] = False
            pending = pending[~spent]
    return x, f, ~active, grad, hess


def maximum_verdict(f, stopped, grad, hess):
    """Per row, the ``converged`` rule ``maximize_bell`` applied to one start:
    stopped, f finite, |grad| <= 1e-7, and a finite Hessian with no
    eigenvalue above 1e-6 max|lambda|, not all zero unless f is 2 to within
    1e-12 (no violation)."""
    verdict = []
    for f_i, stopped_i, g, h in zip(f, stopped, grad, hess):
        lam = np.linalg.eigvalsh(h) if np.all(np.isfinite(h)) else np.array([np.nan])
        curvature = np.abs(lam).max()
        verdict.append(bool(stopped_i and np.isfinite(f_i)
                            and np.linalg.norm(g) <= bell._GRADIENT_TOL
                            and (curvature > 0.0 or abs(f_i - 2.0) <= bell._TIE)
                            and lam[-1] <= bell._CURVATURE_FLOOR * curvature))
    return np.array(verdict)


def einsum_newton_step(grad, hess):
    """``bell._newton_step`` as three einsums, the escape step added after them
    where the top eigenvalue passes the floor and |grad| <= ``bell._GRADIENT_TOL``."""
    lam, vec = np.linalg.eigh(hess)
    floor = bell._CURVATURE_FLOOR * np.abs(lam).max(axis=1)
    scale = np.maximum(np.abs(lam), np.maximum(floor, bell._TINY)[:, None])
    step = np.einsum("nij,nj->ni", vec, np.einsum("nij,ni->nj", vec, grad) / scale)
    top, top_vec = lam[:, -1], vec[:, :, -1]
    uphill = np.where(np.einsum("ni,ni->n", grad, top_vec) < 0.0, -1.0, 1.0)
    stalled = np.linalg.norm(grad, axis=1) <= bell._GRADIENT_TOL
    escape = np.where((top > floor) & stalled, uphill / np.sqrt(np.maximum(top, bell._TINY)), 0.0)
    return step + escape[:, None] * top_vec, top > floor, top < 0.0


def z_jet(pi, point):
    """(Pi, gradient, Hessian) over z = (X, P_X, Y, P_Y) from ``pi(point, 2)``.

    With (Pi, forms A_k, G_q, G_qq) from the evaluator and the slopes
    grad q_k = 2 A_k z, the gradient is sum_k G_k grad q_k and the Hessian
    sum_kl G_kl grad q_k grad q_l^T + sum_k 2 G_k A_k, on trailing axes (4,)
    and (4, 4); each pair k < l is one term over both outer products, so the
    Hessian is exactly symmetric. Both are 0 where every partial is 0, as
    where Pi underflowed, even if a slope overflowed there.
    """
    value, forms, g_q, g_qq = pi(point, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.stack(np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in point)), axis=-1)
        slopes = [2.0 * (z @ a) for a in forms]
        grad = sum(g_q[..., k, None] * s for k, s in enumerate(slopes))
        hess = 0.0
        for k, l in itertools.combinations_with_replacement(range(len(forms)), 2):
            outer = slopes[k][..., :, None] * slopes[l][..., None, :]
            if k < l:  # G_kl = G_lk, and the other outer product is this one transposed
                outer = outer + outer.swapaxes(-1, -2)
            hess = hess + g_qq[..., k, l, None, None] * outer
        hess = hess + sum(2.0 * g_q[..., k, None, None] * a for k, a in enumerate(forms))
    dead = ~(g_q.any(axis=-1) | g_qq.any(axis=(-2, -1)))
    return (value, np.where(dead[..., None], 0.0, grad),
            np.where(dead[..., None, None], 0.0, hess))


def bell_jet_by_lift_sums(pi, kind, u):
    """(B, gradient, Hessian) on rows of settings u, each term's z-space jet
    pulled back through ``bell._LIFT`` as a sum over the term's coordinates."""
    lift = bell._LIFT[kind]
    signed = bell._SIGNS[:, None, None] * lift
    points = np.einsum("nd,kdi->ink", u, lift)
    t, grad_t, hess_t = z_jet(pi, tuple(points))
    return ((t * bell._SIGNS).sum(axis=1), np.einsum("nki,kdi->nd", grad_t, signed),
            np.einsum("nkij,kdi,kej->nde", hess_t, signed, lift))


def log_domain_pi(nm, point):
    """(Pi_nm, 4Q0, 4Q2) at a point, Pi from laguerre_scaled log magnitudes and signs."""
    n, m = nm
    q0, q2 = wigner_args(point)
    mn, sn = specfun.laguerre_scaled(n, 0, 4 * (q0 + q2))
    mm, sm = specfun.laguerre_scaled(m, 0, 4 * (q0 - q2))
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(mn)) + np.log(np.abs(mm)) + sn + sm - 4 * q0
    return (-1.0) ** (n + m) * np.sign(mn) * np.sign(mm) * np.exp(log_mag), 4 * q0, 4 * q2


def schmidt_sum_unblocked(mode, X, Y):
    """sum_k c_k psi_{N-k}(X) psi_k(Y) in one pass over full-size arrays (Clenshaw in X)."""
    terms = schmidt_coefficients(mode)
    total = len(terms) - 1
    X, Y = _as_finite(X), _as_finite(Y)
    shape = np.broadcast_shapes(X.shape, Y.shape)
    parts = [[np.zeros(shape), np.zeros(shape)] for _ in range(2)]
    tmp = np.empty(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (term, psi) in enumerate(zip(terms, _hermite_functions(Y))):
            j = total - k
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
        out = np.empty(shape, dtype=complex)
        np.multiply(parts[0][0], psi, out=out.real)
        np.multiply(parts[1][0], psi, out=out.imag)
    np.copyto(out, 0.0, where=psi == 0.0)
    return out[()]


def numeric_wigner_two_fields(plan, point):
    """W at a point from a plan's nodes, weights and field, evaluating E(R + xi) and E(R - xi)."""
    x, px, y, py = (float(v) for v in point)
    nodes, weights = plan._nodes, plan._weights
    xi_x, xi_y = (xi.ravel() for xi in np.meshgrid(nodes, nodes, indexing="ij"))
    with np.errstate(over="ignore", invalid="ignore"):
        forward = np.asarray(plan._field(x + xi_x, y + xi_y))
        backward = np.asarray(plan._field(x - xi_x, y - xi_y))
        phase_x, phase_y = (weights * np.exp(2j * (p * nodes)) for p in (px, py))
        product = (np.conj(forward) * backward).reshape(nodes.size, -1)
        return float((phase_x @ product @ phase_y).real) / math.pi**2
