import math
import random
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest

from vortexbell import bell, wigner

from _oracles import (ascend_each, bell_exact, bell_jet_by_lift_sums, einsum_newton_step,
                      elliptical_pi_exact, lg_pi_exact, maximum_verdict, multistart_maximize_bell,
                      multistart_seeds, multistart_starts, scipy_maximize_bell, sequential_ascend)

PI_10 = wigner.lg_transform_evaluator((1, 0))
PI_00 = wigner.lg_transform_evaluator((0, 0))


def _flaky_pi(point, order=0):
    """PI_10 with NaN wherever |X| > 1, in Pi and in its partials G_q and G_qq."""
    nan = np.where(np.abs(point[0]) > 1.0, math.nan, 0.0)
    if not order:
        return PI_10(point) + nan
    value, forms, g_q, g_qq = PI_10(point, order)
    return value + nan, forms, g_q + nan[..., None], g_qq + nan[..., None, None]


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


class TestBellSums:
    def test_restricted_zero_settings(self):
        # all four parity terms are +/-1 at the origin
        assert bell.bell_sum(PI_10, bell.RESTRICTED, (0.0, 0.0)) == pytest.approx(
            -2.0, abs=1e-14
        )

    def test_restricted_near_reported_maximum(self):
        assert abs(bell.bell_sum(PI_10, bell.RESTRICTED, (0.45, 0.45))) == pytest.approx(
            2.17, abs=0.01
        )

    def test_closed_form_examples(self):
        assert bell.bell_closed_form_10(0.0, 0.0) == pytest.approx(-2.0, abs=1e-14)
        assert abs(bell.bell_closed_form_10(0.45, 0.45)) == pytest.approx(2.17, abs=0.01)
        assert bell.bell_closed_form_10(3.0, -3.0) == pytest.approx(
            bell.bell_sum(PI_10, bell.RESTRICTED, (3.0, -3.0)), abs=1e-12
        )

    def test_closed_form_finite_at_extreme_settings(self):
        # huge settings, and terms at the edge where exp(-s) underflows (s near 745)
        edge = [math.sqrt(s) for s in (700.0, 708.0, 740.0, 745.0, 746.0)]
        points = [(1e200, 0.0), (1e160, 1e160), (0.0, -1e300), (1e308, -1e308)]
        points += [(e, 0.3) for e in edge] + [(0.2, -e) for e in edge]
        points += [(e / math.sqrt(2), e / math.sqrt(2)) for e in edge]
        for x, py in points:
            closed = bell.bell_closed_form_10(x, py)
            assert math.isfinite(closed), (x, py)
            assert closed == pytest.approx(
                bell.bell_sum(PI_10, bell.RESTRICTED, (x, py)), abs=1e-12
            )

    def test_sums_return_floats(self):
        for pi in (PI_10, wigner.elliptical_transform_evaluator((0.7, +1))):
            assert type(bell.bell_sum(pi, bell.RESTRICTED, (0.3, -0.2))) is float
            assert type(bell.bell_sum(pi, bell.GENERAL, [0.1 * k for k in range(8)])) is float

    def test_closed_form_equivalence_on_random_points(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            x, py = rng.uniform(-4, 4, 2)
            assert bell.bell_closed_form_10(x, py) == pytest.approx(
                bell.bell_sum(PI_10, bell.RESTRICTED, (x, py)), abs=1e-12
            )

    def test_restricted_symmetries(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            x, py = rng.uniform(-3, 3, 2)
            base = bell.bell_sum(PI_10, bell.RESTRICTED, (x, py))
            assert bell.bell_sum(PI_10, bell.RESTRICTED, (py, x)) == pytest.approx(
                base, abs=1e-12
            )
            assert bell.bell_sum(PI_10, bell.RESTRICTED, (-x, -py)) == pytest.approx(
                base, abs=1e-12
            )

    def test_general_degenerate_settings(self):
        assert bell.bell_sum(PI_10, bell.GENERAL, [0.0] * 8) == pytest.approx(-2.0, abs=1e-14)

    def test_general_at_reference_settings(self):
        value = bell.bell_sum(
            PI_10, bell.GENERAL, (-0.07, 0.05, 0.4, -0.26, -0.05, -0.07, 0.26, 0.4)
        )
        assert abs(value) >= 2.23

    def test_restricted_embeds_in_general(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            x, py = rng.uniform(-3, 3, 2)
            embedded = bell.bell_sum(
                PI_10, bell.GENERAL, (0.0, 0.0, x, 0.0, 0.0, 0.0, 0.0, py)
            )
            assert embedded == bell.bell_sum(PI_10, bell.RESTRICTED, (x, py))

    def test_ground_mode_scan_never_violates(self):
        axis = np.linspace(-3.0, 3.0, 61)
        worst = max(
            abs(bell.bell_sum(PI_00, bell.RESTRICTED, (x, py)))
            for x in axis for py in axis
        )
        assert worst <= 2.0 + 1e-12

    def test_settings_validation(self):
        # a length that fits neither kind, a length of the other kind, a non-finite entry
        bad = {
            bell.RESTRICTED: [(0.0,) * 3, (0.0,) * 8, (math.nan, 0.0), (0.0, math.inf)],
            bell.GENERAL: [(0.0,) * 7, (0.0,) * 2, (0.0,) * 7 + (math.nan,),
                           (-math.inf,) + (0.0,) * 7],
        }
        for kind, cases in bad.items():
            for settings in cases:
                with pytest.raises(ValueError):
                    bell.bell_sum(PI_10, kind, settings)
        with pytest.raises(ValueError):
            bell.bell_sum(PI_10, "diagonal", (0.0, 0.0))


def _central_differences(f, v, h):
    """Gradient of the scalar f and Jacobian of the vector grad, by central differences."""
    eye = np.eye(v.size)
    grad = np.array([(f(v + h * e)[0] - f(v - h * e)[0]) / (2 * h) for e in eye])
    hess = np.array([(f(v + h * e)[1] - f(v - h * e)[1]) / (2 * h) for e in eye])
    return grad, hess


class TestBellDerivatives:
    @pytest.mark.parametrize(
        "pi",
        [PI_10, wigner.lg_transform_evaluator((5, 3)),
         wigner.elliptical_transform_evaluator((0.7, +1))],
        ids=["lg-1-0", "lg-5-3", "elliptical-0.7"],
    )
    @pytest.mark.parametrize("kind", [bell.GENERAL, bell.RESTRICTED])
    def test_jet_matches_finite_differences(self, pi, kind):
        rng = np.random.default_rng(67)
        dim = 8 if kind == bell.GENERAL else 2
        u = rng.uniform(-0.8, 0.8, (5, dim))
        b, grad, hess = bell._bell(pi, kind, u, 2)
        assert grad.shape == (5, dim) and hess.shape == (5, dim, dim)
        assert np.array_equal(b, bell._bell(pi, kind, u))
        for row in range(5):
            def jet(v):
                _, g, h = bell._bell(pi, kind, v[None, :], 2)
                return bell._bell(pi, kind, v[None, :])[0], g[0]
            fd_grad, fd_hess = _central_differences(jet, u[row], 1e-6)
            assert np.max(np.abs(grad[row] - fd_grad)) <= 1e-8
            assert np.max(np.abs(hess[row] - fd_hess)) <= 1e-7
            assert np.array_equal(hess[row], hess[row].T)

    def test_values_match_scalar_sums(self):
        rng = np.random.default_rng(71)
        for pi in (PI_10, wigner.elliptical_transform_evaluator((0.7, +1))):
            for kind, width in ((bell.GENERAL, 8), (bell.RESTRICTED, 2)):
                u = rng.uniform(-2, 2, (20, width))
                batched = bell._bell(pi, kind, u)
                scalar = [bell.bell_sum(pi, kind, row) for row in u]
                assert np.array_equal(batched, scalar)

    @pytest.mark.parametrize(
        "pi",
        [PI_10, wigner.lg_transform_evaluator((30, 0)),
         wigner.elliptical_transform_evaluator((0.9, +1))],
        ids=["lg-1-0", "lg-30-0", "elliptical-0.9"],
    )
    def test_restricted_jet_is_general_jet_at_embedding(self, pi):
        # restricted (x, py) are general settings X2 and P_Y2, every other one 0
        rng = np.random.default_rng(73)
        u = rng.uniform(-1.5, 1.5, (40, 2))
        v = np.zeros((40, 8))
        v[:, [2, 7]] = u
        b, grad, hess = bell._bell(pi, bell.RESTRICTED, u, 2)
        b_general, grad_general, hess_general = bell._bell(pi, bell.GENERAL, v, 2)
        assert np.array_equal(b, b_general)
        assert np.array_equal(bell._bell(pi, bell.RESTRICTED, u), b_general)
        assert np.array_equal(grad, grad_general[:, [2, 7]])
        assert np.array_equal(hess, hess_general[:, [2, 7]][:, :, [2, 7]])


    @pytest.mark.parametrize(
        "pi",
        [PI_10, wigner.lg_transform_evaluator((30, 0)),
         wigner.elliptical_transform_evaluator((0.7, +1))],
        ids=["lg-1-0", "lg-30-0", "elliptical-0.7"],
    )
    @pytest.mark.parametrize("kind", [bell.GENERAL, bell.RESTRICTED])
    def test_jet_matches_z_space_lift_sums(self, pi, kind):
        # the settings-space chain rule against each term's z-space jet pulled back
        rng = np.random.default_rng(79)
        dim = bell._LIFT[kind].shape[1]
        # far settings, where Pi and its partials underflow to 0, included
        for scale in (0.3, 1.0, 3.0, 30.0, 1e3):
            u = rng.normal(0.0, scale, (25, dim))
            b, grad, hess = bell._bell(pi, kind, u, 2)
            b_ref, grad_ref, hess_ref = bell_jet_by_lift_sums(pi, kind, u)
            assert _bits(b) == _bits(b_ref) == _bits(bell._bell(pi, kind, u))
            # to rounding, relative to the largest entry; subnormal entries lose precision
            for new, ref in ((grad, grad_ref), (hess, hess_ref)):
                assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref)) + 1e-300


def _misled_bell(u, order=0):
    """B = -|u - 0.3|^2, its gradient reported downhill wherever u_0 < 0.

    A Newton step there walks away from the maximum, so no rung of its
    backtracking ladder passes Armijo.
    """
    value = -np.sum((u - 0.3) ** 2, axis=1)
    if not order:
        return value
    flip = np.where(u[:, 0] < 0.0, -1.0, 1.0)
    hess = np.repeat(-2.0 * np.eye(u.shape[1])[None], len(u), axis=0)
    return value, -2.0 * (u - 0.3) * flip[:, None], hess


_TOL = bell.OptimizerConfig().simplex_tol


def _ascend_from(pi, kind, x):
    """``_ascend`` of B from each row of x, with the sign of B at the origin, as
    ``maximize_bell`` climbs."""
    def bell_fn(u, order=0):
        return bell._bell(pi, kind, u, order)

    sigma = np.where(bell_fn(np.zeros((1, x.shape[1]))) < 0.0, -1.0, 1.0).repeat(len(x))
    return ascend_each(bell_fn, x, sigma * bell_fn(x), sigma, _TOL, 4000)


def _top_eigenspace(pi, kind):
    """The eigenvectors of sigma * hess B at the origin, as columns, whose eigenvalues
    are the top one to 1e-12 relative: where the search's first step goes."""
    d = bell._LIFT[kind].shape[1]
    value, _, hess = bell._bell(pi, kind, np.zeros((1, d)), 2)
    lam, vec = np.linalg.eigh(np.where(value[0] < 0.0, -1.0, 1.0) * hess[0])
    assert lam[-1] > 0.0  # the origin is a saddle
    return vec[:, lam >= lam[-1] - 1e-12 * lam[-1]]


def _same_search(new, old):
    """Each start's x, f and stopped from ``_ascend`` are the sequential search's bits,
    and its ``converged`` is the verdict ``maximize_bell`` gave on that search's last jet."""
    assert _bits(*new[:3]) == _bits(*old[:3])
    assert np.array_equal(new[3], maximum_verdict(*old[1:]))


class TestLineSearch:
    """The one-call backtracking against the sequential search it replaced."""

    @staticmethod
    def _both(bell_fn, x, f, sigma, max_iters=4000, tol=_TOL, negated=False):
        """Both searches of sigma * B from the same starts, ``_ascend`` one start at a
        time and the sequential search each start alone. With ``negated``, ``_ascend``
        climbs -B with sigma negated instead, the same function of the settings."""
        calls = []

        def counted(u, order=0):
            calls.append((order, len(u)))
            out = bell_fn(u, order)
            if not negated:
                return out
            return tuple(-a for a in out) if order else -out

        new = ascend_each(counted, x, f, -sigma if negated else sigma, tol, max_iters)
        runs = [sequential_ascend(bell_fn, x[i:i + 1], f[i:i + 1], sigma[i:i + 1], tol, max_iters)
                for i in range(len(x))]
        old = tuple(map(np.concatenate, zip(*runs)))
        # a jet is one row, and each is followed by at most one backtracking call,
        # never on zero rows
        orders = [order for order, _ in calls]
        assert all(rows == 1 for order, rows in calls if order)
        assert all(rows > 0 for _, rows in calls) and (0, 0) not in zip(orders, orders[1:])
        return new, old

    @pytest.mark.parametrize("negated", [True, False])
    @pytest.mark.parametrize(
        "pi, kind",
        [(PI_10, bell.RESTRICTED), (PI_10, bell.GENERAL),
         (wigner.lg_transform_evaluator((30, 0)), bell.RESTRICTED),
         (wigner.lg_transform_evaluator((30, 0)), bell.GENERAL),
         (wigner.elliptical_transform_evaluator((0.5, +1)), bell.GENERAL),
         (wigner.elliptical_transform_evaluator((2.0, +1)), bell.GENERAL),
         (wigner.elliptical_transform_evaluator((3.0, +1)), bell.GENERAL),
         (_flaky_pi, bell.RESTRICTED)],
        ids=["lg-1-0-restricted", "lg-1-0-general", "lg-30-0-restricted",
             "lg-30-0-general", "elliptical-0.5", "elliptical-2", "elliptical-3",
             "nan-patched"],
    )
    def test_bit_identical_to_sequential_search(self, pi, kind, negated):
        # negated, a beam's starts climb with the other sign of sigma
        x, f, sigma = multistart_starts(pi, kind)
        new, old = self._both(lambda u, order=0: bell._bell(pi, kind, u, order), x, f, sigma,
                              negated=negated)
        _same_search(new, old)

    @pytest.mark.parametrize("negated", [True, False])
    def test_spent_ladder_retires_start(self, negated):
        x = np.array([[-0.5, 1.0], [0.8, -0.4], [-2.0, -1.0], [1.5, 0.2]])
        sigma = np.ones(len(x))
        new, old = self._both(_misled_bell, x, _misled_bell(x), sigma, negated=negated)
        _same_search(new, old)
        x_end, f_end, stopped, _ = new
        assert stopped.all()
        # misled starts use up every rung and stay put; the others reach the maximum
        misled = x[:, 0] < 0.0
        assert np.array_equal(x_end[misled], x[misled])
        assert np.allclose(x_end[~misled], 0.3) and np.allclose(f_end[~misled], 0.0)

    def test_iteration_cap(self):
        x, f, sigma = multistart_starts(PI_10, bell.GENERAL)
        for max_iters in (1, 2, 5):
            new, old = self._both(lambda u, order=0: bell._bell(PI_10, bell.GENERAL, u, order),
                                  x, f, sigma, max_iters)
            _same_search(new, old)

    @pytest.mark.parametrize("tol", [1.0, 1.5, 4.0, 1e200])
    def test_coarse_tolerance(self, tol):
        # an iteration where no start moves builds a one-rung dead ladder at every
        # tolerance, including those whose binary exponent is at least 1
        for kind in (bell.RESTRICTED, bell.GENERAL):
            x, f, sigma = multistart_starts(PI_10, kind)

            def bell_fn(u, order=0, kind=kind):
                return bell._bell(PI_10, kind, u, order)

            for rows in (slice(None), slice(1)):
                new, old = self._both(bell_fn, x[rows], f[rows], sigma[rows], tol=tol)
                _same_search(new, old)
            # the escape step from the origin is shorter than 1 here, so the one start
            # stays on its saddle, and says so
            result = bell.maximize_bell(PI_10, kind, bell.OptimizerConfig(simplex_tol=tol))
            assert result.best_value == 2.0 and not result.converged

    def test_a_stuck_jet_retires_the_start(self):
        # the start's fourth jet is not finite (the sixth of the multi-start's starts at
        # seed 112, which still moves after three Newton steps); each side counts its
        # own jets
        x, f, sigma = (a[5:6] for a in multistart_starts(PI_10, bell.GENERAL, 112))
        results, jets = [], []
        for search in (ascend_each, sequential_ascend):
            calls = [0]

            def patched(u, order=0, calls=calls):
                out = bell._bell(PI_10, bell.GENERAL, u, order)
                if order:
                    calls[0] += 1
                    if calls[0] == 4:
                        out[1][0], out[2][0, 0, 0] = math.nan, math.inf
                return out

            results.append(search(patched, x, f, sigma, _TOL, 4000))
            jets.append(calls[0])
        new, old = results
        _same_search(new, old)
        # the start moved, then retired at its stuck jet, stopped and not converged
        assert jets == [4, 4] and not np.array_equal(new[0], x)
        assert new[2][0] and not new[3][0]
        assert not np.isfinite(old[3]).all() and np.isinf(old[4][0, 0, 0])



class TestConverged:
    """Each clause of the maximum test behind ``converged``, on jets made to fail one."""

    @staticmethod
    def _from_origin(value, grad, hess):
        """``_ascend`` from u = 0 with sigma = 1 on the jet (value, grad, hess) of rows u."""
        def bell_fn(u, order=0):
            return (value(u), grad(u), hess(u)) if order else value(u)

        x = np.zeros((1, 2))
        x, f, stopped, converged = bell._ascend(bell_fn, x, float(value(x)[0]), 1.0, _TOL, 4000)
        assert stopped and np.array_equal(x, np.zeros((1, 2)))
        return converged

    @pytest.mark.parametrize("top, converged", [(1.0, False), (-1.0, True)])
    def test_upward_curvature_is_no_maximum(self, top, converged):
        # B = -|u|^2 with a zero gradient: the escape step along a top eigenvalue of +1
        # finds no Armijo point and the start stops at 0, on a saddle of its jet
        assert self._from_origin(
            lambda u: -(u * u).sum(axis=1), np.zeros_like,
            lambda u: np.repeat(np.diag([top, -1.0])[None], len(u), axis=0)) is converged

    @pytest.mark.parametrize("offset, converged", [(1e-6, False), (1e-8, True)])
    def test_a_steep_gradient_is_no_maximum(self, offset, converged):
        # B = -1e9 |u|^2 with its gradient offset: the Newton step from 0 is below the
        # tolerance, so the start stops at 0 with |grad| = sqrt(2) offset
        assert self._from_origin(
            lambda u: -1e9 * (u * u).sum(axis=1), lambda u: -2e9 * u + offset,
            lambda u: np.repeat(-2e9 * np.eye(2)[None], len(u), axis=0)) is converged

    @pytest.mark.parametrize("level, converged", [(2.0, True), (2.0 + 5e-13, True),
                                                  (2.0 + 2e-12, False), (1.0, False)])
    def test_a_flat_jet_is_a_maximum_only_without_violation(self, level, converged):
        # B constant, with a zero gradient and an all-zero Hessian: at |B| = 2 to 1e-12
        # that is no violation, and nothing ascends; elsewhere it is a plateau where Pi
        # underflowed, no maximum
        assert self._from_origin(lambda u: np.full(len(u), level), np.zeros_like,
                                 lambda u: np.zeros(u.shape + u.shape[1:])) is converged

    def test_a_jet_that_is_not_finite_is_no_maximum_even_without_violation(self):
        # the row is zeroed and retires; at |B| = 2 the zeroed Hessian is not a flat one
        assert self._from_origin(lambda u: np.full(len(u), 2.0), np.zeros_like,
                                 lambda u: np.full(u.shape + u.shape[1:], np.nan)) is False

    def test_a_coarse_tolerance_stops_short_of_the_gradient_test(self):
        # the gradient test stays at 1e-7 whatever simplex_tol is
        pi = wigner.lg_transform_evaluator((30, 0))
        coarse = bell.maximize_bell(pi, bell.RESTRICTED, bell.OptimizerConfig(simplex_tol=1e-6))
        assert not coarse.converged
        assert bell.maximize_bell(pi, bell.RESTRICTED).converged


# the benchmark's LG searches and four elliptical squeezes, and a sample of modes in
# both kinds and of squeezes
_MULTISTART_CASES = [
    *[pytest.param(wigner.lg_transform_evaluator(mode), kind, id=f"lg-{mode[0]}-{mode[1]}-{kind}")
      for mode, kind in (((1, 0), bell.RESTRICTED), ((2, 0), bell.RESTRICTED),
                         ((5, 0), bell.RESTRICTED), ((10, 0), bell.RESTRICTED),
                         ((30, 0), bell.RESTRICTED), ((3, 1), bell.RESTRICTED),
                         ((20, 10), bell.RESTRICTED), ((1, 0), bell.GENERAL),
                         ((5, 0), bell.GENERAL), ((30, 0), bell.GENERAL),
                         *(((n, m), kind) for n, m in ((2, 1), (5, 3), (0, 3), (64, 0))
                           for kind in (bell.RESTRICTED, bell.GENERAL)),
                         ((20, 10), bell.GENERAL))],
    *[pytest.param(wigner.elliptical_transform_evaluator((t, +1)), bell.GENERAL,
                   id=f"elliptical-{t}") for t in (0.1, 0.8, 1.1, 1.9, 0.3, 1.0, 2.0, 4.0)],
]


class TestTrailingStarts:
    """The one start at the origin cuts every other start of the seeded multi-start
    it replaced: that never lowers the maximum."""

    @pytest.mark.parametrize("pi, kind", _MULTISTART_CASES)
    def test_never_lowers_the_maximum(self, pi, kind):
        result = bell.maximize_bell(pi, kind)
        # restricted seeds are a grid, the same at every optimizer seed
        for seed in (12345, 1, 2) if kind == bell.GENERAL else [12345]:
            best = multistart_maximize_bell(pi, kind, bell.OptimizerConfig(seed=seed))
            assert result.best_value >= best.best_value - 1e-12
            assert result.converged and best.converged


class TestOriginSearch:
    """``maximize_bell`` is the sequential search from the origin."""

    @pytest.mark.parametrize("pi, kind", _MULTISTART_CASES)
    def test_bits_and_verdict_of_the_sequential_search(self, pi, kind):
        orders = []

        def counted(point, *order):
            orders.append(order[0] if order else 0)
            return pi(point, *order)

        result = bell.maximize_bell(counted, kind)

        def bell_fn(u, order=0):
            return bell._bell(pi, kind, u, order)

        origin = np.zeros((1, bell._LIFT[kind].shape[1]))
        value = bell_fn(origin)
        sigma = np.where(value < 0.0, -1.0, 1.0)
        x, f, stopped, grad, hess = sequential_ascend(bell_fn, origin, sigma * value, sigma,
                                                      _TOL, 4000)
        assert _bits(np.array(result.argmax), [result.best_value]) == _bits(x[0], f)
        assert result.converged == maximum_verdict(f, stopped, grad, hess)[0]
        # B at the origin, then per Newton iteration one jet and at most one ladder
        assert orders[:2] == [0, 2] and (0, 0) not in zip(orders[1:], orders[2:])
        # and no ladder after a last jet on which the start has stopped moving
        step, curved, _ = bell._newton_step(grad, hess)
        if not (np.linalg.norm(step) > _TOL and (np.linalg.norm(grad) > _TOL or curved[0])):
            assert orders[-1] == 2


def _hessians(eigenvalues, seed):
    """Symmetric matrices with the given rows of eigenvalues and random eigenvectors."""
    rng = np.random.default_rng(seed)
    lam = np.asarray(eigenvalues, dtype=float)
    q, _ = np.linalg.qr(rng.standard_normal(lam.shape + lam.shape[-1:]))
    hess = (q * lam[:, None]) @ q.swapaxes(-1, -2)
    return 0.5 * (hess + hess.swapaxes(-1, -2)), rng.standard_normal(lam.shape)


class TestNewtonStep:
    """The two-matmul step against the einsum step it replaced, to rounding."""

    @staticmethod
    def _matches_oracle(grad, hess):
        step, curved, pure = bell._newton_step(grad, hess)
        ref, ref_curved, ref_pure = einsum_newton_step(grad, hess)
        assert np.array_equal(curved, ref_curved) and np.array_equal(pure, ref_pure)
        scale = np.linalg.norm(ref, axis=1, keepdims=True)
        assert np.all(np.abs(step - ref) <= 1e-13 * scale)
        return step, curved, pure

    @pytest.mark.parametrize("d", [2, 8])
    def test_definite_hessians_take_the_pure_newton_step(self, d):
        lam = -np.exp(np.random.default_rng(d).uniform(-3.0, 3.0, (6, d)))
        hess, grad = _hessians(lam, d)
        step, curved, pure = self._matches_oracle(grad, hess)
        assert pure.all() and not curved.any()
        assert np.allclose(step, -np.linalg.solve(hess, grad[..., None])[..., 0],
                           rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("d", [2, 8])
    def test_saddles_and_valleys_escape_uphill(self, d):
        rng = np.random.default_rng(10 + d)
        saddles = np.sort(rng.uniform(-2.0, 2.0, (4, d)), axis=1)
        saddles[:, 0], saddles[:, -1] = -1.5, 0.7
        valleys = rng.uniform(0.1, 3.0, (3, d))
        hess, grad = _hessians(np.vstack([saddles, valleys]), 20 + d)
        # gradients within the 1e-7 tolerance, where the search would stop
        grad *= 5e-8 / np.linalg.norm(grad, axis=1, keepdims=True)
        step, curved, pure = self._matches_oracle(grad, hess)
        assert curved.all() and not pure.any()
        lam, vec = np.linalg.eigh(hess)
        top, top_vec = lam[:, -1], vec[:, :, -1]
        # the escape goes along the top eigenvector, on the side where the gradient points
        uphill = np.einsum("ni,ni->n", grad, top_vec)
        along = np.einsum("ni,ni->n", step, top_vec) - uphill / top
        assert np.allclose(along, np.sign(uphill) / np.sqrt(top))
        # 20 times those gradients, past the tolerance, take no escape
        step, curved, _ = self._matches_oracle(20.0 * grad, hess)
        assert curved.all()
        along = np.einsum("ni,ni->n", step, top_vec) - 20.0 * uphill / top
        assert np.all(np.abs(along) <= 1e-13 * np.linalg.norm(step, axis=1))

    def test_one_row_batch(self):
        # a one-row step has the bits of that row in a batch of two, with the
        # escape (a gradient within 1e-7) and without it
        hess, grad = _hessians([[-2.0, -1.0, 0.5, 3.0]], 3)
        for g in (grad * (5e-8 / np.linalg.norm(grad)), grad):
            step, _, _ = self._matches_oracle(g, hess)
            assert step.shape == (1, 4)
            assert _bits(step[0]) == _bits(bell._newton_step(np.vstack([g, g]),
                                                             np.vstack([hess, hess]))[0][1])

    def test_gradient_orthogonal_to_the_top_eigenvector_goes_plus(self):
        # diagonal Hessians: the top eigenvector is a unit axis, and the gradient
        # has an exact zero on it, so the uphill sign is a tie and reads +1; row 0's
        # gradient is past 1e-7, so only row 1, at a zero gradient, escapes
        hess = np.array([np.diag([-3.0, -2.0, -1.0, 4.0]), np.diag([-1.0, 2.0, -4.0, -3.0])])
        grad = np.array([[1.0, -2.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0]])
        step, curved, _ = self._matches_oracle(grad, hess)
        assert curved.all()
        top_vec = np.linalg.eigh(hess)[1][:, :, -1]
        assert np.array_equal(np.einsum("ni,ni->n", step, top_vec), [0.0, 1.0 / math.sqrt(2.0)])

    def test_escape_only_where_the_gradient_is_within_tolerance(self):
        # one saddle, with |grad| a part in 1e9 either side of 1e-7 and no
        # component along the top eigenvector: only the first row goes 1/sqrt(4) there
        hess = np.array([np.diag([-3.0, -2.0, -1.0, 4.0])] * 2)
        grad = np.array([[bell._GRADIENT_TOL * (1.0 - 1e-9), 0.0, 0.0, 0.0],
                         [bell._GRADIENT_TOL * (1.0 + 1e-9), 0.0, 0.0, 0.0]])
        step, curved, pure = self._matches_oracle(grad, hess)
        assert curved.all() and not pure.any()
        assert np.array_equal(step[:, 3], [0.5, 0.0])
        assert np.array_equal(step[:, 0], grad[:, 0] / 3.0)


class TestMaximize:
    def test_restricted_lowest_vortex(self):
        result = bell.maximize_bell(PI_10, bell.RESTRICTED)
        assert result.converged
        assert result.best_value == pytest.approx(2.17, abs=0.01)
        assert abs(result.argmax[0]) == pytest.approx(0.45, abs=0.02)
        assert abs(result.argmax[1]) == pytest.approx(0.45, abs=0.02)

    def test_ground_mode_has_no_violation(self):
        for kind in (bell.RESTRICTED, bell.GENERAL):
            result = bell.maximize_bell(PI_00, kind)
            assert result.best_value <= 2.0 + 1e-9, kind
            assert result.converged, kind
            assert not result.violation, kind

    def test_general_beats_restricted(self):
        restricted = bell.maximize_bell(PI_10, bell.RESTRICTED)
        general = bell.maximize_bell(PI_10, bell.GENERAL)
        assert general.best_value >= restricted.best_value - 1e-9

    def test_monotone_growth_in_n(self):
        values = []
        for n in (1, 2, 5):
            result = bell.maximize_bell(
                wigner.lg_transform_evaluator((n, 0)), bell.RESTRICTED
            )
            values.append(result.best_value)
        assert values[0] < values[1] < values[2]

    def test_deterministic_given_seed(self):
        # no search reads the seed, so two seeds give bit-identical dataclasses
        for pi, kind in ((PI_10, bell.GENERAL), (PI_10, bell.RESTRICTED),
                         (wigner.elliptical_transform_evaluator((1.0, +1)), bell.GENERAL)):
            a = bell.maximize_bell(pi, kind, bell.OptimizerConfig(seed=1))
            b = bell.maximize_bell(pi, kind, bell.OptimizerConfig(seed=2))
            assert a == b and _bits(np.array(a.argmax)) == _bits(np.array(b.argmax))

    def test_beats_every_grid_seed(self):
        # the multi-start's restricted seed grid, 11 points per axis
        result = bell.maximize_bell(PI_10, bell.RESTRICTED)
        seeds = multistart_seeds(bell.RESTRICTED, grid_points=11)
        assert seeds.shape == (11**2, 2)
        worst_seed = max(abs(bell.bell_sum(PI_10, bell.RESTRICTED, u)) for u in seeds)
        assert result.best_value >= worst_seed - 1e-12

    @pytest.mark.parametrize(
        "mode, best_known",
        [((30, 0), 2.3323059355), ((50, 0), 2.3355298857), ((64, 0), 2.3365972142)],
        ids=["30-0", "50-0", "64-0"],
    )
    def test_restricted_maximum_independent_of_escape_side(self, mode, best_known):
        # the origin's top eigenvector is 1-D for restricted settings, and eigh may
        # return it with either sign: a start 1e-3 out on either side reaches the
        # reported maximum
        pi = wigner.lg_transform_evaluator(mode)
        result = bell.maximize_bell(pi, bell.RESTRICTED)
        assert result.converged
        assert result.best_value >= best_known - 1e-9
        top = _top_eigenspace(pi, bell.RESTRICTED)
        assert top.shape == (2, 1)
        _, f, _, converged = _ascend_from(pi, bell.RESTRICTED, 1e-3 * np.hstack([top, -top]).T)
        assert converged.all()
        assert np.all(np.abs(f - result.best_value) <= 1e-12)

    @pytest.mark.parametrize(
        "pi",
        [PI_10, wigner.lg_transform_evaluator((5, 3)),
         wigner.elliptical_transform_evaluator((2.0, +1))],
        ids=["lg-1-0", "lg-5-3", "elliptical-2"])
    def test_general_maximum_independent_of_escape_direction(self, pi):
        # the origin's top eigenspace is 2-D for general settings (the beams' rotation
        # symmetry), and LAPACK may return any basis of it: starts 1e-3 out along 20
        # random unit vectors in it each reach the reported maximum
        result = bell.maximize_bell(pi, bell.GENERAL)
        space = _top_eigenspace(pi, bell.GENERAL)
        assert space.shape == (8, 2)
        angle = np.random.default_rng(83).uniform(0.0, 2.0 * math.pi, 20)
        x = 1e-3 * (space @ np.array([np.cos(angle), np.sin(angle)])).T
        _, f, _, converged = _ascend_from(pi, bell.GENERAL, x)
        assert converged.all()
        assert np.all(np.abs(f - result.best_value) <= 1e-12)

    @pytest.mark.parametrize("kind", [bell.RESTRICTED, bell.GENERAL])
    def test_converges_for_every_radial_mode(self, kind):
        # a thin margin: general (64, 0) passes the 1e-7 gradient test with |grad B| = 9.43e-8
        unconverged = [
            n for n in range(1, 65)
            if not bell.maximize_bell(wigner.lg_transform_evaluator((n, 0)), kind).converged
        ]
        assert unconverged == []

    @pytest.mark.parametrize(
        "pi",
        [PI_10, wigner.lg_transform_evaluator((5, 0)), wigner.lg_transform_evaluator((20, 10)),
         *(wigner.elliptical_transform_evaluator((t, +1)) for t in (0.6, 1.1, 1.7))],
        ids=["lg-1-0", "lg-5-0", "lg-20-10", "elliptical-0.6", "elliptical-1.1",
             "elliptical-1.7"])
    def test_escape_only_on_the_first_jet(self, pi, monkeypatch):
        # the gradient vanishes at the origin, a saddle, and nowhere else the search
        # goes: a step along the soft rotation direction, where lambda ~ |grad B|,
        # takes no escape
        escaped, newton_step = [], bell._newton_step

        def recorded(grad, hess):
            # an escape puts 1/sqrt(lambda_max) on top of the Newton step's component
            # along the top eigenvector, grad . v / lambda_max where it curves upward
            step, curved, pure = newton_step(grad, hess)
            lam, vec = np.linalg.eigh(hess[0])
            top, top_vec = lam[-1], vec[:, -1]
            escaped.append(bool(curved[0]) and abs(step[0] @ top_vec - grad[0] @ top_vec / top)
                           > 0.5 / math.sqrt(top))
            return step, curved, pure

        monkeypatch.setattr(bell, "_newton_step", recorded)
        assert bell.maximize_bell(pi, bell.GENERAL).converged
        assert escaped[0] and not any(escaped[1:])

    @pytest.mark.parametrize("kind", [bell.RESTRICTED, bell.GENERAL])
    def test_max_iters_caps_the_whole_search(self, kind):
        # each Newton iteration of the search makes one order-2 Pi call
        for k in (1, 2, 5):
            jets = []

            def counted(point, *order):
                jets.append(order == (2,))
                return PI_10(point, *order)

            bell.maximize_bell(counted, kind, bell.OptimizerConfig(max_iters=k))
            assert sum(jets) <= k, k

    @pytest.mark.parametrize(
        "beam, kind",
        [((1, 0), bell.RESTRICTED), ((30, 0), bell.RESTRICTED), ((30, 0), bell.GENERAL),
         ((64, 0), bell.GENERAL), (2.0, bell.GENERAL), (5.0, bell.GENERAL)],
        ids=["lg-1-0-restricted", "lg-30-0-restricted", "lg-30-0-general", "lg-64-0-general",
             "elliptical-2", "elliptical-5"])
    def test_reported_maximum_is_exact_b_at_its_argmax(self, beam, kind):
        # the reported maximum rounds B at its argmax to within 4e-15, about twice the worst
        # seen (1.70e-15, general (64, 0)), out to t = 5, the end of the squeeze range
        if isinstance(beam, tuple):
            pi, exact = wigner.lg_transform_evaluator(beam), lg_pi_exact(beam)
        else:
            pi, exact = wigner.elliptical_transform_evaluator((beam, +1)), elliptical_pi_exact(beam)
        result = bell.maximize_bell(pi, kind)
        assert abs(Decimal(result.best_value) - abs(bell_exact(exact, kind, result.argmax))) <= 4e-15

    def test_nonfinite_evaluations_clamped(self):
        result = bell.maximize_bell(_flaky_pi, bell.RESTRICTED)
        assert math.isfinite(result.best_value)
        assert result.best_value > 2.0

    def test_all_nonfinite_reported_not_converged(self):
        def nan_pi(point):
            return np.full(np.shape(point[0]), math.nan)

        result = bell.maximize_bell(nan_pi, bell.RESTRICTED)
        assert not result.converged
        assert math.isnan(result.best_value)

    def test_underflow_plateau_reported_not_converged(self):
        # far-out rows, where every term but the origin's has Pi underflowed: B is flat
        # at |B| = 1, with a zero gradient and an all-zero Hessian, and that is no
        # maximum; near the largest floats the jet's slopes overflow, quietly
        for bound in (1e3, 1.7e308):
            x = multistart_seeds(bell.RESTRICTED, bound=bound, grid_points=4)
            assert np.abs(x).min() > bound / 10.0
            _, f, stopped, converged = _ascend_from(PI_10, bell.RESTRICTED, x)
            assert np.all(f == 1.0) and stopped.all()
            assert not converged.any()

    @pytest.mark.parametrize("nm, kind", [((3, 3), bell.RESTRICTED), ((5, 5), bell.GENERAL)])
    def test_balanced_mode_maxima_stay_converged(self, nm, kind):
        # |B| = 2 at the origin, where the Hessian is zero (restricted) or singular
        # (general), with no direction that ascends
        result = bell.maximize_bell(wigner.lg_transform_evaluator(nm), kind)
        assert result.converged
        assert result.best_value == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("kind", [bell.RESTRICTED, bell.GENERAL])
    def test_balanced_modes_report_no_violation(self, kind):
        # observed, not proven: the modes (p, p), l = 0, reach |B| = 2 and no more,
        # though (p, p) has Schmidt rank p + 1
        for p in range(1, 7):
            result = bell.maximize_bell(wigner.lg_transform_evaluator((p, p)), kind)
            assert not result.violation and result.converged, p

    def test_nonconvergence_reported_not_raised(self):
        cfg = bell.OptimizerConfig(max_iters=1)
        result = bell.maximize_bell(PI_10, bell.RESTRICTED, cfg)
        assert not result.converged
        assert math.isfinite(result.best_value)

    @pytest.mark.parametrize(
        "mode, kind, best_known",
        [((1, 0), bell.GENERAL, 2.2386784207), ((30, 0), bell.GENERAL, 2.5446000714),
         ((30, 0), bell.RESTRICTED, 2.3323059355)],
        ids=["general-1-0", "general-30-0", "restricted-30-0"],
    )
    def test_reaches_best_known_maximum(self, mode, kind, best_known):
        pi = wigner.lg_transform_evaluator(mode)
        result = bell.maximize_bell(pi, kind)
        assert result.converged
        assert result.best_value >= best_known - 1e-9
        # the argmax is stationary: central differences of |B| vanish there
        v, h = np.array(result.argmax), 1e-5
        grad = [(abs(bell.bell_sum(pi, kind, v + h * e))
                 - abs(bell.bell_sum(pi, kind, v - h * e))) / (2 * h) for e in np.eye(v.size)]
        assert np.linalg.norm(grad) <= 1e-6
        assert abs(bell.bell_sum(pi, kind, v)) == pytest.approx(result.best_value, abs=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            bell.maximize_bell(PI_10, "diagonal")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bell.OptimizerConfig(simplex_tol=1e-13)
        for bad in ({"simplex_tol": math.nan}, {"simplex_tol": math.inf}):
            with pytest.raises(ValueError):
                bell.OptimizerConfig(**bad)
        for bad in ({"max_iters": math.nan}, {"max_iters": 4000.0}, {"max_iters": True},
                    {"seed": 1.5}, {"seed": "x"}, {"seed": True}):
            with pytest.raises(TypeError):
                bell.OptimizerConfig(**bad)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            bell.OptimizerConfig(seed=np.int64(-1))
        assert bell.OptimizerConfig(seed=np.int64(0)).seed == 0
        # a printable value is shown as it was; one too long to print is named by its size
        with pytest.raises(ValueError, match=r"^max_iters must be >= 1, got 0$"):
            bell.OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got "):
            bell.OptimizerConfig(seed=-10**5000)
        # huge values that fit the rules stay accepted
        assert bell.OptimizerConfig(seed=10**30, max_iters=10**30).max_iters == 10**30
        # the retired multi-start's fields are gone
        for gone in ("grid_bounds", "grid_points", "restarts"):
            with pytest.raises(TypeError):
                bell.OptimizerConfig(**{gone: 8})

    def test_repr_shows_every_field(self):
        assert repr(bell.OptimizerConfig(seed=np.int64(7))) == (
            f"OptimizerConfig(simplex_tol=1e-09, max_iters=4000, seed={np.int64(7)!r})")
        # a field too long for Python to print is named by its size
        for name in ("seed", "max_iters"):
            shown = repr(bell.OptimizerConfig(**{name: 10**5000}))
            assert f"{name}=an integer of {(10**5000).bit_length()} bits" in shown


class TestSeeds:
    """The multi-start oracle's seeds, which the search drew before it started at the
    origin alone, and far-out rows of them, which ``_ascend`` takes quietly."""

    def test_default_general_seeds_keep_their_draws(self):
        # the origin, then 80 rows of the standard library's random() stream; draws on
        # [-1, 1] scaled by the bound 2 have the bits of random.uniform(-2, 2), -2 + 4 u
        drawn = []
        for seed in (0, 7, 12345, np.int64(7), 2**64 + 7):
            stream = random.Random(int(seed))
            expected = [[0.0] * 8] + [[stream.uniform(-2.0, 2.0) for _ in range(8)]
                                      for _ in range(80)]
            seeds = multistart_seeds(bell.GENERAL, seed)
            assert _bits(seeds) == _bits(np.array(expected))
            drawn.append(_bits(seeds))
        # a numpy integer draws as its int; a seed past 64 bits keys a stream of its own
        assert drawn[3] == drawn[1] != drawn[4]

    @pytest.mark.parametrize("bound", [1e308, 1.7e308, sys.float_info.max])
    def test_largest_bounds_seed_without_overflow(self, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in (bell.GENERAL, bell.RESTRICTED):
                seeds = multistart_seeds(kind, bound=bound)
                assert np.isfinite(seeds).all()
                assert 0.5 * bound < np.abs(seeds).max() <= bound
                _, f, stopped, _ = _ascend_from(PI_10, kind, seeds)
                assert np.isfinite(f).all() and stopped.all()


class TestNelderMead:
    """The Newton search reaches the maximum of scipy's Nelder-Mead restart loop."""

    @pytest.mark.parametrize(
        "pi, kind",
        [
            (PI_10, bell.RESTRICTED),
            (wigner.lg_transform_evaluator((30, 0)), bell.RESTRICTED),
            (wigner.lg_transform_evaluator((20, 10)), bell.RESTRICTED),
            (PI_10, bell.GENERAL),
            (wigner.elliptical_transform_evaluator((1.1, +1)), bell.GENERAL),
            # scipy's restarts stop at their evaluation cap here
            (wigner.elliptical_transform_evaluator((1.9, +1)), bell.GENERAL),
        ],
        ids=["restricted-10", "restricted-30-0", "restricted-20-10", "general-10",
             "elliptical-1.1", "elliptical-1.9"],
    )
    def test_maximize_bell_matches_scipy_restart_loop(self, pi, kind):
        expected = scipy_maximize_bell(pi, kind, bell.OptimizerConfig(seed=12345))
        result = bell.maximize_bell(pi, kind)
        assert result.converged
        assert result.best_value >= expected.best_value - 1e-12


class TestScan:
    def test_diagonal_scan_peak(self):
        rows = bell.bell_scan((1, 0), (0.0, 2.0), 201)
        assert rows.shape == (201, 3)
        peak = rows[np.argmax(rows[:, 2])]
        assert peak[2] == pytest.approx(2.17, abs=0.01)
        assert peak[0] == pytest.approx(0.45, abs=0.02)

    def test_fixed_py_scan(self):
        rows = bell.bell_scan((1, 0), (-1.0, 1.0), 11, py=0.45)
        assert np.all(rows[:, 1] == 0.45)
        x = rows[3, 0]
        assert rows[3, 2] == pytest.approx(abs(bell.bell_closed_form_10(x, 0.45)), abs=1e-12)

    def test_ground_mode_scan_bounded(self):
        rows = bell.bell_scan((0, 0), (0.0, 3.0), 61)
        assert np.max(rows[:, 2]) <= 2.0 + 1e-12

    def test_two_sample_scan_is_valid(self):
        rows = bell.bell_scan((1, 0), (0.0, 1.0), 2)
        assert rows.shape == (2, 3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match=r"^samples must be >= 2, got 1$"):
            bell.bell_scan((1, 0), (0.0, 1.0), 1)
        for bad in (2.5, True, "3"):
            with pytest.raises(TypeError, match="samples"):
                bell.bell_scan((1, 0), (0.0, 1.0), bad)
        with pytest.raises(ValueError, match="samples"):
            bell.bell_scan((1, 0), (0.0, 1.0), -10**5000)
        assert bell.bell_scan((1, 0), (0.0, 1.0), np.int64(3)).shape == (3, 3)
        with pytest.raises(ValueError):
            bell.bell_scan((1, 0), (2.0, 1.0), 5)
        with pytest.raises(ValueError):
            bell.bell_scan((1, 0), (0.0, 1.0), 5, py=math.nan)


class TestEllipticalProfile:
    def test_zero_squeeze_has_no_violation(self):
        profile = bell.elliptical_profile([0.0], kind=bell.GENERAL)
        assert profile.rows[0][1] <= 2.0 + 1e-9
        assert not profile.violation and profile.unconverged_t == ()

    def test_sign_reflection_symmetry_is_exact(self):
        # the property the sign-independent profile rests on: mirroring the
        # Y-side settings maps one sign branch onto the other, bit for bit
        rng = np.random.default_rng(61)
        for t in (0.3, 1.1, 2.0):
            plus = wigner.elliptical_transform_evaluator((t, +1))
            minus = wigner.elliptical_transform_evaluator((t, -1))
            for _ in range(40):
                v = rng.uniform(-2, 2, 8)
                mirrored = v.copy()
                mirrored[4:] = -mirrored[4:]
                assert bell.bell_sum(minus, bell.GENERAL, mirrored) == bell.bell_sum(
                    plus, bell.GENERAL, v
                )

    def test_rejects_bad_inputs(self):
        for kwargs in [{"t_values": []}, {"t_values": ()}]:
            with pytest.raises(ValueError):
                bell.elliptical_profile(**kwargs)

    def test_default_profile_converges_and_rises(self):
        profile = bell.elliptical_profile()
        assert profile.unconverged_t == ()
        values = [v for _, v in profile.rows]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_default_profile_takes_at_most_125_jets(self, monkeypatch):
        # one order-2 Pi call per Newton iteration: 116 with numpy 2, and 167 when
        # every upward-curved jet escapes; a bound, as LAPACK's basis may differ
        jets = []

        def counted(params):
            pi = wigner.elliptical_transform_evaluator(params)

            def evaluate(point, *order):
                jets.append(order == (2,))
                return pi(point, *order)
            return evaluate

        monkeypatch.setattr(bell, "elliptical_transform_evaluator", counted)
        assert bell.elliptical_profile().unconverged_t == ()
        assert 0 < sum(jets) <= 125

    @pytest.mark.parametrize("kind", [bell.RESTRICTED, bell.GENERAL])
    def test_whole_squeeze_range_converges(self, kind):
        ts = [k / 20 for k in range(-100, 101)]
        assert ts[0] == -wigner.MAX_SQUEEZE and ts[-1] == wigner.MAX_SQUEEZE
        assert bell.elliptical_profile(ts, kind=kind).unconverged_t == ()

    def test_supremum_tracks_rows(self):
        ts = [0.0, 0.5, 1.0]
        profile = bell.elliptical_profile(ts)
        values = [v for _, v in profile.rows]
        assert profile.sup_value == max(values)
        assert profile.sup_t == profile.rows[int(np.argmax(values))][0]
        searches = [bell.maximize_bell(wigner.elliptical_transform_evaluator((t, +1)),
                                       bell.GENERAL) for t in ts]
        assert profile.evaluations == sum(r.evaluations for r in searches)
        assert profile.violation

    def test_unconverged_t_names_each_search_that_did_not_converge(self):
        # one Newton iteration leaves every violating search short, and the t = 0
        # search, with no violation, retires at the origin in it
        ts = [0.5, 0.0, 1.0]
        profile = bell.elliptical_profile(ts, config=bell.OptimizerConfig(max_iters=1))
        assert profile.unconverged_t == (0.5, 1.0)

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_restricted_settings_never_violate(self, t, sign):
        # B(x, py) = 2 - (1 - e^{-c x^2})(1 - e^{-c py^2}), c = cosh 2t, so |B| <= 2
        pi = wigner.elliptical_transform_evaluator((t, sign))
        c = math.cosh(2.0 * t)
        for x, py in np.random.default_rng(97).uniform(-3.0, 3.0, (200, 2)):
            closed = 2.0 - (1.0 - math.exp(-c * x * x)) * (1.0 - math.exp(-c * py * py))
            assert abs(bell.bell_sum(pi, bell.RESTRICTED, (x, py)) - closed) <= 1e-15
        # so the search, from the origin where |B| = 2, reports no violation
        result = bell.maximize_bell(pi, bell.RESTRICTED)
        assert not result.violation and result.converged
        assert result.best_value == 2.0

    def test_a_tie_resolves_to_the_first_t_given(self):
        # every restricted maximum is |B| = 2 exactly, so the unsorted grid's first t wins
        profile = bell.elliptical_profile([1.0, 0.5, 0.0, 2.0, 5.0], kind=bell.RESTRICTED)
        assert [v for _, v in profile.rows] == [2.0] * 5
        assert profile.sup_t == 1.0 and profile.sup_value == 2.0
