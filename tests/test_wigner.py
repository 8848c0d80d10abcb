import math
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from vortexbell import modes, quadrature, specfun, wigner
from vortexbell.quadrature import QuadratureConfig

from _oracles import laguerre_exact, log_domain_pi, numeric_wigner_two_fields, wigner_args, z_jet

ALL_MODES_10 = [(n, m) for n in range(11) for m in range(11) if n + m <= 10]


def gh4_weights(order):
    nodes, w = np.polynomial.hermite.hermgauss(order)
    w = w * np.exp(nodes * nodes)
    grids = np.meshgrid(nodes, nodes, nodes, nodes, indexing="ij")
    w4 = (
        w[:, None, None, None]
        * w[None, :, None, None]
        * w[None, None, :, None]
        * w[None, None, None, :]
    )
    return grids, w4


class TestWignerArgs:
    def test_origin(self):
        assert wigner_args((0, 0, 0, 0)) == (0.0, 0.0)

    def test_direct_substitution(self):
        q0, q2 = wigner_args((1.0, 0.0, 0.0, 1.0))
        assert (q0, q2) == (0.5, 0.5)

    def test_cross_cancellation(self):
        q0, q2 = wigner_args((1.0, 1.0, 1.0, 1.0))
        assert (q0, q2) == (1.0, 0.0)

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-5, 5, (2000, 4))
        q0, q2 = wigner_args(tuple(pts.T))
        assert np.all(np.abs(q2) <= q0 + 1e-12)


class TestClosedForm:
    def test_ground_at_origin(self):
        assert wigner.wigner_lg((0, 0), (0, 0, 0, 0)) == pytest.approx(
            1.0 / math.pi**2, rel=1e-14
        )

    def test_lowest_vortex_explicit_formula(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-3, 3, (300, 4))
        x, px, y, py = pts.T
        expected = (
            np.exp(-(px**2) - py**2 - x**2 - y**2)
            * ((px - y) ** 2 + (py + x) ** 2 - 1.0)
            / math.pi**2
        )
        got = wigner.wigner_lg((1, 0), (x, px, y, py))
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_origin_parity(self):
        for n in range(21):
            for m in range(21 - n):
                pi0 = wigner.wigner_transform((n, m), (0.0, 0.0, 0.0, 0.0))
                assert abs(pi0 - (-1.0) ** (n + m)) <= 1e-12

    def test_transform_is_pi_squared_times_wigner(self):
        pt = (0.3, -0.8, 1.1, 0.2)
        for nm in [(0, 0), (2, 1), (5, 3)]:
            assert wigner.wigner_transform(nm, pt) == pytest.approx(
                math.pi**2 * wigner.wigner_lg(nm, pt), rel=1e-14
            )

    def test_bound_on_random_points(self):
        rng = np.random.default_rng(19)
        pts = rng.uniform(-3, 3, (10_000, 4))
        coords = tuple(pts.T)
        for nm in ALL_MODES_10:
            vals = wigner.wigner_transform(nm, coords)
            assert np.max(np.abs(vals)) <= 1.0 + 1e-9, nm

    def test_rotational_covariance(self):
        rng = np.random.default_rng(23)
        for nm in [(1, 0), (3, 2), (0, 4)]:
            for _ in range(20):
                x, px, y, py = rng.uniform(-2, 2, 4)
                phi = rng.uniform(0, 2 * math.pi)
                c, s = math.cos(phi), math.sin(phi)
                rotated = (c * x - s * y, c * px - s * py, s * x + c * y, s * px + c * py)
                a = wigner.wigner_lg(nm, (x, px, y, py))
                b = wigner.wigner_lg(nm, rotated)
                assert abs(a - b) < 1e-12

    def test_normalization(self):
        grids, w4 = gh4_weights(16)
        for nm in ALL_MODES_10:
            total = np.sum(w4 * wigner.wigner_lg(nm, grids))
            assert total == pytest.approx(1.0, abs=1e-6), nm

    def test_marginal_is_intensity(self):
        # integrating over (P_X, P_Y) at fixed (X, Y) returns |amplitude|^2
        nodes, w = np.polynomial.hermite.hermgauss(24)
        w = w * np.exp(nodes * nodes)
        PX, PY = np.meshgrid(nodes, nodes, indexing="ij")
        WPP = np.outer(w, w)
        points = [(0.0, 0.0), (0.7, -0.4), (1.5, 1.1)]
        for n in range(7):
            for m in range(7 - n):
                for X, Y in points:
                    marginal = np.sum(WPP * wigner.wigner_lg((n, m), (X, PX, Y, PY)))
                    intensity = abs(modes.lg_amplitude((n, m), X, Y)) ** 2
                    assert marginal == pytest.approx(intensity, abs=1e-6)
                    assert marginal >= -1e-6

    def test_log_domain_agrees_with_plain_product(self):
        # points on both sides of a Laguerre argument of 60 against the naive
        # formula, at each scalar point and at all of them as one array
        from vortexbell.specfun import laguerre

        rs = (3.5, 4.2, 5.0, 7.0)
        for nm in [(4, 0), (3, 3)]:
            naives = []
            for r in rs:
                pt = (r, 0.0, 0.0, r)
                q0, q2 = wigner_args(pt)
                naive = (
                    (-1.0) ** (nm[0] + nm[1])
                    * laguerre(nm[0], 0, 4 * (q0 + q2))
                    * laguerre(nm[1], 0, 4 * (q0 - q2))
                    * math.exp(-4 * q0)
                )
                naives.append(naive)
                assert wigner.wigner_transform(nm, pt) == pytest.approx(
                    naive, rel=1e-11, abs=1e-300
                )
            r = np.array(rs)
            assert wigner.wigner_transform(nm, (r, 0.0, 0.0, r)) == pytest.approx(
                naives, rel=1e-11, abs=1e-300
            )

    @pytest.mark.parametrize("n, m", [(1, 0), (30, 0), (64, 0), (32, 32)])
    def test_array_matches_scalar(self, n, m):
        rng = np.random.default_rng(47)
        pts = rng.uniform(-8, 8, (3000, 4))
        q0, q2 = wigner_args(tuple(pts.T))
        reach = 4 * q0 + 4 * np.abs(q2)
        assert np.any(reach <= 60.0) and np.any(reach > 60.0)
        pi = wigner.lg_transform_evaluator((n, m))
        array = pi(tuple(pts.T))
        scalar = np.array([pi(tuple(p)) for p in pts.tolist()])
        assert np.array_equal(array, scalar)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_point(self, bad):
        evaluators = [
            wigner.lg_transform_evaluator((2, 1)),
            lambda point: wigner.wigner_transform((2, 1), point),
            wigner.elliptical_transform_evaluator((0.5, 1)),
            lambda point: wigner.elliptical_transform((0.5, 1), point),
        ]
        array = np.array([0.5, bad, -0.3])
        for pi in evaluators:
            for point in [(bad, 0.0, 0.0, 0.0), (0.1, 0.2, 0.3, bad), (array, 0.0, 0.0, 0.0)]:
                with pytest.raises(ValueError):
                    pi(point)

    def test_extreme_points_stay_finite(self):
        # beyond the first point exp(-4Q0) is 0; the Laguerre product overflows
        # at the second for (64, 0) and at the third for every mode
        points = [(40.0, -40.0, 40.0, 40.0), (500.0, -500.0, 500.0, 500.0), (3e5, 0.0, 0.0, 3e5)]
        for point in points:
            for nm in [(30, 0), (32, 32), (64, 0)]:
                val = wigner.wigner_transform(nm, point)
                assert math.isfinite(val)
                assert abs(val) <= 1.0
                arr = wigner.wigner_transform(nm, tuple(np.full(3, c) for c in point))
                assert np.all(np.isfinite(arr)) and np.all(np.abs(arr) <= 1.0)


class TestDegreeZeroFactor:
    """Modes (n, 0) and (0, m) skip the factor L_0 = 1, with the bits of the full product."""

    @pytest.mark.parametrize("nm", [(0, 0), (1, 0), (30, 0), (64, 0), (0, 1), (0, 3), (0, 64)],
                             ids=str)
    def test_bit_identical_to_three_factor_product(self, nm):
        n, m = nm
        # random directions with 4Q0 uniform in [0, 700], short of the underflow of exp(-4Q0)
        rng = np.random.default_rng(83)
        d = rng.normal(size=(4, 3000))
        x, px, y, py = d / np.linalg.norm(d, axis=0) * np.sqrt(rng.uniform(0.0, 700.0, 3000))
        fourq0 = x * x + y * y + px * px + py * py
        fourq2 = 2.0 * (x * py - y * px)
        sign = -1.0 if (n + m) % 2 else 1.0
        product = (sign * specfun._laguerre(n, 0, fourq0 + fourq2)
                   * specfun._laguerre(m, 0, fourq0 - fourq2) * np.exp(-fourq0))
        values = wigner.wigner_transform(nm, (x, px, y, py))
        assert values.dtype == float and values.tobytes() == product.tobytes()
        for k in range(0, 3000, 293):
            value = wigner.wigner_transform(nm, (x[k], px[k], y[k], py[k]))
            assert value == product[k]


class TestFarRange:
    """The plain product beyond the Laguerre argument 60, against a log-domain oracle."""

    MODES = [(1, 0), (5, 3), (30, 0), (64, 0), (32, 32)]

    @staticmethod
    def _points(lo, hi, count, seed):
        # random directions at radii with 4Q0 = r^2 uniform in [lo, hi]
        rng = np.random.default_rng(seed)
        d = rng.normal(size=(4, count))
        d /= np.linalg.norm(d, axis=0)
        return tuple(d * np.sqrt(rng.uniform(lo, hi, count)))

    @pytest.mark.parametrize("nm", MODES)
    def test_matches_log_domain_oracle(self, nm):
        pts = self._points(0.0, 700.0, 20_000, 53)
        ref, fourq0, fourq2 = log_domain_pi(nm, pts)
        far = (fourq0 + np.abs(fourq2) > 60.0) & (np.abs(ref) > 1e-290)
        assert far.sum() > 10_000
        pi = wigner.lg_transform_evaluator(nm)
        assert pi(pts)[far] == pytest.approx(ref[far], rel=1e-11, abs=1e-300)
        for k in np.flatnonzero(far)[:200]:
            point = tuple(float(c[k]) for c in pts)
            assert pi(point) == pytest.approx(ref[k], rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("nm", MODES)
    def test_underflow_returns_zero(self, nm):
        # exp(-4Q0) turns subnormal near 4Q0 = 708 and reaches 0 near 745
        pts = self._points(700.0, 2000.0, 5000, 59)
        ref, fourq0, _ = log_domain_pi(nm, pts)
        gone = np.exp(-fourq0) == 0.0
        assert 3000 < gone.sum() < 5000
        assert np.all(np.abs(ref[gone]) < 1e-200)
        pi = wigner.lg_transform_evaluator(nm)
        values = pi(pts)
        assert np.all(values[gone] == 0.0)
        assert np.max(np.abs(values - ref)) < 1e-200
        for k in np.flatnonzero(gone)[:50]:
            assert pi(tuple(float(c[k]) for c in pts)) == 0.0


class TestNumericEngine:
    def test_ground_mode_peak(self):
        plan = wigner.lg_numeric_plan((0, 0))
        assert plan((0.0, 0.0, 0.0, 0.0)) == pytest.approx(1.0 / math.pi**2, abs=1e-8)

    def test_cross_validation_point(self):
        pt = (0.45, 0.0, 0.0, 0.45)
        plan = wigner.lg_numeric_plan((1, 0))
        assert plan(pt) == pytest.approx(wigner.wigner_lg((1, 0), pt), abs=1e-6)

    def test_high_order_random_point(self):
        rng = np.random.default_rng(29)
        plan = wigner.lg_numeric_plan((5, 0))
        for _ in range(5):
            pt = tuple(rng.uniform(-2, 2, 4))
            assert plan(pt) == pytest.approx(wigner.wigner_lg((5, 0), pt), abs=1e-6)

    @pytest.mark.parametrize("nm", [(0, 0), (1, 0), (2, 1), (5, 0)])
    def test_grid_agreement(self, nm):
        plan = wigner.lg_numeric_plan(nm)
        axis = np.linspace(-2.0, 2.0, 5)
        worst = 0.0
        for x in axis:
            for px in axis:
                for y in axis:
                    for py in axis:
                        pt = (x, px, y, py)
                        worst = max(worst, abs(plan(pt) - wigner.wigner_lg(nm, pt)))
        assert worst <= 1e-6

    @pytest.mark.parametrize("field, config", [
        pytest.param(partial(modes.lg_amplitude, nm), wigner.lg_numeric_plan(nm).config, id=str(nm))
        for nm in [(1, 0), (5, 3), (20, 10)]
    ] + [pytest.param(partial(wigner.elliptical_field, (0.7, 1)), None, id="elliptical-0.7")])
    def test_one_field_call_per_point_matches_two(self, field, config):
        calls = []

        def counted(X, Y):
            calls.append(np.size(X))
            return field(X, Y)

        plan = wigner.NumericWignerPlan(counted, config)
        nodes = plan.config.order ** 2
        assert calls == [nodes]  # the norm check
        for point in np.random.default_rng(7).uniform(-1.5, 1.5, (6, 4)):
            calls.clear()
            value = plan(point)
            assert calls == [nodes]  # one field call over the whole grid
            assert value == numeric_wigner_two_fields(plan, point)
        # a batch of 3 positions with 4 momenta each, shuffled: one field call per position
        rng = np.random.default_rng(8)
        xy = np.repeat(rng.uniform(-1.5, 1.5, (3, 2)), 4, axis=0)
        momenta = rng.uniform(-1.5, 1.5, (12, 2))
        batch = np.column_stack([xy[:, 0], momenta[:, 0], xy[:, 1], momenta[:, 1]])
        batch = batch[rng.permutation(12)]
        calls.clear()
        values = plan(batch.T)
        assert calls == [nodes] * 3
        assert values.tolist() == [numeric_wigner_two_fields(plan, point) for point in batch]

    @pytest.mark.parametrize("nm", [((total + 1) // 2, total // 2) for total in range(65)]
                             + [(16, 16), (20, 12), (48, 16), (0, 64)], ids=str)
    def test_default_order_resolves_the_mode(self, nm):
        # the default order passes the plan's own norm check and resolves W itself:
        # 3 (n + m) + 24 passes the norm check, yet is off W by 6.2e-4 at (16, 16)
        plan = wigner.lg_numeric_plan(nm)
        assert plan.config.order == max(96, 3 * sum(nm) + 56) <= quadrature.MAX_ORDER
        assert plan.norm_residual < 1e-11
        for point in [(0.3, -1.1, 0.7, 0.2), (-1.6, 0.4, 1.2, -0.9)]:
            assert plan(point) == pytest.approx(wigner.wigner_lg(nm, point), abs=1e-10)

    def test_rejects_unnormalized_field(self):
        bad = lambda X, Y: 2.0 * modes.lg_amplitude((0, 0), X, Y)
        with pytest.raises(ValueError, match="norm"):
            wigner.NumericWignerPlan(bad)

    def test_rejects_nan_norm(self):
        nan_field = lambda X, Y: np.full(np.shape(X), np.nan)
        with pytest.raises(ValueError, match="norm"):
            wigner.NumericWignerPlan(nan_field)

    def test_norm_residual_diagnostic(self):
        plan = wigner.lg_numeric_plan((2, 1))
        assert plan.norm_residual < 1e-9

    def test_rejects_nonfinite_point_and_integral(self):
        params = wigner.EllipticalParams(0.5, +1)
        for plan in (wigner.lg_numeric_plan((1, 0)),
                     wigner.NumericWignerPlan(lambda X, Y: wigner.elliptical_field(params, X, Y))):
            for bad in [(math.nan, 0.0, 0.0, 0.0), (0.0, math.inf, 0.0, 0.0),
                        (0.0, 0.0, 0.0, -math.inf)]:
                with pytest.raises(ValueError, match="point must be finite"):
                    plan(bad)
            # the phase overflows, so the integral is not finite
            for huge in [(0.0, 1e308, 0.0, 0.0), (1e308,) * 4]:
                with pytest.raises(ValueError, match="finite"):
                    plan(huge)
            assert math.isfinite(plan((0.3, -0.2, 0.1, 0.4)))
            # at a huge position the field underflows to 0, so W is 0 as in the closed form
            assert plan((1e308, 0.0, 0.0, 0.0)) == 0.0

    def test_rejects_a_point_that_is_not_four_coordinates(self):
        plan = wigner.lg_numeric_plan((1, 0))
        for point in [(1.0, 2.0, 3.0), (0.1, 0.2, 0.3, 0.4, 0.5), np.zeros(3)]:
            with pytest.raises(ValueError, match=f"4 coordinates, got {len(point)}"):
                plan(point)

    def test_arrays_give_the_per_point_values_in_their_shape(self):
        plan = wigner.lg_numeric_plan((1, 0))
        axis = np.linspace(-1.0, 0.5, 3)
        for points in [([0.1, 0.2], 0.0, 0.0, 0.0),
                       np.random.default_rng(9).uniform(-1.5, 1.5, (4, 5)),
                       np.meshgrid(axis, axis, axis, axis, indexing="ij")]:
            coords = np.broadcast_arrays(*map(np.asarray, points))
            values = plan(points)
            assert values.shape == coords[0].shape
            expected = [plan(tuple(float(c[k]) for c in coords)) for k in np.ndindex(values.shape)]
            assert values.ravel().tolist() == expected
        assert isinstance(plan((0.1, 0.2, 0.3, 0.4)), float)
        assert plan(np.array([0.1, 0.2, 0.3, 0.4])) == plan((0.1, 0.2, 0.3, 0.4))

    def test_rejects_a_batch_with_one_bad_point(self):
        plan = wigner.lg_numeric_plan((1, 0))
        points = np.random.default_rng(10).uniform(-1.5, 1.5, (4, 6))
        for k, bad in [(0, math.nan), (1, math.inf), (3, -math.inf)]:
            nonfinite = points.copy()
            nonfinite[k, 4] = bad
            with pytest.raises(ValueError, match="point must be finite"):
                plan(nonfinite)
        # one huge momentum overflows its phase, so that integral is not finite
        huge = points.copy()
        huge[1, 2] = 1e308
        with pytest.raises(ValueError, match="finite"):
            plan(huge)


class TestElliptical:
    def test_zero_squeeze_reduces_to_ground(self):
        rng = np.random.default_rng(31)
        for sign in (+1, -1):
            for _ in range(10):
                X, Y = rng.uniform(-2, 2, 2)
                expected = math.exp(-(X * X + Y * Y) / 2.0) / math.sqrt(math.pi)
                assert wigner.elliptical_field((0.0, sign), X, Y) == pytest.approx(
                    expected, rel=1e-14
                )

    @pytest.mark.parametrize("t", [0.2, 0.5, 1.0, 2.0])
    def test_unit_norm_for_all_squeezes(self, t):
        # integrate in the squeeze-aligned frame u,v = (X+-Y)/sqrt(2), whose
        # half-widths track the e^{+-t} extents; the Jacobian is 1
        nodes, w = np.polynomial.legendre.leggauss(160)
        un = nodes * 7.0 * math.exp(t)
        vn = nodes * 7.0 * math.exp(-t)
        U, V = np.meshgrid(un, vn, indexing="ij")
        W = np.outer(w * 7.0 * math.exp(t), w * 7.0 * math.exp(-t))
        X = (U + V) / math.sqrt(2.0)
        Y = (U - V) / math.sqrt(2.0)
        f = wigner.elliptical_field((t, +1), X, Y)
        assert np.sum(W * f * f) == pytest.approx(1.0, abs=1e-8)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            t = rng.uniform(0, 2)
            X, Y = rng.uniform(-2, 2, 2)
            assert wigner.elliptical_field((t, -1), X, Y) == pytest.approx(
                wigner.elliptical_field((t, +1), X, -Y), rel=1e-14
            )

    def test_wigner_at_origin(self):
        assert wigner.wigner_elliptical((0.0, +1), (0, 0, 0, 0)) == pytest.approx(
            1.0 / math.pi**2, rel=1e-14
        )

    @pytest.mark.parametrize("t", [0.3, 0.5, 0.8])
    def test_wigner_matches_numeric_oracle(self, t):
        params = wigner.EllipticalParams(t, +1)
        plan = wigner.NumericWignerPlan(
            lambda X, Y: wigner.elliptical_field(params, X, Y),
            QuadratureConfig(order=96, half_width=8.0),
        )
        rng = np.random.default_rng(41)
        for _ in range(6):
            pt = tuple(rng.uniform(-1.5, 1.5, 4))
            assert plan(pt) == pytest.approx(
                wigner.wigner_elliptical(params, pt), abs=1e-8
            )

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.8])
    def test_wigner_normalization(self, t):
        # the closed form factorizes into a position and a momentum block
        nodes, w = np.polynomial.legendre.leggauss(140)
        half = 8.0
        nodes, w = nodes * half, w * half
        A, B = np.meshgrid(nodes, nodes, indexing="ij")
        W = np.outer(w, w)
        params = wigner.EllipticalParams(t, +1)
        c2t, s2t = math.cosh(2 * t), math.sinh(2 * t)
        pos = np.sum(W * np.exp(-(A**2 + B**2) * c2t + 2 * A * B * s2t))
        mom = np.sum(W * np.exp(-(A**2 + B**2) * c2t - 2 * A * B * s2t))
        assert pos * mom / math.pi**2 == pytest.approx(1.0, abs=1e-7)
        # and the closed form is everywhere nonnegative
        rng = np.random.default_rng(43)
        pts = rng.uniform(-3, 3, (100, 4))
        for pt in pts:
            assert wigner.wigner_elliptical(params, tuple(pt)) >= 0.0

    def test_huge_finite_points_give_zero(self):
        # the exponent's two squared terms never cancel, so no inf - inf
        huge = [(1e200, 1e200), (1e200, -1e200), (1.7976931348623157e308, 0.0), (0.0, -1e300)]
        for t in (0.0, 0.5, -2.0, 5.0):
            for sign in (+1, -1):
                params = wigner.EllipticalParams(t, sign)
                for X, Y in huge:
                    assert wigner.elliptical_field(params, X, Y) == 0.0, (t, sign, X, Y)
                xs, ys = np.array(huge).T
                assert np.array_equal(wigner.elliptical_field(params, xs, ys), np.zeros(len(huge)))
        params = wigner.EllipticalParams(0.5, +1)
        plan = wigner.NumericWignerPlan(lambda X, Y: wigner.elliptical_field(params, X, Y))
        for point in [(1e308, 0.0, 0.0, 0.0), (1e200, 0.3, 1e200, -0.2)]:
            assert plan(point) == 0.0 == wigner.wigner_elliptical(params, point)
        # a coordinate that is not finite is rejected, as by every other amplitude
        for X, Y in [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf),
                     (np.array([0.0, math.nan]), np.zeros(2))]:
            with pytest.raises(ValueError):
                wigner.elliptical_field(params, X, Y)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            wigner.EllipticalParams(5.5, +1)
        for sign in (2, 0, -2):
            with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got "):
                wigner.EllipticalParams(0.5, sign)
        # the sign is an integer, as every integer parameter is: not a bool or a float
        for sign in (True, 1.0, -1.0, "1"):
            with pytest.raises(TypeError):
                wigner.EllipticalParams(0.5, sign)
        params = wigner.EllipticalParams(0.5, np.int64(-1))
        assert type(params.sign) is int and repr(params) == "EllipticalParams(t=0.5, sign=-1)"


def _rotate(point, theta, mirror):
    """Rotate (X, P_X) by theta and (Y, P_Y) by theta, or by -theta when mirror."""
    x, px, y, py = point
    c, s = np.cos(theta), np.sin(theta)
    t = -s if mirror else s
    return c * x - s * px, s * x + c * px, c * y - t * py, t * y + c * py


class TestDerivatives:
    """pi(point, 2): the forms and the partials G_q, G_qq, checked through the z-space jet."""

    EVALUATORS = [
        *(((n, m), 1.0 / math.sqrt(n + m + 1.0), wigner.lg_transform_evaluator((n, m)))
          for n, m in [(1, 0), (5, 3), (30, 0), (64, 0), (32, 32)]),
        *((t, math.exp(-t), wigner.elliptical_transform_evaluator((t, +1)))
          for t in (0.0, 0.7, 2.0, 5.0)),
    ]
    IDS = ["lg-1-0", "lg-5-3", "lg-30-0", "lg-64-0", "lg-32-32",
           "elliptical-0", "elliptical-0.7", "elliptical-2", "elliptical-5"]

    @pytest.mark.parametrize("label, scale, pi", EVALUATORS, ids=IDS)
    def test_match_central_differences(self, label, scale, pi):
        rng = np.random.default_rng(73)
        pts = rng.uniform(-1.5 * scale, 1.5 * scale, (4, 30))
        value, grad, hess = z_jet(pi, tuple(pts))
        assert grad.shape == (30, 4) and hess.shape == (30, 4, 4)
        h = 1e-6 * scale
        fd_grad = np.empty_like(grad)
        fd_hess = np.empty_like(hess)
        for i, e in enumerate(np.eye(4)):
            up, down = tuple(pts + h * e[:, None]), tuple(pts - h * e[:, None])
            fd_grad[:, i] = (pi(up) - pi(down)) / (2 * h)
            fd_hess[:, i] = (z_jet(pi, up)[1] - z_jet(pi, down)[1]) / (2 * h)
        assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(grad))
        assert np.max(np.abs(hess - fd_hess)) <= 1e-6 * np.max(np.abs(hess))
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
        _, forms, g_q, g_qq = pi(tuple(pts), 2)
        k_forms = len(forms)
        assert forms.shape == (k_forms, 4, 4) and np.array_equal(forms, forms.swapaxes(-1, -2))
        assert g_q.shape == (30, k_forms) and g_qq.shape == (30, k_forms, k_forms)
        assert np.array_equal(g_qq, g_qq.swapaxes(-1, -2))
        for k in range(0, 30, 7):
            point = tuple(float(c) for c in pts[:, k])
            v, point_forms, g, gg = pi(point, 2)
            assert isinstance(v, float) and g.shape == (k_forms,) and gg.shape == (k_forms, k_forms)
            assert v == value[k] and np.array_equal(point_forms, forms)
            assert np.array_equal(g, g_q[k]) and np.array_equal(gg, g_qq[k])
            _, gk, hk = z_jet(pi, point)
            assert np.array_equal(gk, grad[k]) and np.array_equal(hk, hess[k])

    @pytest.mark.parametrize("label, scale, pi", EVALUATORS, ids=IDS)
    def test_value_part_is_bit_identical(self, label, scale, pi):
        rng = np.random.default_rng(79)
        pts = tuple(rng.uniform(-2 * scale, 2 * scale, (4, 7, 3)))
        plain = pi(pts)
        assert np.array_equal(pi(pts, 2)[0], plain)
        for k in range(3):
            point = tuple(float(c[k, 1]) for c in pts)
            assert pi(point, 2)[0] == pi(point) == plain[k, 1]
            assert isinstance(pi(point), float)

    def test_zero_where_pi_underflows(self):
        # past the first point something overflows on the way: 4Q0, the slopes or their products
        for far in [(40.0, -40.0, 40.0, 40.0), (1e200, 0.0, 0.0, 0.0), (3e5, 0.0, 0.0, 3e5),
                    (1e160, 1e160, -1e160, 1e160)]:
            for pi in (wigner.lg_transform_evaluator((30, 0)),
                       wigner.elliptical_transform_evaluator((1.0, +1))):
                value, _, g_q, g_qq = pi(far, 2)
                assert value == 0.0 and not g_q.any() and not g_qq.any()
                assert pi(far) == 0.0
                _, grad, hess = z_jet(pi, far)
                assert not grad.any() and not hess.any()
                arrays = tuple(np.array([c, 0.1]) for c in far)
                value, _, g_q, g_qq = pi(arrays, 2)
                assert value[0] == 0.0 and not g_q[0].any() and not g_qq[0].any()
                assert np.all(np.isfinite(g_q)) and np.all(np.isfinite(g_qq))
                assert g_q[1].any()
                _, grad, hess = z_jet(pi, arrays)
                assert not grad[0].any() and not hess[0].any() and grad[1].any()

    def test_rejects_bad_order_and_points(self):
        for pi in (wigner.lg_transform_evaluator((1, 0)),
                   wigner.elliptical_transform_evaluator((0.5, +1))):
            for order in (1, 3, -1, True, 10**5000):
                with pytest.raises(ValueError, match="derivative order"):
                    pi((0.1, 0.2, 0.3, 0.4), order)
            for order in (0, 2):
                with pytest.raises(ValueError):
                    pi((math.nan, 0.0, 0.0, 0.0), order)

    def test_rejects_points_without_four_coordinates(self):
        points = [(1.0, 2.0, 3.0), (0.1, 0.2, 0.3, 0.4, 0.5), np.zeros((3, 5)), np.zeros((5, 2)),
                  tuple(np.zeros((3, 2)))]
        for pi in (wigner.lg_transform_evaluator((1, 0)),
                   wigner.elliptical_transform_evaluator((0.5, +1))):
            for order in (0, 2):
                for point in points:
                    with pytest.raises(ValueError, match="4 coordinates"):
                        pi(point, order)
        with pytest.raises(ValueError, match="4 coordinates, got 3"):
            wigner.wigner_transform((1, 0), (1.0, 2.0, 3.0))


class TestDampedDerivatives:
    """``_damped_derivatives``' rows against L_p, L_{p-1}^(1) and L_{p-2}^(2) summed exactly."""

    # the error allowed, relative to each row's bound: about twice the worst seen, 1.03e-15
    # in the D row at p = 41, u = 0
    TOLERANCE = 2e-15

    def test_rows_match_exact_series(self):
        rng = np.random.default_rng(83)
        flat = np.concatenate([[0.0, -0.0, 1.0, 2.0], rng.uniform(-2.0, 80.0, 20), [1e200, 1e300]])
        with np.errstate(all="ignore"):
            for p in range(65):
                rows = wigner._damped_derivatives(p, flat)
                for u in (flat.reshape(2, 13), np.float64(1.25), np.asarray(0.5)):
                    assert all(np.shape(g) == np.shape(u) for g in wigner._damped_derivatives(p, u)), (
                        np.shape(u), p)
                assert all(np.shape(g) == np.shape(flat) for g in rows)
                for i, u in enumerate(flat[:-2].tolist()):  # the last two overflow
                    self._check(p, u, [row[i] for row in rows])
                self._check(p, 1.25, wigner._damped_derivatives(p, np.float64(1.25)))

    def _check(self, p, u, got):
        # exact L_p, L_{p-1}^(1) and L_{p-2}^(2), 0 for a negative degree, each with its bound
        # max(|L|, C(q+a, q) e^{u/2})
        terms = []
        for q, a in ((p, 0), (p - 1, 1), (p - 2, 2)):
            exact = laguerre_exact(q, a, u) if q >= 0 else 0
            terms.append((exact, max(abs(float(exact)), math.comb(q + a, q) * math.exp(u / 2.0))
                          if q >= 0 else 0.0))
        (lp, b0), (l1, b1), (l2, b2) = terms
        # D L_p = L_p' - L_p/2 and D^2 L_p = L_p'' - L_p' + L_p/4, with L_p' = -L_{p-1}^(1)
        exact = (lp, -l1 - lp / 2, l2 + l1 + lp / 4)
        bounds = (b0, b1 + b0 / 2, b2 + b1 + b0 / 4)
        for g, e, b in zip(got, exact, bounds):
            assert abs(Fraction(float(g)) - e) <= self.TOLERANCE * b, (p, u)


class TestPhaseRotationSymmetry:
    """The invariance behind the zero Hessian eigenvalue at a general Bell maximum."""

    @pytest.mark.parametrize("nm", [(1, 0), (5, 3)])
    def test_lg_invariant_under_equal_rotations(self, nm):
        rng = np.random.default_rng(83)
        pts = rng.uniform(-2, 2, (4, 1000)) / math.sqrt(sum(nm) + 1)
        theta = rng.uniform(0, 2 * math.pi, 1000)
        pi = wigner.lg_transform_evaluator(nm)
        assert np.max(np.abs(pi(_rotate(pts, theta, mirror=False)) - pi(tuple(pts)))) <= 1e-15

    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_elliptical_invariant_under_opposite_rotations(self, t):
        rng = np.random.default_rng(89)
        pts = rng.uniform(-2, 2, (4, 1000))
        theta = rng.uniform(0, 2 * math.pi, 1000)
        pi = wigner.elliptical_transform_evaluator((t, +1))
        assert np.max(np.abs(pi(_rotate(pts, theta, mirror=True)) - pi(tuple(pts)))) <= 1e-15


class TestBlocks:
    """Pi on more than ``_BLOCK`` points, filled block by block, has the bits of smaller calls."""

    BLOCK = specfun._BLOCK
    EVALUATORS = [
        pytest.param(wigner.lg_transform_evaluator((1, 0)), id="lg-1-0"),
        pytest.param(wigner.lg_transform_evaluator((30, 0)), id="lg-30-0"),
        pytest.param(wigner.lg_transform_evaluator((5, 3)), id="lg-5-3"),
        pytest.param(wigner.elliptical_transform_evaluator((0.7, -1)), id="elliptical-0.7"),
    ]

    @staticmethod
    def _in_slices(pi, pts, step=4099):
        # slice ends off the block boundaries, each slice below the block size
        return np.concatenate([pi(tuple(c[k:k + step] for c in pts))
                               for k in range(0, pts[0].size, step)])

    @pytest.mark.parametrize("pi", EVALUATORS)
    @pytest.mark.parametrize("extra", [-1, 0, 1, BLOCK + 3])
    def test_matches_small_calls(self, pi, extra):
        size = self.BLOCK + extra
        pts = tuple(np.random.default_rng(size).uniform(-3.0, 3.0, (4, size)))
        values = pi(pts)
        assert values.shape == (size,)
        assert np.array_equal(values, self._in_slices(pi, pts))
        for k in (0, size // 2, size - 1):
            assert values[k] == pi(tuple(float(c[k]) for c in pts))

    @pytest.mark.parametrize("pi", EVALUATORS)
    def test_broadcast_grid(self, pi):
        axis = np.linspace(-2.5, 2.5, 13)
        grid = (axis[:, None, None, None], axis[None, ::-1, None, None],
                axis[None, None, :, None], axis[None, None, None, :] + 0.1)
        values = pi(grid)
        assert values.shape == (13,) * 4 and values.size > self.BLOCK
        full = np.broadcast_arrays(*grid)
        # each slice along the first axis is one call of 13^3 points
        assert np.array_equal(values, np.stack([pi(tuple(c[i] for c in full)) for i in range(13)]))
        # a transposed, reversed view of the same points
        full = [np.ascontiguousarray(c) for c in full]
        assert np.array_equal(pi(tuple(c.T[::-1] for c in full)), values.T[::-1])

    def test_broadcast_axes_are_never_copied_to_full_size(self):
        # Pi on the 33-node axes of wigner_moments((20, 10)): each block comes from the views
        nodes = np.polynomial.hermite.hermgauss(33)[0]
        axes = (nodes[:, None, None, None], nodes[:, None, None], nodes[:, None], nodes)
        pi = wigner.lg_transform_evaluator((20, 10))
        tracemalloc.start()
        try:
            values = pi(axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (33,) * 4 and values.flags.c_contiguous
        assert peak < 2 * values.nbytes
        for k in [(0, 0, 0, 0), (16, 3, 30, 7), (32, 32, 32, 32)]:
            assert values[k] == pi(tuple(float(nodes[i]) for i in k))

    @pytest.mark.parametrize("pi", EVALUATORS)
    def test_later_block_underflow_and_nan(self, pi):
        size = 2 * self.BLOCK + 3
        pts = np.random.default_rng(61).uniform(-3.0, 3.0, (4, size))
        far = [self.BLOCK + 5, 2 * self.BLOCK + 1]
        pts[0, far] = [40.0, 1e200]
        values = pi(tuple(pts))
        assert np.all(values[far] == 0.0)
        assert np.array_equal(values, self._in_slices(pi, tuple(pts)))
        pts[2, 2 * self.BLOCK + 2] = math.nan
        with pytest.raises(ValueError, match="finite"):
            pi(tuple(pts))
