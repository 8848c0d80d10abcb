import math

import numpy as np
import pytest

from vortexbell import bell, wigner

from _oracles import scipy_maximize_bell

PI_10 = wigner.lg_transform_evaluator((1, 0))
PI_00 = wigner.lg_transform_evaluator((0, 0))


class TestBellSums:
    def test_restricted_zero_settings(self):
        # all four parity terms are +/-1 at the origin
        assert bell.bell_sum_restricted(PI_10, (0.0, 0.0)) == pytest.approx(-2.0, abs=1e-14)

    def test_restricted_near_reported_maximum(self):
        assert abs(bell.bell_sum_restricted(PI_10, (0.45, 0.45))) == pytest.approx(
            2.17, abs=0.01
        )

    def test_closed_form_examples(self):
        assert bell.bell_closed_form_10(0.0, 0.0) == pytest.approx(-2.0, abs=1e-14)
        assert abs(bell.bell_closed_form_10(0.45, 0.45)) == pytest.approx(2.17, abs=0.01)
        assert bell.bell_closed_form_10(3.0, -3.0) == pytest.approx(
            bell.bell_sum_restricted(PI_10, (3.0, -3.0)), abs=1e-12
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
            assert closed == pytest.approx(bell.bell_sum_restricted(PI_10, (x, py)), abs=1e-12)

    def test_sums_return_floats(self):
        for pi in (PI_10, wigner.elliptical_transform_evaluator((0.7, +1))):
            assert type(bell.bell_sum_restricted(pi, (0.3, -0.2))) is float
            assert type(bell.bell_sum_general(pi, [0.1 * k for k in range(8)])) is float

    def test_closed_form_equivalence_on_random_points(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            x, py = rng.uniform(-4, 4, 2)
            assert bell.bell_closed_form_10(x, py) == pytest.approx(
                bell.bell_sum_restricted(PI_10, (x, py)), abs=1e-12
            )

    def test_restricted_symmetries(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            x, py = rng.uniform(-3, 3, 2)
            base = bell.bell_sum_restricted(PI_10, (x, py))
            assert bell.bell_sum_restricted(PI_10, (py, x)) == pytest.approx(
                base, abs=1e-12
            )
            assert bell.bell_sum_restricted(PI_10, (-x, -py)) == pytest.approx(
                base, abs=1e-12
            )

    def test_general_degenerate_settings(self):
        settings = bell.BellSettingsGeneral.from_vector([0.0] * 8)
        assert bell.bell_sum_general(PI_10, settings) == pytest.approx(-2.0, abs=1e-14)

    def test_general_at_reference_settings(self):
        value = bell.bell_sum_general(
            PI_10, (-0.07, 0.05, 0.4, -0.26, -0.05, -0.07, 0.26, 0.4)
        )
        assert abs(value) >= 2.23

    def test_restricted_embeds_in_general(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            x, py = rng.uniform(-3, 3, 2)
            embedded = bell.bell_sum_general(
                PI_10, (0.0, 0.0, x, 0.0, 0.0, 0.0, 0.0, py)
            )
            assert embedded == bell.bell_sum_restricted(PI_10, (x, py))

    def test_ground_mode_scan_never_violates(self):
        axis = np.linspace(-3.0, 3.0, 61)
        worst = max(
            abs(bell.bell_sum_restricted(PI_00, (x, py))) for x in axis for py in axis
        )
        assert worst <= 2.0 + 1e-12

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            bell.BellSettingsRestricted(math.nan, 0.0)
        with pytest.raises(ValueError):
            bell.BellSettingsGeneral.from_vector([0.0] * 7)


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
        u = rng.uniform(-2, 2, (20, 8))
        batched = bell._bell(PI_10, bell.GENERAL, u)
        scalar = [bell.bell_sum_general(PI_10, row) for row in u]
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
        cfg = bell.OptimizerConfig(seed=99, restarts=4)
        a = bell.maximize_bell(PI_10, bell.GENERAL, cfg)
        b = bell.maximize_bell(PI_10, bell.GENERAL, cfg)
        assert a == b  # bit-identical dataclasses

    def test_beats_every_grid_seed(self):
        cfg = bell.OptimizerConfig(grid_points=11, restarts=3)
        result = bell.maximize_bell(PI_10, bell.RESTRICTED, cfg)
        seeds = bell._seed_points(bell.RESTRICTED, cfg)
        assert seeds.shape == (cfg.grid_points**2, 2)
        worst_seed = max(abs(bell.bell_sum_restricted(PI_10, u)) for u in seeds)
        assert result.best_value >= worst_seed - 1e-12

    @pytest.mark.parametrize(
        "mode, best_known",
        [((30, 0), 2.3323059355), ((50, 0), 2.3355298857), ((64, 0), 2.3365972142)],
        ids=["30-0", "50-0", "64-0"],
    )
    def test_restricted_maximum_independent_of_seed_order(self, monkeypatch, mode, best_known):
        # the seeds must reach the violation basin, |x| ~ 0.6/sqrt(n); seeds on
        # the |B| = 2 plateau would be ranked by the last bits of B
        pi = wigner.lg_transform_evaluator(mode)
        seeds = bell._seed_points(bell.RESTRICTED, bell.OptimizerConfig())
        for p in range(10):
            permuted = seeds[np.random.default_rng(p).permutation(len(seeds))]
            monkeypatch.setattr(bell, "_seed_points", lambda kind, cfg: permuted)
            result = bell.maximize_bell(pi, bell.RESTRICTED)
            assert result.converged
            assert result.best_value >= best_known - 1e-9

    def test_restricted_converges_for_every_radial_mode(self):
        unconverged = [
            n for n in range(1, 65)
            if not bell.maximize_bell(wigner.lg_transform_evaluator((n, 0)),
                                      bell.RESTRICTED).converged
        ]
        assert unconverged == []

    def test_nonfinite_evaluations_clamped(self):
        def flaky_pi(point, order=0):
            # NaN wherever |X| > 1, in Pi and in its derivatives
            nan = np.where(np.abs(point[0]) > 1.0, math.nan, 0.0)
            if not order:
                return PI_10(point) + nan
            return tuple(d + nan[(...,) + (None,) * (d.ndim - nan.ndim)]
                         for d in PI_10(point, order))

        result = bell.maximize_bell(flaky_pi, bell.RESTRICTED)
        assert math.isfinite(result.best_value)
        assert result.best_value > 2.0

    def test_all_nonfinite_reported_not_converged(self):
        def nan_pi(point):
            return np.full(np.shape(point[0]), math.nan)

        result = bell.maximize_bell(nan_pi, bell.RESTRICTED)
        assert not result.converged
        assert math.isnan(result.best_value)

    def test_nonconvergence_reported_not_raised(self):
        cfg = bell.OptimizerConfig(max_iters=1, restarts=1)
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
        total = bell.bell_sum_general if kind == bell.GENERAL else bell.bell_sum_restricted
        v, h = np.array(result.argmax), 1e-5
        grad = [(abs(total(pi, v + h * e)) - abs(total(pi, v - h * e))) / (2 * h)
                for e in np.eye(v.size)]
        assert np.linalg.norm(grad) <= 1e-6
        assert abs(total(pi, v)) == pytest.approx(result.best_value, abs=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            bell.maximize_bell(PI_10, "diagonal")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bell.OptimizerConfig(simplex_tol=1e-13)
        with pytest.raises(ValueError):
            bell.OptimizerConfig(grid_points=2)
        for bad in ({"simplex_tol": math.nan}, {"simplex_tol": math.inf}, {"grid_bounds": math.inf},
                    {"grid_bounds": math.nan}, {"grid_bounds": -1.0}):
            with pytest.raises(ValueError):
                bell.OptimizerConfig(**bad)
        for bad in ({"max_iters": math.nan}, {"max_iters": 4000.0},
                    {"grid_points": 21.5}, {"restarts": True},
                    {"seed": 1.5}, {"seed": "x"}, {"seed": True}):
            with pytest.raises(TypeError):
                bell.OptimizerConfig(**bad)
        with pytest.raises(ValueError):
            bell.OptimizerConfig(seed=-1)
        assert bell.OptimizerConfig(seed=np.int64(0)).seed == 0


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
        cfg = bell.OptimizerConfig(seed=12345)
        expected = scipy_maximize_bell(pi, kind, cfg)
        result = bell.maximize_bell(pi, kind, cfg)
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
        with pytest.raises(ValueError):
            bell.bell_scan((1, 0), (0.0, 1.0), 1)
        with pytest.raises(ValueError):
            bell.bell_scan((1, 0), (2.0, 1.0), 5)
        with pytest.raises(ValueError):
            bell.bell_scan((1, 0), (0.0, 1.0), 5, py=math.nan)


class TestEllipticalProfile:
    def test_zero_squeeze_has_no_violation(self):
        profile = bell.elliptical_profile(
            [0.0], kind=bell.GENERAL, config=bell.OptimizerConfig(restarts=4)
        )
        assert profile.rows[0][1] <= 2.0 + 1e-9

    def test_sign_branches_agree(self):
        cfg = bell.OptimizerConfig(restarts=3, max_iters=1500)
        plus = bell.elliptical_profile([0.4, 0.8], sign=+1, config=cfg)
        minus = bell.elliptical_profile([0.4, 0.8], sign=-1, config=cfg)
        assert plus.rows == minus.rows

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
                assert bell.bell_sum_general(minus, mirrored) == bell.bell_sum_general(
                    plus, v
                )

    def test_rejects_bad_inputs(self):
        for kwargs in [{"t_values": []}, {"t_values": ()}, {"sign": 0}]:
            with pytest.raises(ValueError):
                bell.elliptical_profile(**kwargs)

    def test_default_profile_converges_and_rises(self):
        profile = bell.elliptical_profile()
        assert profile.all_converged
        values = [v for _, v in profile.rows]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_supremum_tracks_rows(self):
        cfg = bell.OptimizerConfig(restarts=3)
        profile = bell.elliptical_profile([0.0, 0.5, 1.0], config=cfg)
        values = [v for _, v in profile.rows]
        assert profile.sup_value == max(values)
        assert profile.sup_t == profile.rows[int(np.argmax(values))][0]
