import math

import numpy as np
import pytest
from scipy.optimize import minimize

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
        axis = np.linspace(-cfg.grid_bounds, cfg.grid_bounds, cfg.grid_points)
        worst_seed = max(
            abs(bell.bell_sum_restricted(PI_10, (x, py))) for x in axis for py in axis
        )
        assert result.best_value >= worst_seed - 1e-12

    def test_nonfinite_evaluations_clamped(self):
        def flaky_pi(point):
            x = point[0]
            if abs(x) > 1.0:
                return math.nan
            return PI_10(point)

        result = bell.maximize_bell(flaky_pi, bell.RESTRICTED)
        assert math.isfinite(result.best_value)
        assert result.best_value > 2.0

    def test_nonconvergence_reported_not_raised(self):
        cfg = bell.OptimizerConfig(max_iters=1, restarts=1)
        result = bell.maximize_bell(PI_10, bell.RESTRICTED, cfg)
        assert not result.converged
        assert math.isfinite(result.best_value)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            bell.maximize_bell(PI_10, "diagonal")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bell.OptimizerConfig(simplex_tol=1e-13)
        with pytest.raises(ValueError):
            bell.OptimizerConfig(grid_points=2)
        for bad in ({"simplex_tol": math.nan}, {"grid_bounds": math.inf},
                    {"grid_bounds": math.nan}, {"grid_bounds": -1.0}):
            with pytest.raises(ValueError):
                bell.OptimizerConfig(**bad)
        for bad in ({"max_iters": math.nan}, {"max_iters": 4000.0},
                    {"grid_points": 21.5}, {"restarts": True}):
            with pytest.raises(TypeError):
                bell.OptimizerConfig(**bad)


def _rosenbrock(x):
    return (1.0 - x[0]) * (1.0 - x[0]) + 100.0 * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0])


def _restricted_10(v):
    return -abs(bell.bell_sum_restricted(PI_10, (v[0], v[1])))


_PI_ELLIPTICAL_19 = wigner.elliptical_transform_evaluator((1.9, +1))


def _general_elliptical_19(v):
    return -abs(bell.bell_sum_general(_PI_ELLIPTICAL_19, v))


def _infinite_half_plane(x):
    # finite only where x0 + x1 >= 0, minimum on the boundary: the simplex
    # keeps several infinite vertices, so argsort ties decide the path
    if x[0] + x[1] < 0.0:
        return math.inf
    return (x[0] + 2.0) * (x[0] + 2.0) + 10.0 * (x[1] - 1.0) * (x[1] - 1.0) + x[2] * x[2]


class TestNelderMead:
    """The in-house simplex search replays scipy's Nelder-Mead bit for bit."""

    @pytest.mark.parametrize(
        "f, x0, maxfev",
        [
            (_rosenbrock, [-1.2, 1.0], 4000),
            (_restricted_10, [0.3, 0.0], 4000),
            # the all-zero general seed at t = 1.9, seed 12345: stops at maxfev
            (_general_elliptical_19, [0.0] * 8, 4000),
            (_infinite_half_plane, [0.2, -0.1, 0.0], 4000),
            (_rosenbrock, [-1.2, 1.0], 50),
        ],
        ids=["rosenbrock", "restricted-10", "elliptical-1.9", "inf-half-plane",
             "rosenbrock-maxfev-50"],
    )
    def test_matches_scipy(self, f, x0, maxfev):
        x0 = np.array(x0)
        tol, maxiter = 1e-9, 4000
        with np.errstate(invalid="ignore"):  # inf - inf in the stopping test
            ref = minimize(f, x0, method="Nelder-Mead",
                           options={"xatol": tol, "fatol": tol, "maxiter": maxiter,
                                    "maxfev": maxfev})
            x, fun, nfev, success = bell._nelder_mead(f, x0, tol, maxiter, maxfev)
        assert x.tobytes() == ref.x.tobytes()
        assert fun == ref.fun
        assert nfev == ref.nfev
        assert success == ref.success

    def test_elliptical_case_hits_the_evaluation_cap(self):
        x0 = np.zeros(8)
        _, _, nfev, success = bell._nelder_mead(_general_elliptical_19, x0, 1e-9, 4000, 4000)
        assert (nfev, success) == (4000, False)

    def test_objective_gets_a_list_of_floats(self):
        seen = []

        def f(x):
            seen.append(x)
            return _rosenbrock(x)

        bell._nelder_mead(f, np.array([0.5, 0.5]), 1e-6, 10, 100)
        assert all(type(x) is list and all(type(c) is float for c in x) for x in seen)

    @pytest.mark.parametrize(
        "pi, kind",
        [
            (PI_10, bell.RESTRICTED),
            (wigner.lg_transform_evaluator((30, 0)), bell.RESTRICTED),
            (wigner.lg_transform_evaluator((20, 10)), bell.RESTRICTED),
            (PI_10, bell.GENERAL),
            (wigner.elliptical_transform_evaluator((1.1, +1)), bell.GENERAL),
            (_PI_ELLIPTICAL_19, bell.GENERAL),
        ],
        ids=["restricted-10", "restricted-30-0", "restricted-20-10", "general-10",
             "elliptical-1.1", "elliptical-1.9"],
    )
    def test_maximize_bell_matches_scipy_restart_loop(self, pi, kind):
        cfg = bell.OptimizerConfig(seed=12345)
        expected = scipy_maximize_bell(pi, kind, cfg)
        assert bell.maximize_bell(pi, kind, cfg) == expected  # bit-identical dataclasses


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

    def test_supremum_tracks_rows(self):
        cfg = bell.OptimizerConfig(restarts=3)
        profile = bell.elliptical_profile([0.0, 0.5, 1.0], config=cfg)
        values = [v for _, v in profile.rows]
        assert profile.sup_value == max(values)
        assert profile.sup_t == profile.rows[int(np.argmax(values))][0]
