import math

import numpy as np
import pytest

from vortexbell import correlation, quadrature


class TestQuadratureCorrelation:
    def test_lowest_vortex_closed_form(self):
        # C = (n - m) sin(phi - theta)/(n + m + 1) on a 20x20 grid, 1/2 sin for (1,0)
        thetas = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
        phis = np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False)
        for n, m in [(1, 0), (3, 1), (0, 5), (40, 20)]:
            for theta in thetas:
                for phi in phis:
                    got = correlation.quadrature_correlation((n, m), (theta, phi))
                    expected = (n - m) * math.sin(phi - theta) / (n + m + 1)
                    assert got == pytest.approx(expected, abs=1e-15), (n, m, theta, phi)

    def test_ground_mode_uncorrelated(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            angles = tuple(rng.uniform(0, 2 * math.pi, 2))
            assert correlation.quadrature_correlation((0, 0), angles) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_equal_angles_uncorrelated(self):
        rng = np.random.default_rng(71)
        for nm in [(1, 0), (3, 2), (0, 4), (2, 2)]:
            for _ in range(10):
                theta = rng.uniform(0, 2 * math.pi)
                assert correlation.quadrature_correlation(nm, (theta, theta)) == pytest.approx(
                    0.0, abs=1e-10
                ), nm

    def test_bounded_by_one(self):
        rng = np.random.default_rng(73)
        for nm in [(1, 0), (5, 0), (8, 0), (4, 2)]:
            for _ in range(50):
                angles = tuple(rng.uniform(0, 2 * math.pi, 2))
                assert abs(correlation.quadrature_correlation(nm, angles)) <= 1.0 + 1e-12

    def test_depends_only_on_angle_difference(self):
        rng = np.random.default_rng(79)
        for nm in [(1, 0), (4, 1)]:
            for _ in range(20):
                theta, phi, shift = rng.uniform(0, 2 * math.pi, 3)
                a = correlation.quadrature_correlation(nm, (theta, phi))
                b = correlation.quadrature_correlation(nm, (theta + shift, phi + shift))
                assert a == pytest.approx(b, abs=1e-10)

    def test_periodicity(self):
        for nm in [(1, 0), (2, 1)]:
            a = correlation.quadrature_correlation(nm, (0.3, 1.2))
            b = correlation.quadrature_correlation(
                nm, (0.3 + 2 * math.pi, 1.2 - 2 * math.pi)
            )
            assert a == pytest.approx(b, abs=1e-12)


class TestMaxCorrelation:
    def test_lowest_vortex(self):
        assert correlation.max_correlation((1, 0)) == pytest.approx(0.5, abs=1e-6)

    def test_maximizing_branch(self):
        # |C| peaks at phi - theta = k pi/2 with k odd; the +pi/2 branch is
        # the signed maximum itself
        c_max = correlation.max_correlation((1, 0))
        assert correlation.quadrature_correlation((1, 0), (0.0, math.pi / 2.0)) == pytest.approx(
            c_max, abs=1e-10
        )
        for k in (1, 3, -1):
            got = correlation.quadrature_correlation((1, 0), (0.0, k * math.pi / 2.0))
            assert abs(got) == pytest.approx(c_max, abs=1e-10)
            assert got == pytest.approx(c_max * math.sin(k * math.pi / 2.0), abs=1e-10)

    def test_ground_mode(self):
        assert correlation.max_correlation((0, 0)) == pytest.approx(0.0, abs=1e-10)

    def test_matches_moment_ratio_oracle(self):
        # oracle route: assemble the ratio from an independently computed table
        for nm in [(1, 0), (3, 1), (2, 2)]:
            table = quadrature.moments(nm)
            expected = table.xpy / math.sqrt(table.xx * table.pypy)
            assert correlation.max_correlation(nm) == pytest.approx(expected, abs=1e-12)

    def test_vortex_ladder_reaches_high_correlation(self):
        values = [correlation.max_correlation((n, 0)) for n in range(1, 9)]
        for n, value in enumerate(values, start=1):
            assert value == pytest.approx(n / (n + 1), abs=1e-8)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.85

    def test_antisymmetry_under_mode_exchange(self):
        for n, m in [(1, 0), (3, 1), (4, 2), (5, 0)]:
            forward = correlation.max_correlation((n, m))
            backward = correlation.max_correlation((m, n))
            assert forward == pytest.approx(-backward, abs=1e-10)

    def test_both_moment_ratio_expressions_agree(self):
        for n in range(11):
            for m in range(11 - n):
                table = quadrature.moments((n, m))
                first = table.xpy / math.sqrt(table.xx * table.pypy)
                second = -table.ypx / math.sqrt(table.pxpx * table.yy)
                assert first == pytest.approx(second, abs=1e-10), (n, m)

    def test_agrees_with_dense_grid_maximum(self):
        # numerical maximum over a fine angle grid, no closed form involved
        phis = np.linspace(0.0, 2.0 * math.pi, 5001)
        for nm in [(1, 0), (2, 0), (4, 0)]:
            grid_max = max(
                correlation.quadrature_correlation(nm, (0.0, phi)) for phi in phis
            )
            assert correlation.max_correlation(nm) == pytest.approx(grid_max, abs=1e-6)


class TestCorrelationScan:
    def test_sinusoid_for_lowest_vortex(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        rows = correlation.correlation_scan((1, 0), [0.0], phis)
        assert rows.shape == (24, 3)
        assert np.max(rows[:, 2]) == pytest.approx(0.5, abs=1e-10)
        assert np.min(rows[:, 2]) == pytest.approx(-0.5, abs=1e-10)

    def test_grid_maximum_matches_scalar(self):
        grid = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        rows = correlation.correlation_scan((2, 0), grid, grid)
        assert np.max(rows[:, 2]) == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert np.max(rows[:, 2]) == pytest.approx(
            correlation.max_correlation((2, 0)), abs=1e-6
        )

    def test_balanced_mode_is_identically_zero(self):
        grid = np.linspace(0.0, 2.0 * math.pi, 12)
        rows = correlation.correlation_scan((1, 1), grid, grid)
        assert np.max(np.abs(rows[:, 2])) <= 1e-10

    def test_row_major_ordering(self):
        rows = correlation.correlation_scan((1, 0), [0.1, 0.2], [0.3, 0.4])
        assert rows[:, 0].tolist() == [0.1, 0.1, 0.2, 0.2]
        assert rows[:, 1].tolist() == [0.3, 0.4, 0.3, 0.4]

    def test_rows_match_stacked_columns(self):
        # theta repeated, phi tiled and C raveled, as column_stack assembles them
        thetas, phis = np.linspace(-7.0, 8.0, 37), np.linspace(8.0, -7.0, 29)
        for nm in [(1, 0), (3, 1), (40, 20), (2, 2)]:
            c = correlation.quadrature_correlation(nm, (thetas[:, None], phis[None, :]))
            expected = np.column_stack((np.repeat(thetas, phis.size), np.tile(phis, thetas.size),
                                        c.ravel()))
            assert np.array_equal(correlation.correlation_scan(nm, thetas, phis), expected)
        assert correlation.correlation_scan((1, 0), 0.3, phis).shape == (phis.size, 3)

    def test_matches_scalar_cell_by_cell(self):
        thetas = np.linspace(-1.0, 7.0, 13)
        phis = np.linspace(0.5, -6.0, 11)
        for nm in [(1, 0), (3, 1), (0, 5), (40, 20)]:
            rows = correlation.correlation_scan(nm, thetas, phis)
            for theta, phi, c in rows:
                scalar = correlation.quadrature_correlation(nm, (theta, phi))
                assert abs(c - scalar) <= 1e-15, (nm, theta, phi)

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(ValueError, match="finite"):
            correlation.correlation_scan((1, 0), [0.1, math.nan], [0.3])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            correlation.correlation_scan((1, 0), [], [0.1])


class TestAngles:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            correlation.quadrature_correlation((1, 0), (math.nan, 0.0))
