import math

import numpy as np
import pytest

from vortexbell import modes, quadrature
from _oracles import gauss_hermite_mean, gauss_hermite_moments

MOMENT_KEYS = ("xx", "yy", "pxpx", "pypy", "xy", "pxpy", "xpy", "ypx", "xpx_sym", "ypy_sym")


def trapezoid_moments(nm, half=8.0, points=801):
    """Independent moment oracle: dense trapezoid grid, FFT-free finite
    differences for the momentum side. Good to ~1e-4."""
    axis = np.linspace(-half, half, points)
    h = axis[1] - axis[0]
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    amp = modes.lg_amplitude(nm, X, Y)
    dX = np.gradient(amp, h, axis=0)
    dY = np.gradient(amp, h, axis=1)
    cell = h * h
    dens = np.abs(amp) ** 2

    def integral(values):
        return float(np.sum(values).real * cell)

    return {
        "xx": integral(dens * X * X),
        "pypy": integral(np.abs(dY) ** 2),
        "xpy": integral(np.conj(amp) * X * (-1j) * dY),
        "ypx": integral(np.conj(amp) * Y * (-1j) * dX),
        "xy": integral(dens * X * Y),
    }


class TestGaussNodes:
    def test_legendre_constant(self):
        nodes, weights = quadrature.gauss_nodes(
            quadrature.QuadratureConfig(order=4, half_width=1.0)
        )
        assert float(np.sum(weights)) == pytest.approx(2.0, abs=1e-12)

    def test_legendre_polynomial_exactness(self):
        config = quadrature.QuadratureConfig(order=8, half_width=2.5)
        nodes, weights = quadrature.gauss_nodes(config)
        for k in range(8):
            expected = 2.0 * config.half_width ** (2 * k + 1) / (2 * k + 1)
            got = float(np.sum(weights * nodes ** (2 * k)))
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("half_width", [1.0, 8.0, 4.0 + math.sqrt(65), 4.0 + math.sqrt(129)])
    def test_nodes_antisymmetric_and_weights_symmetric(self, half_width):
        # the numeric Wigner plan takes E(R - xi) as E(R + xi) on the reversed nodes
        x = np.array([0.0, -0.7, 1.3e-3, 5.25])[:, None]
        for order in range(1, quadrature.MAX_ORDER + 1):
            nodes, weights = quadrature.gauss_nodes(quadrature.QuadratureConfig(order, half_width))
            assert np.array_equal(nodes, -nodes[::-1]), order
            assert np.array_equal(weights, weights[::-1]), order
            assert np.array_equal(x - nodes, x + nodes[::-1]), order

    def test_config_validation(self):
        with pytest.raises(ValueError):
            quadrature.QuadratureConfig(order=0)
        with pytest.raises(ValueError, match=r"^order must be in \[1, 256\], got 300$"):
            quadrature.QuadratureConfig(order=300)
        with pytest.raises(ValueError, match=r"^order must be in \[1, 256\], got "):
            quadrature.QuadratureConfig(order=10**5000)
        for bad in (16.0, True):
            with pytest.raises(TypeError, match="order"):
                quadrature.QuadratureConfig(order=bad)
        with pytest.raises(ValueError):
            quadrature.QuadratureConfig(order=16, half_width=-1.0)
        with pytest.raises(ValueError):
            quadrature.QuadratureConfig(order=16, half_width=math.nan)

    def test_rejects_infinite_half_width(self):
        # infinite nodes would give an elliptical-beam plan a NaN norm
        with pytest.raises(ValueError, match="finite"):
            quadrature.QuadratureConfig(order=8, half_width=math.inf)


class TestMoments:
    def test_ground_mode(self):
        table = quadrature.moments((0, 0))
        for name in ("xx", "yy", "pxpx", "pypy"):
            assert getattr(table, name) == pytest.approx(0.5, abs=1e-12)
        for name in ("xy", "pxpy", "xpy", "ypx", "xpx_sym", "ypy_sym"):
            assert getattr(table, name) == pytest.approx(0.0, abs=1e-12)

    def test_lowest_vortex(self):
        table = quadrature.moments((1, 0))
        assert table.xpy == pytest.approx(0.5, abs=1e-10)
        assert table.ypx == pytest.approx(-0.5, abs=1e-10)
        assert table.xx == pytest.approx(1.0, abs=1e-10)
        assert table.pypy == pytest.approx(1.0, abs=1e-10)

    def test_exact_table_for_every_supported_mode(self):
        for n in range(modes.MAX_TOTAL_ORDER + 1):
            for m in range(modes.MAX_TOTAL_ORDER + 1 - n):
                table = quadrature.moments((n, m))
                expected = dict.fromkeys(MOMENT_KEYS, 0.0)
                expected.update(xx=(n + m + 1) / 2, yy=(n + m + 1) / 2,
                                pxpx=(n + m + 1) / 2, pypy=(n + m + 1) / 2,
                                xpy=(n - m) / 2, ypx=(m - n) / 2)
                assert vars(table) == expected, (n, m)

    def test_matches_gauss_hermite_oracle(self):
        for n in range(11):
            for m in range(11 - n):
                table = quadrature.moments((n, m))
                for key, value in gauss_hermite_moments((n, m)).items():
                    assert getattr(table, key) == pytest.approx(value, abs=1e-12), (n, m, key)

    @pytest.mark.parametrize("nm", [(40, 20), (64, 0), (32, 32)])
    def test_gauss_hermite_spot_check(self, nm):
        table = quadrature.moments(nm)
        for key, value in gauss_hermite_moments(nm).items():
            assert getattr(table, key) == pytest.approx(value, abs=1e-11), key

    def test_closed_forms_up_to_order_eight(self):
        for n in range(9):
            for m in range(9 - n):
                table = quadrature.moments((n, m))
                assert table.xpy == pytest.approx((n - m) / 2.0, abs=1e-8), (n, m)
                assert table.xx == pytest.approx((n + m + 1) / 2.0, abs=1e-8), (n, m)

    @pytest.mark.parametrize("nm", [(1, 0), (2, 1)])
    def test_against_trapezoid_oracle(self, nm):
        # route-independence check; the oracle's central differences carry an
        # O(h^2) bias of ~1e-3 on the momentum side
        table = quadrature.moments(nm)
        oracle = trapezoid_moments(nm)
        for key, value in oracle.items():
            assert getattr(table, key) == pytest.approx(value, abs=2e-3), key

    def test_matches_wigner_side(self):
        for n, m in [(n, m) for n in range(7) for m in range(7 - n)] + [(20, 10)]:
            field_side = quadrature.moments((n, m))
            wigner_side = quadrature.wigner_moments((n, m))
            for key in MOMENT_KEYS:
                assert getattr(field_side, key) == pytest.approx(
                    getattr(wigner_side, key), abs=1e-12
                ), (n, m, key)

    def test_cross_moment_antisymmetry(self):
        for nm in [(1, 0), (3, 1), (2, 2), (0, 4), (5, 2)]:
            table = quadrature.moments(nm)
            assert table.xpy == pytest.approx(-table.ypx, abs=1e-10), nm

    def test_orbital_angular_momentum_identity(self):
        for n in range(11):
            for m in range(11 - n):
                table = quadrature.moments((n, m))
                assert table.xpy - table.ypx == pytest.approx(n - m, abs=1e-8), (n, m)

    def test_deterministic(self):
        a = quadrature.moments((3, 2))
        b = quadrature.moments((3, 2))
        assert a == b


class TestFirstMoments:
    # the closed-form table has no first moments: it rests on all of them vanishing
    def test_all_components_vanish(self):
        for nm in [(1, 0), (0, 0), (3, 2)]:
            for which in ("X", "Y", "P_X", "P_Y"):
                assert gauss_hermite_mean(nm, which) == pytest.approx(
                    0.0, abs=1e-10
                ), (nm, which)

    def test_rejects_unknown_component(self):
        with pytest.raises(ValueError):
            gauss_hermite_mean((1, 0), "Z")
