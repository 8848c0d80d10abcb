import math
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest

from vortexbell import modes, specfun

from _oracles import (gauss_hermite_grid, hermite, lg_amplitude_product, lg_gradient,
                      lg_norm_decimal, lg_polar, schmidt_magnitudes_decimal,
                      schmidt_sum_unblocked)

ALL_MODES_10 = [(n, m) for n in range(11) for m in range(11) if n + m <= 10]
ALL_MODES = [(n, total - n) for total in range(modes.MAX_TOTAL_ORDER + 1) for n in range(total + 1)]


class TestLgAmplitude:
    def test_lowest_vortex_closed_form(self):
        value = modes.lg_amplitude((1, 0), 1.0, 0.0)
        assert value == pytest.approx((1.0 / math.sqrt(math.pi)) * math.exp(-0.5), abs=1e-15)
        assert abs(value) == pytest.approx(0.342, abs=5e-4)

    def test_lowest_vortex_full_form(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            X, Y = rng.uniform(-3, 3, 2)
            expected = (
                (X + 1j * Y) * math.exp(-(X * X + Y * Y) / 2.0) / math.sqrt(math.pi)
            )
            assert modes.lg_amplitude((1, 0), X, Y) == pytest.approx(expected, abs=1e-14)

    def test_ground_peak(self):
        assert modes.lg_amplitude((0, 0), 0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-15
        )

    @pytest.mark.parametrize("nm", [(2, 1), (3, 2), (0, 4), (5, 1)])
    def test_matches_polar_form_oracle(self, nm):
        rng = np.random.default_rng(sum(nm))
        pts = [(0.7, -0.3)] + [tuple(rng.uniform(-2.5, 2.5, 2)) for _ in range(10)]
        for X, Y in pts:
            expected = lg_polar(nm[0], nm[1], X, Y)
            assert modes.lg_amplitude(nm, X, Y) == pytest.approx(expected, abs=1e-12)

    def test_unit_norm(self):
        X, Y, W = gauss_hermite_grid(48)
        for nm in ALL_MODES_10:
            total = np.sum(W * np.abs(modes.lg_amplitude(nm, X, Y)) ** 2)
            assert total == pytest.approx(1.0, abs=1e-8), nm

    def test_orthogonality(self):
        X, Y, W = gauss_hermite_grid(32)
        small = [(n, m) for n in range(7) for m in range(7) if n + m <= 6]
        fields = {nm: modes.lg_amplitude(nm, X, Y) for nm in small}
        for i, nm in enumerate(small):
            for nm2 in small[i:]:
                overlap = np.sum(W * np.conj(fields[nm]) * fields[nm2])
                expected = 1.0 if nm == nm2 else 0.0
                assert abs(overlap - expected) < 1e-8, (nm, nm2)

    def test_azimuthal_structure(self):
        rho = 1.3
        thetas = np.linspace(0.0, 2.0 * math.pi, 17)
        for nm in [(1, 0), (3, 1), (2, 2), (0, 5)]:
            l = nm[0] - nm[1]
            vals = [
                modes.lg_amplitude(nm, rho * math.cos(t), rho * math.sin(t))
                * np.exp(-1j * l * t)
                for t in thetas
            ]
            assert np.max(np.abs(np.diff(vals))) < 1e-10, nm

    def test_matches_one_product_oracle(self):
        # every n, and every third m from n mod 3, so each l = 0 mode (p, p) is in
        huge = [40.0, 1e200, -1.7976931348623157e308]
        X, Y = np.random.default_rng(17).uniform(-9.0, 9.0, (2, 4000))
        X, Y = np.append(X, huge + [0.3] * 3), np.append(Y, [0.3] * 3 + huge)
        for n in range(modes.MAX_TOTAL_ORDER + 1):
            for m in range(n % 3, modes.MAX_TOTAL_ORDER + 1 - n, 3):
                value = modes.lg_amplitude((n, m), X, Y)
                expected = lg_amplitude_product((n, m), X, Y)
                assert value.dtype == complex and value.shape == X.shape
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(value - expected)) <= 1e-15 * scale, (n, m)
                assert np.array_equal(value[-6:], np.zeros(6)), (n, m)
                if n == m:  # a real field: every imaginary part is +0.0
                    assert not np.any(np.signbit(value.imag)) and not np.any(value.imag), n
                point = modes.lg_amplitude((n, m), float(X[0]), float(Y[0]))
                assert type(point) is complex and point == value[0], (n, m)

    def test_rejects_invalid_mode(self):
        with pytest.raises(ValueError):
            modes.lg_amplitude((-1, 0), 0.0, 0.0)
        with pytest.raises(ValueError):
            modes.lg_amplitude((40, 30), 0.0, 0.0)


class TestLgGradient:
    @pytest.mark.parametrize("nm", [(0, 0), (1, 0), (2, 1), (0, 3), (4, 2)])
    def test_matches_central_differences(self, nm):
        rng = np.random.default_rng(31)
        step = 1e-5
        for _ in range(8):
            X, Y = rng.uniform(-2, 2, 2)
            gx, gy = lg_gradient(nm, X, Y)
            fd_x = (
                modes.lg_amplitude(nm, X + step, Y) - modes.lg_amplitude(nm, X - step, Y)
            ) / (2 * step)
            fd_y = (
                modes.lg_amplitude(nm, X, Y + step) - modes.lg_amplitude(nm, X, Y - step)
            ) / (2 * step)
            assert gx == pytest.approx(fd_x, abs=2e-7)
            assert gy == pytest.approx(fd_y, abs=2e-7)


class TestHgAmplitude:
    def test_ground(self):
        assert modes.hg_amplitude((0, 0), 0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-15
        )

    def test_first_excited_profile(self):
        for X in np.linspace(-2.5, 2.5, 11):
            expected = math.sqrt(2.0 / math.pi) * X * math.exp(-X * X / 2.0)
            assert modes.hg_amplitude((1, 0), float(X), 0.0) == pytest.approx(
                expected, abs=1e-14
            )

    def test_odd_mode_vanishes_on_axis(self):
        for X in np.linspace(-3, 3, 13):
            assert modes.hg_amplitude((0, 1), float(X), 0.0) == 0.0

    def test_unit_norm(self):
        X, Y, W = gauss_hermite_grid(48)
        for nm in [(0, 0), (1, 0), (2, 3), (5, 5)]:
            total = np.sum(W * modes.hg_amplitude(nm, X, Y) ** 2)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_hermite_polynomial_oracle(self):
        axis = np.linspace(-12.0, 12.0, 49)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        gauss = np.exp(-0.5 * (X * X + Y * Y))
        for n in range(modes.MAX_TOTAL_ORDER + 1):
            for m in range(modes.MAX_TOTAL_ORDER + 1 - n):
                norm = math.sqrt(math.pi * 2.0 ** (n + m) * math.factorial(n) * math.factorial(m))
                expected = hermite(n, X) * hermite(m, Y) * gauss / norm
                got = modes.hg_amplitude((n, m), X, Y)
                assert np.max(np.abs(got - expected)) <= 1e-13, (n, m)


class TestSchmidt:
    def test_ground_is_single_term(self):
        terms = modes.schmidt_coefficients((0, 0))
        assert len(terms) == 1
        assert terms[0].hg_index == modes.ModeIndex(0, 0)
        assert terms[0].coefficient == pytest.approx(1.0)

    def test_lowest_vortex_terms(self):
        terms = modes.schmidt_coefficients((1, 0))
        assert [t.hg_index for t in terms] == [modes.ModeIndex(1, 0), modes.ModeIndex(0, 1)]
        assert abs(terms[0].coefficient) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert abs(terms[1].coefficient) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        # relative phase +/- i, fixed so the reconstruction carries e^{+i theta}
        ratio = terms[1].coefficient / terms[0].coefficient
        assert ratio == pytest.approx(1j, abs=1e-12)

    def test_diagonal_mode_parity(self):
        # (1-t)^2 (1+t)^2 = 1 - 2 t^2 + t^4: odd-k coefficients vanish
        terms = modes.schmidt_coefficients((2, 2))
        assert len(terms) == 5
        assert abs(terms[1].coefficient) == 0.0
        assert abs(terms[3].coefficient) == 0.0
        total = sum(abs(t.coefficient) ** 2 for t in terms)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_unitarity(self):
        for n in range(0, 21, 2):
            for m in (0, min(n, 20 - n)):
                total = sum(
                    abs(t.coefficient) ** 2 for t in modes.schmidt_coefficients((n, m))
                )
                assert total == pytest.approx(1.0, abs=1e-10), (n, m)

    def test_weights_are_correctly_rounded(self):
        # every mode: |c_k| within 2 ulps of its 50-digit value, sum |c_k|^2 within 8 ulps of 1
        for nm in ALL_MODES:
            terms = modes.schmidt_coefficients(nm)
            for term, exact in zip(terms, schmidt_magnitudes_decimal(*nm)):
                ulp = Decimal(math.ulp(float(exact)))
                assert abs(Decimal(abs(term.coefficient)) - exact) <= 2 * ulp, (nm, term)
            total = math.fsum(abs(t.coefficient) ** 2 for t in terms)
            assert abs(total - 1.0) <= 8 * math.ulp(1.0), (nm, total - 1.0)

    def test_lg_norm_is_correctly_rounded(self):
        for n, m in ALL_MODES:
            p, a = min(n, m), abs(n - m)
            exact = lg_norm_decimal(p, a)
            ulp = Decimal(math.ulp(float(exact)))
            assert abs(Decimal(modes._lg_norm(p, a)) - exact) <= 4 * ulp, (p, a)

    def test_reconstruction_identity(self):
        axis = np.linspace(-4.0, 4.0, 21)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        for nm in ALL_MODES_10:
            direct = modes.lg_amplitude(nm, X, Y)
            rebuilt = modes.reconstruct_from_schmidt(nm, X, Y)
            assert np.max(np.abs(direct - rebuilt)) <= 1e-12, nm
        # high orders out to where the fields have decayed
        axis = np.linspace(-9.0, 9.0, 301)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        for nm in [(20, 10), (32, 32), (40, 20), (64, 0)]:
            direct = modes.lg_amplitude(nm, X, Y)
            rebuilt = modes.reconstruct_from_schmidt(nm, X, Y)
            assert np.max(np.abs(direct - rebuilt)) <= 1e-12, nm

    def test_reconstruction_single_point_examples(self):
        assert modes.reconstruct_from_schmidt((1, 0), 1.0, 0.0) == pytest.approx(
            modes.lg_amplitude((1, 0), 1.0, 0.0), abs=1e-12
        )
        assert modes.reconstruct_from_schmidt((3, 1), 0.4, -0.9) == pytest.approx(
            modes.lg_amplitude((3, 1), 0.4, -0.9), abs=1e-10
        )
        for X, Y in [(0.3, 0.4), (-1.2, 2.0)]:
            assert modes.reconstruct_from_schmidt((0, 0), X, Y) == pytest.approx(
                modes.hg_amplitude((0, 0), X, Y), abs=1e-12
            )

    def test_reconstruction_broadcasts(self):
        ys = np.array([-0.9, 0.1])
        rebuilt = modes.reconstruct_from_schmidt((3, 1), 0.4, ys)
        assert rebuilt.shape == (2,)
        assert np.max(np.abs(rebuilt - modes.lg_amplitude((3, 1), 0.4, ys))) <= 1e-14
        rebuilt = modes.reconstruct_from_schmidt((3, 1), ys, 0.4)
        assert np.max(np.abs(rebuilt - modes.lg_amplitude((3, 1), ys, 0.4))) <= 1e-14
        assert isinstance(modes.reconstruct_from_schmidt((3, 1), 0.4, -0.9), complex)
        # an outer product with a huge entry on each axis
        xs, ys = np.array([0.3, 1e200]), np.array([[0.1], [0.5], [1e300]])
        rebuilt = modes.reconstruct_from_schmidt((5, 3), xs, ys)
        assert rebuilt.shape == (3, 2)
        assert np.max(np.abs(rebuilt - modes.lg_amplitude((5, 3), xs, ys))) <= 1e-14

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_reconstruction_rejects_nonfinite_points(self, bad):
        for X, Y in [(bad, 0.3), (0.3, bad), (np.array([0.0, bad]), 1.0), (1.0, np.array([bad]))]:
            with pytest.raises(ValueError):
                modes.reconstruct_from_schmidt((3, 1), X, Y)
            with pytest.raises(ValueError):
                modes.hg_amplitude((3, 1), X, Y)


class TestSchmidtBlocks:
    """Beyond ``_BLOCK`` points the Schmidt sum runs in blocks, with the bits of one pass."""

    MODES = [(20, 10), (1, 0), (32, 32), (0, 64), (5, 3)]
    BLOCK = specfun._BLOCK

    @pytest.mark.parametrize("nm", MODES, ids=str)
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_edges_match_one_pass(self, nm, extra):
        size = self.BLOCK + extra
        X, Y = np.random.default_rng(size).uniform(-6.0, 6.0, (2, size))
        rebuilt = modes.reconstruct_from_schmidt(nm, X, Y)
        assert rebuilt.shape == (size,) and rebuilt.dtype == complex
        assert np.array_equal(rebuilt, schmidt_sum_unblocked(nm, X, Y))

    @pytest.mark.parametrize("nm", MODES, ids=str)
    def test_grid_and_broadcast_axes_match_one_pass(self, nm):
        axis = np.linspace(-7.0, 6.5, 256)
        X, Y = np.meshgrid(axis, axis[::-1], indexing="ij")
        rebuilt = modes.reconstruct_from_schmidt(nm, X, Y)
        assert rebuilt.shape == (256, 256) and rebuilt.flags.c_contiguous
        assert np.array_equal(rebuilt, schmidt_sum_unblocked(nm, X, Y))
        # the same points from a (256, 1) column and a (1, 256) row
        assert np.array_equal(modes.reconstruct_from_schmidt(nm, axis[:, None], axis[None, ::-1]),
                              rebuilt)

    @pytest.mark.parametrize("nm", MODES, ids=str)
    def test_scalar_and_empty_inputs_match_one_pass(self, nm):
        for X, Y in [(0.7, -1.3), (np.float64(2.0), np.array(-0.5))]:
            value = modes.reconstruct_from_schmidt(nm, X, Y)
            assert isinstance(value, complex) and value == schmidt_sum_unblocked(nm, X, Y)
        for X, Y in [(np.empty(0), 0.3), (np.empty((3, 0)), np.empty((1, 0)))]:
            rebuilt = modes.reconstruct_from_schmidt(nm, X, Y)
            assert rebuilt.shape == np.broadcast_shapes(np.shape(X), np.shape(Y))
            assert rebuilt.dtype == complex

    def test_large_grid_works_in_cache_sized_memory(self):
        # one pass holds about nine full-size float arrays; the blocks hold them per block
        axis = np.linspace(-5.0, 5.0, 256)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        tracemalloc.start()
        try:
            rebuilt = modes.reconstruct_from_schmidt((20, 10), X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * rebuilt.nbytes


@pytest.mark.parametrize(
    "amplitude",
    [modes.lg_amplitude, modes.hg_amplitude, modes.reconstruct_from_schmidt, lg_gradient],
)
@pytest.mark.parametrize("nm", [(1, 0), (2, 0), (20, 10), (0, 64)], ids=str)
def test_huge_finite_points_give_exact_zeros(amplitude, nm):
    # the Gaussian underflows to 0 long before a squared coordinate overflows
    huge = [1e200, -1e200, 1.7976931348623157e308, 1e5, 40.0]
    points = [(h, 0.0) for h in huge] + [(0.3, h) for h in huge] + [(h, -h) for h in huge]

    def parts(value):  # lg_gradient gives (d/dX, d/dY)
        return value if isinstance(value, tuple) else (value,)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for X, Y in points:
            for part in parts(amplitude(nm, X, Y)):
                assert part == 0.0, (X, Y)
        xs, ys = np.array(points).T
        for part in parts(amplitude(nm, xs, ys)):
            assert np.array_equal(part, np.zeros(len(points)))


class TestCoordinateMaps:
    def test_definition_points(self):
        scale = modes.ScaleParams(w=2.0, lambdabar=0.25)
        assert modes.physical_to_scaled(scale.w / math.sqrt(2.0), 0.0, scale) == pytest.approx(
            (1.0, 0.0)
        )
        assert modes.physical_to_scaled(
            0.0, math.sqrt(2.0) * scale.lambdabar / scale.w, scale
        ) == pytest.approx((0.0, 1.0))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        scale = modes.ScaleParams(w=1.7, lambdabar=0.01)
        for _ in range(50):
            x, p = rng.uniform(-10, 10, 2)
            X, P = modes.physical_to_scaled(x, p, scale)
            x2, p2 = modes.scaled_to_physical(X, P, scale)
            assert x2 == pytest.approx(x, rel=1e-14, abs=1e-16)
            assert p2 == pytest.approx(p, rel=1e-14, abs=1e-16)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            modes.ScaleParams(w=0.0, lambdabar=1.0)
        with pytest.raises(ValueError):
            modes.ScaleParams(w=1.0, lambdabar=-2.0)


class TestModeIndex:
    def test_orbital_angular_momentum(self):
        assert modes.ModeIndex(3, 1).l == 2
        assert modes.ModeIndex(1, 3).l == -2

    def test_rejects_over_cap(self):
        with pytest.raises(ValueError):
            modes.ModeIndex(40, 30)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            modes.ModeIndex(1.5, 0)

    def test_messages_name_an_index_too_long_to_print(self):
        with pytest.raises(ValueError, match=r"^n must be nonnegative, got "):
            modes.ModeIndex(-10**5000, 0)
        with pytest.raises(ValueError, match=r"^m must fit a float"):
            modes.ModeIndex(0, 10**5000)

    def test_as_mode_does_not_truncate(self):
        assert modes.as_mode((np.int64(2), 1)) == modes.ModeIndex(2, 1)
        # numpy integers are stored as Python ints, so Schmidt weights stay exact
        mode = modes.ModeIndex(np.int64(3), np.uint8(2))
        assert type(mode.n) is int and type(mode.m) is int
        for pair in [(3, 2), (30, 0), (40, 20)]:
            numpy_pair = tuple(np.int64(v) for v in pair)
            assert [(t.hg_index, t.coefficient.real.hex(), t.coefficient.imag.hex())
                    for t in modes.schmidt_coefficients(numpy_pair)] == [
                (t.hg_index, t.coefficient.real.hex(), t.coefficient.imag.hex())
                for t in modes.schmidt_coefficients(pair)], pair
        for pair in [(1.7, 0), (True, 0), (0, 2.0)]:
            with pytest.raises(TypeError):
                modes.as_mode(pair)
