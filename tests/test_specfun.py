import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_hermite

from vortexbell import specfun

from _oracles import hermite, hermite_series, laguerre_recurrence, laguerre_series


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert specfun.laguerre(0, 3, 7.2) == 1.0

    def test_degree_one(self):
        assert specfun.laguerre(1, 0, 2.0) == -1.0

    def test_frozen_series_value(self):
        # series oracle: 1 - 4 + 2 = -1
        assert laguerre_series(2, 0, 2.0) == -1.0
        assert specfun.laguerre(2, 0, 2.0) == pytest.approx(-1.0, abs=1e-13)

    def test_recurrence_matches_series_on_grid(self):
        xs = np.linspace(-10.0, 40.0, 26)
        for p in range(11):
            for alpha in range(11):
                for x in xs:
                    ref = laguerre_series(p, alpha, float(x))
                    got = specfun.laguerre(p, alpha, float(x))
                    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_high_degree_matches_series(self):
        # |L_p^alpha(x)| <= C(p+alpha, p) e^{x/2} for x >= 0; the recurrence's measured
        # worst case on these points is 4.0e-15 of that bound, at x = 0 (just above 0,
        # see the next test, it reaches 1.0e-13)
        xs = np.concatenate([[0.0, 0.5, 1.0], np.linspace(10.0, 300.0, 30)])
        for p in (30, 64):
            for alpha in range(11):
                got = specfun.laguerre(p, alpha, xs)
                for x, value in zip(xs, got):
                    bound = math.comb(p + alpha, p) * math.exp(x / 2.0)
                    error = abs(value - laguerre_series(p, alpha, float(x)))
                    assert error <= 1e-14 * bound, (p, alpha, x)

    def test_high_degree_accuracy_just_above_zero(self):
        # the worst case of the stated 1.2e-13 of C(p+alpha, p) e^{x/2}: 1.0e-13 at
        # x = 1e-5 for (64, 0), 2.0e-14 for p = 30; a division per step gives 8.9e-14
        xs = np.geomspace(1e-8, 1.0, 49)
        for p in (30, 64):
            for alpha in range(11):
                got = specfun.laguerre(p, alpha, xs)
                for x, value in zip(xs, got):
                    bound = math.comb(p + alpha, p) * math.exp(x / 2.0)
                    error = abs(value - laguerre_series(p, alpha, float(x)))
                    assert error <= 1.2e-13 * bound, (p, alpha, x)

    def test_overflow_is_the_leading_term_infinity(self):
        # L_p(x) ~ (-x)^p / p!: L_64(1e7) ~ 1e359, which is past the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert specfun.laguerre(64, 0, 1e7) == math.inf
            assert specfun.laguerre(63, 0, 1e7) == -math.inf
            assert specfun.laguerre(63, 2, -1e7) == math.inf
            assert type(specfun.laguerre(63, 0, 1e7)) is float
            xs = np.array([1e7, -1e7, 1.7e308, -1e300, 2.0])
            for p, alpha in [(63, 0), (64, 0), (60, 5)]:
                got = specfun.laguerre(p, alpha, xs)
                sign = -1.0 if p % 2 else 1.0
                assert np.array_equal(got[:4], [sign * math.inf, math.inf, sign * math.inf, math.inf])
                assert got[4] == specfun.laguerre(p, alpha, 2.0) and math.isfinite(got[4])
                assert np.array_equal(specfun.laguerre(p, alpha, xs.reshape(5, 1))[:, 0], got)
            assert specfun.laguerre(63, 0, np.asarray(1e7)) == -math.inf

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = int(rng.integers(0, 20))
            alpha = int(rng.integers(0, 8))
            x = float(rng.uniform(-5, 25))
            assert specfun.laguerre(p, alpha, x) == pytest.approx(
                float(eval_genlaguerre(p, alpha, x)), rel=1e-10, abs=1e-10
            )

    def test_value_at_zero_is_binomial(self):
        for p in range(0, 25, 3):
            for alpha in range(0, 12, 2):
                expected = math.comb(p + alpha, p)
                assert specfun.laguerre(p, alpha, 0.0) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-3, 9, 17)
        vec = specfun.laguerre(6, 2, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == specfun.laguerre(6, 2, float(x))

    def test_scaled_representation_consistent(self):
        for x in (0.5, 37.0, 250.0, 4000.0):
            mant, scale = specfun.laguerre_scaled(12, 0, x)
            direct = specfun.laguerre(12, 0, x)
            assert mant * math.exp(scale) == pytest.approx(direct, rel=1e-12)

    def test_rejects_degree_above_cap(self):
        with pytest.raises(ValueError):
            specfun.laguerre(specfun.MAX_DEGREE + 1, 0, 1.0)

    def test_rejects_nonfinite_argument(self):
        with pytest.raises(ValueError):
            specfun.laguerre(3, 0, math.nan)
        with pytest.raises(ValueError):
            specfun.laguerre(3, 0, np.array([1.0, math.inf]))

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            specfun.laguerre(-1, 0, 1.0)

    @pytest.mark.parametrize("alpha", [0, 3])
    @pytest.mark.parametrize("p", [0, 1, 30, 64])
    def test_every_scalar_kind_has_the_array_bits(self, p, alpha):
        for x in (0.0, -0.0, 0.75, 2.0, 31.0, -4.5, 250.0):
            inside = specfun.laguerre(p, alpha, np.array([1.5, x, 2.0]))[1]
            kinds = [float, np.float64, np.asarray] + ([int] if x.is_integer() else [])
            for kind in kinds:
                got = specfun.laguerre(p, alpha, kind(x))
                assert type(got) is float, (kind, x)
                assert _same_bits(np.float64(got), inside), (kind, x)

    @pytest.mark.parametrize("p, alpha, x", [(63, 0, 1e7), (64, 0, 1e7), (63, 3, -1e7),
                                             (64, 3, 1.7e308)])
    def test_overflow_is_one_signed_infinity_in_every_form(self, p, alpha, x):
        expected = -math.inf if p % 2 and x > 0 else math.inf
        kinds = [float, np.float64, np.asarray] + ([int] if abs(x) < 1e8 else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in kinds:
                got = specfun.laguerre(p, alpha, kind(x))
                assert type(got) is float and got == expected, kind
            assert specfun.laguerre(p, alpha, np.array([2.0, x]))[1] == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_kind_of_nonfinite_input_is_rejected(self, bad):
        for kind in (float, np.float64, np.asarray, lambda v: np.array([1.0, v]),
                     lambda v: [[v, 0.5]]):
            with pytest.raises(ValueError, match="must be finite"):
                specfun.laguerre(4, 1, kind(bad))


def _same_bits(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) and (
        np.asarray(a).tobytes() == np.asarray(b).tobytes())


class TestInPlaceRecurrence:
    """``_laguerre`` updates its arrays in place; the oracle makes fresh ones each step."""

    ALPHAS = (0, 1, 2, 7)

    @staticmethod
    def _arguments():
        rng = np.random.default_rng(5)
        # zeros of both signs, the range Pi meets, and arguments whose values overflow to inf and NaN
        flat = np.concatenate([[0.0, -0.0, 1.0, 3.0 - 1e-16], rng.uniform(-5.0, 60.0, 24),
                               [1e40, -1e40, 1e200, -1e300, 1.7e308]])
        yield flat
        yield flat.reshape(3, 11)
        yield np.asarray(2.5)
        yield np.broadcast_to(flat[:5], (4, 5))
        yield flat[::3]  # a strided view

    def test_bit_identical_to_one_expression_oracle(self):
        with np.errstate(all="ignore"):
            for x in self._arguments():
                for alpha in self.ALPHAS:
                    values = specfun._laguerres(alpha, x)
                    for p in range(specfun.MAX_DEGREE + 1):
                        got = next(values)
                        ref = laguerre_recurrence(p, alpha, x)
                        assert _same_bits(got, ref), (x.shape, alpha, p)
                        assert _same_bits(specfun._laguerre(p, alpha, x), ref), (x.shape, alpha, p)

    def test_python_floats(self):
        for x in (0.0, -0.0, 0.75, 31.0, -4.5, 1e200, -1e300):
            for alpha in self.ALPHAS:
                for p in range(specfun.MAX_DEGREE + 1):
                    got = specfun._laguerre(p, alpha, x)
                    assert isinstance(got, float)
                    assert _same_bits(got, laguerre_recurrence(p, alpha, x)), (x, alpha, p)

    def test_never_writes_its_argument(self):
        x = np.linspace(-3.0, 40.0, 9)
        frozen = x.copy()
        x.setflags(write=False)  # an in-place write to x would raise
        values = specfun._laguerres(2, x)
        for _ in range(20):
            next(values)
        assert np.array_equal(x, frozen)
        view = np.broadcast_to(frozen, (2, 9))
        assert specfun._laguerre(12, 0, view).shape == (2, 9)

    def test_public_laguerre_keeps_scalar_types(self):
        assert type(specfun.laguerre(5, 0, 1.5)) is float
        assert type(specfun.laguerre(0, 0, 1.5)) is float
        assert type(specfun.laguerre(5, 1, 2)) is float
        assert specfun.laguerre(5, 1, np.array([1.5, 2.0])).shape == (2,)


class TestHermite:
    def test_degree_zero(self):
        assert hermite(0, 3.1) == 1.0

    def test_degree_one(self):
        assert hermite(1, 0.5) == 1.0

    def test_frozen_series_value(self):
        # series oracle: 8 x^3 - 12 x at x = 1
        assert hermite_series(3, 1.0) == -4.0
        assert hermite(3, 1.0) == pytest.approx(-4.0, abs=1e-13)

    def test_recurrence_matches_series(self):
        xs = np.linspace(-4.0, 4.0, 17)
        for n in range(13):
            for x in xs:
                ref = hermite_series(n, float(x))
                got = hermite(n, float(x))
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(0, 25))
            x = float(rng.uniform(-4, 4))
            assert hermite(n, x) == pytest.approx(
                float(eval_hermite(n, x)), rel=1e-10, abs=1e-10
            )

    def test_parity(self):
        xs = np.linspace(0.1, 3.7, 9)
        for n in range(21):
            sign = (-1.0) ** n
            for x in xs:
                assert hermite(n, -float(x)) == sign * hermite(n, float(x))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hermite(65, 0.0)
        with pytest.raises(ValueError):
            hermite(2, math.inf)
